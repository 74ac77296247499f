package main

// layerMetric describes one per-layer metric of the traced run.
type layerMetric struct {
	name   string
	unit   string
	better string
	// exact marks a count that must repeat bit for bit for a seed (-check-exact
	// compares it across two runs); slack is the relative tolerance of the
	// allocation counts, which the Go runtime's own objects blur by one or two
	// in ten thousand.
	exact bool
	slack float64
	// moves names the end-to-end metric the layer metric is expected to move,
	// and where it must not.
	moves string
}

// perLayer is every per-layer metric, in print order. The layers are the
// repository's modules. BENCHMARK.json lists the same names, units and
// directions; the smoke test holds the two together.
var perLayer = []layerMetric{
	// engine: the root package's Engine, from its own counters and the outer
	// spans of the traced passes of the selected workload.
	{"engine.hit_ratio", "ratio", "higher", true, 0, "churn_durable/ops_per_s, lat_p95_us; exactly 1 on serve_hot"},
	{"engine.computed_per_op", "ratio", "lower", true, 0, "churn_durable/ops_per_s; 1 on fill_cold, 0 on serve_hot"},
	{"engine.repaired_share", "ratio", "higher", true, 0, "churn_durable/ops_per_s, lat_p95_us (a repair saves a refill)"},
	{"engine.invalidated_per_write", "count", "lower", true, 0, "churn_durable/ops_per_s, lat_p95_us"},
	{"engine.miss_overhead_us", "us", "lower", false, 0, "fill_cold/lat_p50_us (single-flight, pin, putIfCurrent around the replayed stages)"},
	{"engine.batch_overhead_pct", "%", "lower", false, 0, "batch_scan/ops_per_s (BatchTopK against topk.BatchBRS on the benchmark's tree)"},
	{"engine.fused_share", "ratio", "higher", true, 0, "batch_scan/ops_per_s; 0 elsewhere"},
	{"engine.shared_reads_per_op", "count", "higher", true, 0, "batch_scan/ops_per_s; 0 elsewhere"},
	{"engine.quiesce_us", "us", "lower", false, 0, "churn_durable/ops_per_s and dataset.write_p95_us"},
	{"engine.time_share.hit", "ratio", "lower", false, 0, "says which of the others matters on the selected workload"},
	{"engine.time_share.miss", "ratio", "lower", false, 0, "as above"},
	{"engine.time_share.write", "ratio", "lower", false, 0, "as above"},
	{"engine.time_share.quiesce", "ratio", "lower", false, 0, "as above"},
	{"engine.time_share.checkpoint", "ratio", "lower", false, 0, "as above"},
	{"engine.fence_veto_share", "ratio", "lower", false, 0, "churn_durable only, one un-quiesced replay: timing-dependent, never exact"},
	{"engine.lat_p50_us", "us", "lower", false, 0, "the median read (batch_scan: batch call) of the traced passes, on the wall clock; ops_per_s is its mean's reciprocal"},
	{"engine.lat_p95_us", "us", "lower", false, 0, "p95 of the same samples: a refill on churn_durable; no end-to-end metric on this host (README, Noise)"},
	{"dataset.write_p50_us", "us", "lower", false, 0, "churn_durable: one Insert/Delete including its log append"},
	{"dataset.write_p95_us", "us", "lower", false, 0, "churn_durable: falls in the quiesce-inclusive quarter of writes, i.e. write-to-reconciled latency"},

	// cache: internal/cache on the benchmark's own stack, filled from
	// serve_hot's stream.
	{"cache.lookup_hit_us", "us", "lower", false, 0, "serve_hot/ops_per_s, lat_p50_us, lat_p95_us"},
	{"cache.lookup_hit_us.shards16", "us", "lower", false, 0, "what serve_hot would cost un-pinned: the default 16 shards against the pinned one"},
	{"cache.lookup_miss_us", "us", "lower", false, 0, "fill_cold/lat_p50_us; flat on serve_hot"},
	{"cache.put_us", "us", "lower", false, 0, "fill_cold/lat_p50_us (inscribed box + eviction scan); flat on serve_hot"},
	{"cache.entries", "count", "lower", true, 0, "serve_hot/live_heap_mb, churn_durable/live_heap_mb"},
	{"cache.kb_per_entry", "KB", "lower", false, 0, "serve_hot/live_heap_mb, churn_durable/live_heap_mb"},

	// topk, rtree, vec: the traversal on the benchmark's own bulk-loaded tree.
	{"topk.brs_us", "us", "lower", false, 0, "batch_scan/ops_per_s, lat_p50_us; <= 6% of fill_cold; nothing on serve_hot"},
	{"topk.brs_group_us_per_query", "us", "lower", false, 0, "batch_scan/ops_per_s, lat_p50_us"},
	{"topk.page_reads_per_query", "count", "lower", true, 0, "batch_scan/ops_per_s"},
	{"topk.page_reads_per_query_fused", "count", "lower", true, 0, "batch_scan/ops_per_s"},
	{"topk.allocs_per_query", "count", "lower", true, 0.01, "batch_scan/ops_per_s"},
	{"rtree.read_block_us", "us", "lower", false, 0, "batch_scan/ops_per_s, lat_p50_us"},
	{"vec.dot_columns_ns_per_record", "ns", "lower", false, 0, "batch_scan/ops_per_s"},
	{"vec.dot_columns_multi_ns_per_record", "ns", "lower", false, 0, "batch_scan/ops_per_s (per record and query)"},
	{"rtree.insert_us", "us", "lower", false, 0, "churn_durable/ops_per_s and dataset.write_p50_us"},
	{"rtree.delete_us", "us", "lower", false, 0, "churn_durable/ops_per_s and dataset.write_p50_us"},
	{"rtree.cow_pages_per_write", "count", "lower", true, 0, "churn_durable/ops_per_s and dataset.write_p50_us"},
	{"rtree.bulkload_s", "s", "lower", false, 0, "setup_s on every workload"},

	// gir, skyline, hull, lp: region construction on fill_cold's first vectors.
	{"gir.compute_sp_us", "us", "lower", false, 0, "fill_cold/ops_per_s, lat_p50_us, lat_p95_us; churn_durable/lat_p95_us; flat on serve_hot, batch_scan"},
	{"gir.compute_cp_us", "us", "lower", false, 0, "as gir.compute_sp_us, were CP the fill method"},
	{"gir.compute_fp_us", "us", "lower", false, 0, "as gir.compute_sp_us, were FP the fill method"},
	{"gir.reduce_us", "us", "lower", false, 0, "fill_cold/ops_per_s, lat_p50_us (geom.ReduceCone over the raw SP constraints)"},
	{"gir.constraints_raw", "count", "lower", true, 0, "fill_cold/ops_per_s (the reduction is quadratic in it)"},
	{"gir.constraints_min", "count", "lower", true, 0, "serve_hot/ops_per_s (the containment test walks it)"},
	{"gir.page_reads_per_compute", "count", "lower", true, 0, "fill_cold/ops_per_s"},
	{"gir.allocs_per_compute", "count", "lower", true, 0.01, "fill_cold/ops_per_s via go.gc_cycles"},
	{"gir.kb_per_compute", "KB", "lower", false, 0, "fill_cold/ops_per_s via go.gc_cycles"},
	{"skyline.of_nonresult_us", "us", "lower", false, 0, "fill_cold/ops_per_s, lat_p50_us"},
	{"skyline.size", "count", "lower", true, 0, "fill_cold/ops_per_s"},
	{"hull.build_us", "us", "lower", false, 0, "fill_cold/ops_per_s once CP or FP fills"},
	{"lp.feasible_us", "us", "lower", false, 0, "fill_cold/ops_per_s, lat_p50_us (the reduction's cone-membership problems)"},

	// maintain, repair, invalidate: the write side of the cache, on the
	// benchmark's own cache filled from churn_durable's stream.
	{"maintain.drain_us_per_mutation", "us", "lower", false, 0, "churn_durable/ops_per_s and dataset.write_p95_us; flat on the read-only workloads"},
	{"maintain.predicates_per_mutation", "count", "lower", true, 0, "churn_durable/ops_per_s"},
	{"invalidate.insert_affects_us", "us", "lower", false, 0, "churn_durable/ops_per_s and dataset.write_p95_us"},
	{"repair.insert_us", "us", "lower", false, 0, "churn_durable/ops_per_s"},
	{"repair.delete_us", "us", "lower", false, 0, "churn_durable/ops_per_s"},
	{"repair.success_share", "ratio", "higher", true, 0, "churn_durable/ops_per_s, lat_p95_us"},

	// pager, dataset: durability. Latencies are this sandbox's page cache,
	// not a device's.
	{"pager.wal_append_us", "us", "lower", false, 0, "churn_durable/ops_per_s and dataset.write_p50_us"},
	{"pager.wal_sync_us", "us", "lower", false, 0, "churn_durable/ops_per_s (one in eight writes)"},
	{"pager.wal_bytes_per_write", "B", "lower", true, 0, "churn_durable/ops_per_s"},
	{"dataset.insert_us", "us", "lower", false, 0, "churn_durable/ops_per_s and dataset.write_p50_us"},
	{"dataset.delete_us", "us", "lower", false, 0, "churn_durable/ops_per_s and dataset.write_p50_us"},
	{"dataset.checkpoint_ms", "ms", "lower", false, 0, "churn_durable/ops_per_s (checkpoint share), setup_s"},
	{"dataset.checkpoint_kb", "KB", "lower", true, 0, "churn_durable/ops_per_s"},
	{"dataset.recover_ms", "ms", "lower", false, 0, "restart cost; no end-to-end metric yet"},
	{"dataset.disk_bytes_per_record", "B", "lower", true, 0, "space; no end-to-end metric yet"},

	// shard: no end-to-end workload yet; recorded so one starts from a number.
	{"shard.topk_us.p2", "us", "lower", false, 0, "none yet"},
	{"shard.batch64_us.p2", "us", "lower", false, 0, "none yet"},
	{"shard.scatter_overhead_pct", "%", "lower", false, 0, "none yet (shard.topk_us.p2 against topk.brs_us)"},

	// go: the runtime around the selected workload's traced passes.
	{"go.allocs_per_op", "count", "lower", true, 0.01, "ops_per_s on fill_cold and churn_durable; ~0 on serve_hot"},
	{"go.alloc_kb_per_op", "KB", "lower", false, 0, "as go.allocs_per_op"},
	{"go.gc_cycles", "count", "lower", false, 0, "as go.allocs_per_op"},
	{"go.gc_pause_ms", "ms", "lower", false, 0, "lat_p95_us on fill_cold and churn_durable"},

	{"trace.overhead_pct", "%", "lower", false, 0, "what recording the outer spans cost the traced passes"},
}
