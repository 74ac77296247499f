package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	gir "github.com/girlib/gir"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts("2, 3,4")
	if err != nil || len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Errorf("parseInts = %v, %v", got, err)
	}
	if _, err := parseInts("2,x"); err == nil {
		t.Error("bad int accepted")
	}
	got, err = parseInts("5,")
	if err != nil || len(got) != 1 {
		t.Errorf("trailing comma: %v, %v", got, err)
	}
}

func TestJoinInts(t *testing.T) {
	if got := joinInts([]int{1, 2, 3}); got != "1,2,3" {
		t.Errorf("joinInts = %q", got)
	}
	if got := joinInts(nil); got != "" {
		t.Errorf("joinInts(nil) = %q", got)
	}
}

// TestRunChurnSimplexSmoke runs the churn benchmark in the Σw=1 simplex
// query space at toy scale and validates the BENCH_simplex.json artifact:
// the config records the space, both rows are present with consistent
// maintenance counters, and the cache genuinely hit (a domain mismatch
// anywhere in the stack — validation, region membership, fence — would
// zero the hit counts or error out).
func TestRunChurnSimplexSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("churn benchmark smoke is not -short")
	}
	dir := t.TempDir()
	jsonPath := dir + "/BENCH_simplex.json"
	cfg := serveConfig{N: 1500, D: 3, Seed: 7, Stream: 300, Distinct: 8, ZipfS: 1.3, Jitter: 0.001, Batch: 32, Space: gir.SpaceSimplex}
	var buf strings.Builder
	if err := runChurn(cfg, 0.08, false, jsonPath, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var report churnReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if report.Config.Space != "simplex" {
		t.Errorf("config space = %q, want simplex", report.Config.Space)
	}
	if len(report.Rows) != 2 || report.Rows[0].Name != "fine-grained" || report.Rows[1].Name != "global flush" {
		t.Fatalf("unexpected rows: %+v", report.Rows)
	}
	for _, row := range report.Rows {
		if row.Affected != row.Repaired+row.Invalidated {
			t.Errorf("%s row breaks Affected == Repaired + Invalidated: %+v", row.Name, row)
		}
		if row.Hits == 0 {
			t.Errorf("%s row served no cache hits — the simplex stack never matched a region", row.Name)
		}
	}
}

// TestRunServeSmoke runs the serving benchmark end to end at toy scale
// and validates the BENCH_hotpath.json artifact: all four serving rows
// are present, every row carries the allocation columns, and the warm
// cached pass allocates less per query than the uncached one (the hot
// path's whole point).
func TestRunServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("serving benchmark smoke is not -short")
	}
	dir := t.TempDir()
	jsonPath := dir + "/BENCH_hotpath.json"
	cfg := serveConfig{N: 1500, D: 3, Seed: 7, Stream: 300, Distinct: 8, ZipfS: 1.3, Jitter: 0.001, Batch: 32}
	var buf strings.Builder
	if err := runServe(cfg, jsonPath, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var report serveReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	want := []string{"sequential no-cache", "engine no-cache", "engine cache (cold)", "engine cache (warm)"}
	if len(report.Rows) != len(want) {
		t.Fatalf("got %d rows, want %d: %+v", len(report.Rows), len(want), report.Rows)
	}
	for i, row := range report.Rows {
		if row.Name != want[i] {
			t.Errorf("row %d is %q, want %q", i, row.Name, want[i])
		}
		if row.Queries != cfg.Stream || row.QPS <= 0 {
			t.Errorf("%s row has bad volume/throughput: %+v", row.Name, row)
		}
		if row.AllocsPerQuery < 0 || row.BytesPerQuery < 0 {
			t.Errorf("%s row has negative allocation columns: %+v", row.Name, row)
		}
	}
	warm := report.Rows[3]
	if warm.Hits == 0 {
		t.Error("warm pass served no cache hits")
	}
	if seq := report.Rows[0]; warm.Hits > 0 && warm.AllocsPerQuery >= seq.AllocsPerQuery+400 {
		t.Errorf("warm cached pass allocates heavily (%.1f/query vs sequential %.1f): hot path regressed",
			warm.AllocsPerQuery, seq.AllocsPerQuery)
	}
}

// TestRunFusionSmoke runs the fused-batch benchmark end to end at toy
// scale and validates the BENCH_fusion.json artifact schema: all four
// rows present in order, fused rows recording fused groups/queries and
// shared page reads, and the fused no-cache pass reading no more pages
// than the unfused baseline (fewer is the whole point; equality is
// tolerated only at this toy scale, never more).
func TestRunFusionSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("fusion benchmark smoke is not -short")
	}
	dir := t.TempDir()
	jsonPath := dir + "/BENCH_fusion.json"
	cfg := serveConfig{N: 1500, D: 3, Seed: 7, Stream: 300, Distinct: 8, ZipfS: 1.3, Jitter: 0.001, Batch: 32}
	var buf strings.Builder
	if err := runFusion(cfg, jsonPath, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var report fusionReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if report.Benchmark != "girbench-fusion" {
		t.Fatalf("benchmark name = %q", report.Benchmark)
	}
	want := []string{"unfused no-cache", "fused no-cache", "fused cache (cold)", "fused cache (warm)"}
	if len(report.Rows) != len(want) {
		t.Fatalf("got %d rows, want %d: %+v", len(report.Rows), len(want), report.Rows)
	}
	for i, row := range report.Rows {
		if row.Name != want[i] {
			t.Errorf("row %d is %q, want %q", i, row.Name, want[i])
		}
		if row.Queries != cfg.Stream || row.QPS <= 0 {
			t.Errorf("%s row has bad volume/throughput: %+v", row.Name, row)
		}
		if row.PageReads < 0 || row.AllocsPerQuery < 0 {
			t.Errorf("%s row has negative counters: %+v", row.Name, row)
		}
	}
	unfused, fused := report.Rows[0], report.Rows[1]
	if unfused.FusedGroups != 0 || unfused.SharedPageReads != 0 {
		t.Errorf("unfused baseline recorded fused activity: %+v", unfused)
	}
	if fused.FusedGroups == 0 || fused.FusedQueries == 0 {
		t.Errorf("fused pass ran no fused traversals: %+v", fused)
	}
	if fused.SharedPageReads == 0 {
		t.Errorf("fused pass shared no page reads: %+v", fused)
	}
	if fused.PageReads > unfused.PageReads {
		t.Errorf("fusion read MORE pages than the per-query baseline: %d vs %d", fused.PageReads, unfused.PageReads)
	}
	if report.Config.GroupSize != 8 {
		t.Errorf("config group_size = %d", report.Config.GroupSize)
	}
}

// TestRunWALSmoke runs the durability benchmark end to end at toy scale
// and validates the BENCH_wal.json artifact: all three durability rows
// are present, write latencies are populated, and both WAL rows completed
// the checkpoint + recovery round-trip.
func TestRunWALSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("wal benchmark smoke is not -short")
	}
	dir := t.TempDir()
	jsonPath := dir + "/BENCH_wal.json"
	cfg := serveConfig{N: 1500, D: 3, Seed: 7, Stream: 300, Distinct: 8, ZipfS: 1.3, Jitter: 0.001, Batch: 32}
	var buf strings.Builder
	if err := runWAL(cfg, 0.08, 16, jsonPath, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var report walReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	want := []string{"no-wal", "wal (sync every 1)", "wal (sync every 16)"}
	if len(report.Rows) != len(want) {
		t.Fatalf("got %d rows, want %d: %+v", len(report.Rows), len(want), report.Rows)
	}
	for i, row := range report.Rows {
		if row.Name != want[i] {
			t.Errorf("row %d is %q, want %q", i, row.Name, want[i])
		}
		if row.Writes == 0 || row.WriteP99US <= 0 || row.WriteP99US < row.WriteP50US {
			t.Errorf("%s row has bad write latencies: %+v", row.Name, row)
		}
	}
	for _, row := range report.Rows[1:] {
		if !row.Recovered {
			t.Errorf("%s row did not complete the checkpoint + recovery round-trip", row.Name)
		}
		if row.WALRecords != int64(row.Writes) {
			t.Errorf("%s row logged %d records for %d writes", row.Name, row.WALRecords, row.Writes)
		}
	}
	if report.Rows[0].SyncEvery != 0 || report.Rows[0].WALBytes != 0 {
		t.Errorf("no-wal baseline carries WAL state: %+v", report.Rows[0])
	}
	if report.Config.SyncEvery != 16 {
		t.Errorf("config sync_every = %d", report.Config.SyncEvery)
	}
}

// TestRunStallSmoke runs the read-tail-latency benchmark end to end at
// toy scale and validates the BENCH_latency.json artifact schema CI
// uploads: both rows present, every row carrying ordered sampled
// percentiles, the churn row showing real durable writes, and the
// embedded pre-change baseline populated so the improvement ratio is
// meaningful.
func TestRunStallSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("stall benchmark smoke is not -short")
	}
	dir := t.TempDir()
	jsonPath := dir + "/BENCH_latency.json"
	// The churn stream must outlast a couple of scheduler ticks, or the
	// mutator goroutine never preempts the single-core serve loop and the
	// Writes assertion below is vacuous.
	cfg := serveConfig{N: 1500, D: 3, Seed: 7, Stream: 2000, Distinct: 8, ZipfS: 1.3, Jitter: 0.001, Batch: 32, Space: gir.SpaceSimplex}
	var buf strings.Builder
	if err := runStall(cfg, 2000, 200*time.Microsecond, jsonPath, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var report stallReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if report.Benchmark != "girbench-stall" {
		t.Fatalf("benchmark name = %q", report.Benchmark)
	}
	if report.Config.WriteRate != 2000 || report.Config.FsyncDelayMS != 0.2 {
		t.Errorf("config does not record the churn parameters: %+v", report.Config)
	}
	if len(report.Rows) != 2 || report.Rows[0].Name != "read-only" || report.Rows[1].Name != "syncevery=1 churn" {
		t.Fatalf("unexpected rows: %+v", report.Rows)
	}
	for _, row := range report.Rows {
		if row.Queries != cfg.Stream || row.QPS <= 0 {
			t.Errorf("%s row has bad volume/throughput: %+v", row.Name, row)
		}
		if row.P50US <= 0 || row.P99US < row.P50US || row.P999US < row.P99US || row.MaxUS < row.P999US {
			t.Errorf("%s row has unordered or empty percentiles: %+v", row.Name, row)
		}
	}
	if report.Rows[0].Writes != 0 {
		t.Errorf("read-only row saw %d writes", report.Rows[0].Writes)
	}
	if report.Rows[1].Writes == 0 {
		t.Error("churn row saw no durable writes — the mutator never ran")
	}
	if report.BaselineP99US <= 0 || report.ImprovementX <= 0 {
		t.Errorf("baseline comparison is empty: baseline=%v improvement=%v", report.BaselineP99US, report.ImprovementX)
	}
}

// TestRunShardSmoke runs the sharded serving benchmark end to end at toy
// scale and validates the BENCH_shard.json artifact schema: a 1-shard
// baseline row plus the N-shard row, per-partition sub-rows that cover
// every partition with real traffic, skew ratios ≥ 1, and merge overhead
// populated only on the sharded row.
func TestRunShardSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("shard benchmark smoke is not -short")
	}
	dir := t.TempDir()
	jsonPath := dir + "/BENCH_shard.json"
	cfg := serveConfig{N: 1500, D: 3, Seed: 7, Stream: 300, Distinct: 8, ZipfS: 1.3, Jitter: 0.001, Batch: 32}
	var buf strings.Builder
	if err := runShard(cfg, 0.08, 4, jsonPath, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var report shardReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if report.Benchmark != "girbench-serve-shard" || report.Config.Shards != 4 {
		t.Fatalf("bad report header: %q, shards %d", report.Benchmark, report.Config.Shards)
	}
	if len(report.Rows) != 2 || report.Rows[0].Shards != 1 || report.Rows[1].Shards != 4 {
		t.Fatalf("unexpected rows: %+v", report.Rows)
	}
	for _, row := range report.Rows {
		if len(row.Parts) != row.Shards {
			t.Fatalf("%s row has %d partition sub-rows for %d shards", row.Name, len(row.Parts), row.Shards)
		}
		if row.Queries != 300-row.Writes || row.QPS <= 0 {
			t.Errorf("%s row has bad volume/throughput: %+v", row.Name, row)
		}
		if row.Hits == 0 {
			t.Errorf("%s row served no cache hits", row.Name)
		}
		if row.RecordSkew < 1 || row.LookupSkew < 1 {
			t.Errorf("%s row has skew ratios below 1: %+v", row.Name, row)
		}
		records := 0
		for _, pr := range row.Parts {
			records += pr.Records
			if pr.Lookups == 0 {
				t.Errorf("%s row: partition %d saw no lookups — the scatter skipped it", row.Name, pr.Part)
			}
		}
		if records < cfg.N {
			t.Errorf("%s row: partitions hold %d records, seeded with %d", row.Name, records, cfg.N)
		}
	}
	if report.Rows[0].MergeOverheadPct != 0 {
		t.Errorf("baseline row carries merge overhead: %+v", report.Rows[0])
	}
}
