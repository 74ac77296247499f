package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	gir "github.com/girlib/gir"
	"github.com/girlib/gir/internal/cache"
	"github.com/girlib/gir/internal/geom"
	girint "github.com/girlib/gir/internal/gir"
	"github.com/girlib/gir/internal/hull"
	"github.com/girlib/gir/internal/invalidate"
	"github.com/girlib/gir/internal/lp"
	"github.com/girlib/gir/internal/maintain"
	"github.com/girlib/gir/internal/pager"
	"github.com/girlib/gir/internal/repair"
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/shard"
	"github.com/girlib/gir/internal/skyline"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
	"github.com/girlib/gir/internal/viz"
)

// stack is the benchmark's own instance of the layers under the engine: a
// tree bulk-loaded over the same records and caches filled from the same
// streams. The per-layer probes time the layers' public functions on it,
// and the traced run replays sampled ops through it with nested spans.
type stack struct {
	e     *env
	store *pager.MemStore
	tree  *rtree.Tree

	hot, cold, batch []query
	churn            *churnScript

	hotCache   *cache.Cache // serve_hot's working set
	hotKB      float64      // live heap the working set holds, per entry
	churnCache *cache.Cache // churn_durable's, with repair state
	planner    maintain.Planner
	wal        *pager.WAL
	version    int64 // of the last replayed write
	dir        string
}

// fillMethod is the algorithm that builds the stack's cached regions. Every
// method yields the same region, and only the regions matter to the probes
// that read these caches, so the stack uses the cheapest.
const fillMethod = girint.FP

// us is a duration in microseconds.
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// perCall runs fn n times and returns the mean time of one call.
func perCall(n int, fn func(i int)) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return time.Since(t0) / time.Duration(n)
}

// mallocs returns the heap objects and bytes fn allocated.
func mallocs(fn func()) (objects, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

func newStack(e *env, vals map[string]float64) (*stack, error) {
	st := &stack{e: e, store: pager.NewMemStore(), hot: genHot(e), cold: genCold(e), batch: genBatch(e), churn: genChurn(e)}
	pts := make([]vec.Vector, len(e.points))
	for i, p := range e.points {
		pts[i] = vec.Vector(p)
	}
	t0 := time.Now()
	st.tree = rtree.BulkLoad(st.store, dim, pts, nil)
	vals["rtree.bulkload_s"] = time.Since(t0).Seconds()

	dir, err := os.MkdirTemp(e.outDir, "probe-")
	if err != nil {
		return nil, err
	}
	st.dir = dir
	st.wal, err = pager.OpenWAL(filepath.Join(dir, "stack.log"), pager.WALOptions{SyncEvery: walSyncEvery}, nil)
	if err != nil {
		return nil, err
	}
	st.planner.Repair = true

	before := liveHeap()
	st.hotCache = cache.NewSharded(e.sz.hotCap, 1)
	for _, qu := range st.hot {
		st.lookupOrFill(st.hotCache, qu)
	}
	st.hotKB = (float64(liveHeap()) - float64(before)) / 1024 / float64(st.hotCache.Len())
	st.churnCache = cache.NewSharded(e.sz.churnCap, 1)
	for _, seg := range st.churn.head() {
		for _, qu := range seg.reads {
			st.lookupOrFill(st.churnCache, qu)
		}
	}
	return st, nil
}

func (st *stack) close() error {
	err := st.wal.Close()
	if rmErr := os.RemoveAll(st.dir); err == nil {
		err = rmErr
	}
	return err
}

// retain snapshots the repair state a fill keeps, as the root package does
// between the traversal and the region build (which consumes the heap).
func retain(res *topk.Result) (cand []topk.Record, bounds []vec.Vector, complete bool) {
	if len(res.T)+res.Heap.Len() > cache.MaxRetained {
		return nil, nil, false
	}
	cand = append([]topk.Record(nil), res.T...)
	for _, it := range *res.Heap {
		bounds = append(bounds, it.Rect.Hi.Clone())
	}
	return cand, bounds, true
}

// lookupOrFill is the miss path without spans: probe, and on a miss
// traverse, build the region and insert it with its repair state.
func (st *stack) lookupOrFill(c *cache.Cache, qu query) {
	if e, ok := c.Lookup(qu.q, qu.k); ok && e.K >= qu.k {
		return
	}
	res := topk.BRS(st.tree, score.Linear{}, qu.q, qu.k)
	cand, bounds, complete := retain(res)
	reg, _, err := girint.Compute(st.tree, res, girint.Options{Method: fillMethod})
	if err != nil {
		return // as the engine does: the result stands, only the insert is skipped
	}
	lo, hi := viz.MAH(reg, reg.Query)
	c.PutWithBox(reg, res.Records, lo, hi, cand, bounds, complete, 0)
}

// probeAll runs every workload-independent probe that leaves the stack's
// tree as it was (probeTreeWrites, which does not, runs after the replay).
func (st *stack) probeAll(vals map[string]float64) error {
	// One dataset serves every probe that goes through the public API; the
	// durability probe, which writes to it, runs after the ones that read.
	ds, err := gir.NewDataset(st.e.points)
	if err != nil {
		return err
	}
	st.probeTraversal(vals, ds)
	st.probeCache(vals)
	if err := st.probeRegions(vals, ds); err != nil {
		return err
	}
	st.probeMaintenance(vals)
	if err := st.probeDurability(vals, ds); err != nil {
		return err
	}
	return st.probeShard(vals)
}

// probeQueries is the part of batch_scan's stream the traversal, engine and
// shard probes run (sixteen batches of 64 at full scale).
func (st *stack) probeQueries() []query { return st.batch[:min(1024, len(st.batch))] }

func vectors(qs []query) ([]vec.Vector, []int) {
	vs := make([]vec.Vector, len(qs))
	ks := make([]int, len(qs))
	for i, qu := range qs {
		vs[i], ks[i] = vec.Vector(qu.q), qu.k
	}
	return vs, ks
}

func (st *stack) probeTraversal(vals map[string]float64, ds *gir.Dataset) {
	qs := st.probeQueries()
	n := len(qs)
	lin := score.Linear{}
	topk.BRS(st.tree, lin, qs[0].q, qs[0].k) // the scratch pool holds a workspace from here on

	reads := st.store.Stats().Reads
	brs := perCall(n, func(i int) { topk.BRS(st.tree, lin, qs[i].q, qs[i].k) })
	vals["topk.brs_us"] = us(brs)
	vals["topk.page_reads_per_query"] = float64(st.store.Stats().Reads-reads) / float64(n)
	// Counted with the collector off: a collection empties the scratch pool
	// and the refill would count.
	gc := debug.SetGCPercent(-1)
	objects, _ := mallocs(func() {
		for _, qu := range qs {
			topk.BRS(st.tree, lin, qu.q, qu.k)
		}
	})
	debug.SetGCPercent(gc)
	vals["topk.allocs_per_query"] = float64(objects) / float64(n)

	size := st.e.sz.batchSize
	var fusedReads int64
	t0 := time.Now()
	for lo := 0; lo+size <= n; lo += size {
		vs, ks := vectors(qs[lo : lo+size])
		_, gs := topk.BatchBRS(st.tree, lin, vs, ks, 8)
		fusedReads += gs.PageReads
	}
	fused := n / size * size
	vals["topk.brs_group_us_per_query"] = us(time.Since(t0)) / float64(fused)
	vals["topk.page_reads_per_query_fused"] = float64(fusedReads) / float64(fused)

	// The engine's batch dispatch against the bare fused traversal, one
	// worker each so the difference is dispatch and not parallelism.
	eng := gir.NewEngine(ds, gir.EngineOptions{CacheCapacity: -1, Workers: 1})
	batches := toBatches(qs[:fused], size)
	eng.BatchTopK(batches[0])
	var viaEngine, bare time.Duration // batch by batch in turn, so a slow spell of the host hits both
	for i, b := range batches {
		t0 := time.Now()
		eng.BatchTopK(b)
		t1 := time.Now()
		vs, ks := vectors(dedupe(qs[i*size : (i+1)*size]))
		topk.BatchBRS(st.tree, lin, vs, ks, 8)
		viaEngine += t1.Sub(t0)
		bare += time.Since(t1)
	}
	vals["engine.batch_overhead_pct"] = 100 * (float64(viaEngine) - float64(bare)) / float64(bare)

	// Page decode: every page on the way to (and including) a sample of leaves.
	var ids []pager.PageID
	var blk rtree.NodeBlock
	frontier := []pager.PageID{st.tree.Root()}
	for len(frontier) > 0 && len(ids) < 512 {
		id := frontier[0]
		frontier = frontier[1:]
		ids = append(ids, id)
		if b := st.tree.ReadBlock(id, &blk); !b.Leaf {
			frontier = append(frontier, b.Children...)
		}
	}
	vals["rtree.read_block_us"] = us(perCall(8*len(ids), func(i int) { st.tree.ReadBlock(ids[i%len(ids)], &blk) }))

	// The scoring kernels over one decoded leaf.
	for !blk.Leaf {
		st.tree.ReadBlock(blk.Children[0], &blk)
	}
	const group = 8
	vs, _ := vectors(qs[:group])
	dst := make([]float64, blk.Count)
	rows := make([][]float64, group)
	for g := range rows {
		rows[g] = make([]float64, blk.Count)
	}
	iters := 100 * st.e.sz.probeWrites
	one := perCall(iters, func(i int) { vec.DotColumns(dst, vs[i%group], blk.Cols) })
	multi := perCall(iters/group, func(int) { vec.DotColumnsMulti(rows, vs, blk.Cols) })
	vals["vec.dot_columns_ns_per_record"] = float64(one) / float64(blk.Count)
	vals["vec.dot_columns_multi_ns_per_record"] = float64(multi) / float64(blk.Count*group)
}

func (st *stack) probeCache(vals map[string]float64) {
	c := st.hotCache
	entries := c.Entries()
	vals["cache.entries"] = float64(len(entries))
	vals["cache.kb_per_entry"] = st.hotKB

	// The same entries behind the default shard count. Placement is seeded
	// per process by the cache, so this number moves between runs by design.
	c16 := cache.NewSharded(st.e.sz.hotCap, cache.DefaultShards)
	for _, e := range entries {
		c16.PutWithBox(e.Region, e.Records, e.InnerLo, e.InnerHi, nil, nil, false, 0)
	}

	const loops = 4
	hits := func(c *cache.Cache) time.Duration {
		return perCall(loops*len(st.hot), func(i int) {
			qu := &st.hot[i%len(st.hot)]
			c.Lookup(qu.q, qu.k)
		})
	}
	vals["cache.lookup_hit_us"] = us(hits(c))
	vals["cache.lookup_hit_us.shards16"] = us(hits(c16))
	vals["cache.lookup_miss_us"] = us(perCall(loops*len(st.cold), func(i int) {
		qu := &st.cold[i%len(st.cold)]
		c.Lookup(qu.q, qu.k)
	}))
}

// probeRegions times region construction on fill_cold's first vectors: the
// three methods through the public API, then the SP pipeline's stages one by
// one through the layers' own entry points.
func (st *stack) probeRegions(vals map[string]float64, ds *gir.Dataset) error {
	qs := st.cold[:min(st.e.sz.probeQueries, len(st.cold))]
	n := float64(len(qs))
	results := func() []*gir.TopKResult {
		out := make([]*gir.TopKResult, len(qs))
		for i, qu := range qs {
			res, err := ds.TopK(qu.q, qu.k)
			if err != nil {
				panic(err) // the vectors are the benchmark's own, valid by construction
			}
			out[i] = res
		}
		return out
	}
	for _, m := range []struct {
		method gir.Method
		metric string
	}{{gir.CP, "gir.compute_cp_us"}, {gir.FP, "gir.compute_fp_us"}} {
		res := results()
		vals[m.metric] = us(perCall(len(qs), func(i int) {
			if _, err := ds.ComputeGIR(res[i], m.method); err != nil {
				panic(err)
			}
		}))
	}
	// SP is the method a zero-value EngineOptions fills with today; its
	// counts are the ones the fill workloads pay.
	res := results()
	var raw, minimal int
	var pageReads int64
	var spTime time.Duration
	objects, bytes := mallocs(func() {
		spTime = perCall(len(qs), func(i int) {
			g, err := ds.ComputeGIR(res[i], gir.SP)
			if err != nil {
				panic(err)
			}
			raw += g.Stats.RawConstraints
			minimal += g.Stats.Constraints
			pageReads += g.Stats.PageReads
		})
	})
	vals["gir.compute_sp_us"] = us(spTime)
	vals["gir.constraints_raw"] = float64(raw) / n
	vals["gir.constraints_min"] = float64(minimal) / n
	vals["gir.page_reads_per_compute"] = float64(pageReads) / n
	vals["gir.allocs_per_compute"] = float64(objects) / n
	vals["gir.kb_per_compute"] = float64(bytes) / 1024 / n

	lin := score.Linear{}
	var skyTime, hullTime, reduceTime, lpTime time.Duration
	var skySize, hulls, lps int
	putCache := cache.NewSharded(len(qs)/2, 1)
	var putTime time.Duration
	var puts int
	for _, qu := range qs {
		t0 := time.Now()
		sl := skyline.OfNonResult(st.tree, topk.BRS(st.tree, lin, qu.q, qu.k))
		skyTime += time.Since(t0)
		skySize += len(sl.Records)

		pts := make([]vec.Vector, len(sl.Records))
		for i, r := range sl.Records {
			pts[i] = r.Point
		}
		t0 = time.Now()
		if _, err := hull.Build(pts); err == nil {
			hullTime += time.Since(t0)
			hulls++
		}

		rawReg, _, err := girint.Compute(st.tree, topk.BRS(st.tree, lin, qu.q, qu.k), girint.Options{Method: girint.SP, SkipReduce: true})
		if err != nil {
			return err
		}
		normals := make([]vec.Vector, len(rawReg.Constraints))
		for i, c := range rawReg.Constraints {
			normals[i] = c.Normal
		}
		t0 = time.Now()
		keep := geom.ReduceCone(normals, 1e-12)
		reduceTime += time.Since(t0)

		// The reduction's own question, posed as it poses it: is normal i in
		// the cone of the others?
		for i := 0; i < min(16, len(normals)); i++ {
			prob := coneMembership(normals, i)
			t0 = time.Now()
			lp.Feasible(len(normals)-1, prob)
			lpTime += time.Since(t0)
			lps++
		}

		reg := &girint.Region{Dim: dim, Query: rawReg.Query, OrderSensitive: true}
		for _, i := range keep {
			reg.Constraints = append(reg.Constraints, rawReg.Constraints[i])
		}
		recs := topk.BRS(st.tree, lin, qu.q, qu.k).Records
		// A put into the probe's small cache: inscribed box, insert, and —
		// once it is full — the eviction scan.
		t0 = time.Now()
		lo, hi := viz.MAH(reg, reg.Query)
		putCache.PutWithBox(reg, recs, lo, hi, nil, nil, false, 0)
		putTime += time.Since(t0)
		puts++
	}
	vals["skyline.of_nonresult_us"] = us(skyTime) / n
	vals["skyline.size"] = float64(skySize) / n
	vals["hull.build_us"] = us(hullTime) / float64(max(hulls, 1))
	vals["gir.reduce_us"] = us(reduceTime) / n
	vals["lp.feasible_us"] = us(lpTime) / float64(max(lps, 1))
	vals["cache.put_us"] = us(putTime) / float64(puts)
	return nil
}

// coneMembership builds geom.ReduceCone's problem for normal i: find
// nonnegative multipliers of the other unit normals that sum to it.
func coneMembership(normals []vec.Vector, i int) []lp.Constraint {
	unit := func(v vec.Vector) vec.Vector { return vec.Scale(1/vec.Norm(v), v) }
	target := unit(normals[i])
	cons := make([]lp.Constraint, dim)
	for row := range cons {
		coef := make([]float64, 0, len(normals)-1)
		for j, g := range normals {
			if j != i {
				coef = append(coef, unit(g)[row])
			}
		}
		cons[row] = lp.Constraint{Coef: coef, Op: lp.EQ, RHS: target[row]}
	}
	return cons
}

// probeMaintenance times the cache's write side on the churn cache with the
// writes of the churn script's first segments.
func (st *stack) probeMaintenance(vals map[string]float64) {
	var writes []churnStep
	for _, seg := range st.churn.head() {
		for _, s := range seg.steps {
			if s.kind != stepRead {
				writes = append(writes, s)
			}
		}
	}
	entries := st.churnCache.Entries()

	var affects, repairIns, repairDel time.Duration
	var pairs, insTried, delTried, repaired int
	for _, w := range writes {
		if w.kind != stepInsert {
			continue
		}
		for _, e := range entries {
			t0 := time.Now()
			hit := invalidate.InsertAffects(e.Region, e.Records, w.p, e.InnerLo, e.InnerHi)
			affects += time.Since(t0)
			pairs++
			if !hit {
				continue
			}
			t0 = time.Now()
			_, ok := repair.Insert(repairEntry(e), w.id, w.p)
			repairIns += time.Since(t0)
			insTried++
			repaired += btoi(ok)
		}
	}
	for _, e := range entries {
		if !e.CandComplete() {
			continue
		}
		t0 := time.Now()
		_, ok := repair.Delete(repairEntry(e), e.Records[len(e.Records)/2].ID)
		repairDel += time.Since(t0)
		delTried++
		repaired += btoi(ok)
	}
	vals["invalidate.insert_affects_us"] = us(affects) / float64(max(pairs, 1))
	vals["repair.insert_us"] = us(repairIns) / float64(max(insTried, 1))
	vals["repair.delete_us"] = us(repairDel) / float64(max(delTried, 1))
	vals["repair.success_share"] = float64(repaired) / float64(max(insTried+delTried, 1))

	var drain time.Duration
	planner := maintain.Planner{Repair: true}
	for lo := 0; lo+churnBurst <= len(writes); lo += churnBurst {
		batch := make([]maintain.Mutation, churnBurst)
		for i, w := range writes[lo : lo+churnBurst] {
			batch[i] = maintain.Mutation{Version: int64(lo + i + 1), Insert: w.kind == stepInsert, ID: w.id, Point: w.p}
		}
		t0 := time.Now()
		planner.Drain(st.churnCache, batch)
		drain += time.Since(t0)
	}
	drained := float64(len(writes) / churnBurst * churnBurst)
	vals["maintain.drain_us_per_mutation"] = us(drain) / drained
	vals["maintain.predicates_per_mutation"] = float64(planner.Predicates()) / drained
}

func repairEntry(e *cache.Entry) repair.Entry {
	return repair.Entry{Region: e.Region, Records: e.Records, Cand: e.Cand, Bounds: e.Bounds, InnerLo: e.InnerLo, InnerHi: e.InnerHi}
}

// walPayload is a mutation record the size of the root package's: version,
// op, id, dimension, coordinates.
func walPayload(version int64, insert bool, id int64, p []float64) []byte {
	buf := make([]byte, 8+1+8+4+8*len(p))
	binary.LittleEndian.PutUint64(buf[0:], uint64(version))
	if insert {
		buf[8] = 1
	}
	binary.LittleEndian.PutUint64(buf[9:], uint64(id))
	binary.LittleEndian.PutUint32(buf[17:], uint32(len(p)))
	for i, x := range p {
		binary.LittleEndian.PutUint64(buf[21+8*i:], math.Float64bits(x))
	}
	return buf
}

// probeWrites is the stream of fresh records the write probes insert.
func (st *stack) probeWrites() []liveRec {
	r := newRNG(st.e.seed, streamProbe)
	out := make([]liveRec, st.e.sz.probeWrites)
	for i := range out {
		p := make([]float64, dim)
		for j := range p {
			p[j] = r.float()
		}
		out[i] = liveRec{id: freshIDBase + int64(i), p: p}
	}
	return out
}

func (st *stack) probeDurability(vals map[string]float64, ds *gir.Dataset) error {
	recs := st.probeWrites()

	// The log alone: appends with the fsync pushed out of reach, then fsyncs.
	w, err := pager.OpenWAL(filepath.Join(st.dir, "probe.log"), pager.WALOptions{SyncEvery: 1 << 30}, nil)
	if err != nil {
		return err
	}
	size0 := w.Size()
	appends := 10 * len(recs)
	var appendErr error
	vals["pager.wal_append_us"] = us(perCall(appends, func(i int) {
		r := recs[i%len(recs)]
		if err := w.Append(walPayload(int64(i), true, r.id, r.p)); err != nil {
			appendErr = err
		}
	}))
	vals["pager.wal_bytes_per_write"] = float64(w.Size()-size0) / float64(appends)
	var syncTime time.Duration
	syncs := len(recs) / walSyncEvery
	for i := 0; i < syncs && appendErr == nil; i++ {
		for _, r := range recs[:walSyncEvery] {
			appendErr = w.Append(walPayload(int64(i), true, r.id, r.p))
		}
		t0 := time.Now()
		if err := w.Sync(); err != nil {
			appendErr = err
		}
		syncTime += time.Since(t0)
	}
	vals["pager.wal_sync_us"] = us(syncTime) / float64(syncs)
	if err := w.Close(); err != nil {
		return err
	}
	if appendErr != nil {
		return fmt.Errorf("log probe: %w", appendErr)
	}

	// The dataset with its log on and no engine attached.
	dir := filepath.Join(st.dir, "dataset")
	if err := ds.EnableWAL(dir, gir.WALOptions{SyncEvery: walSyncEvery}); err != nil {
		return err
	}
	var writeErr error
	vals["dataset.insert_us"] = us(perCall(len(recs), func(i int) {
		if err := ds.Insert(recs[i].id, recs[i].p); err != nil {
			writeErr = err
		}
	}))
	half := recs[:len(recs)/2] // the other half stays, so recovery has a log to replay
	vals["dataset.delete_us"] = us(perCall(len(half), func(i int) {
		if ok, err := ds.Delete(half[i].id, half[i].p); err != nil || !ok {
			writeErr = fmt.Errorf("delete of record %d: found %v, %v", half[i].id, ok, err)
		}
	}))
	if writeErr != nil {
		return fmt.Errorf("dataset probe: %w", writeErr)
	}
	var logSize int64
	if fi, err := os.Stat(filepath.Join(dir, "wal.log")); err == nil {
		logSize = fi.Size()
	}
	if err := ds.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	ds, err = gir.Recover(dir, gir.WALOptions{SyncEvery: walSyncEvery})
	if err != nil {
		return fmt.Errorf("dataset probe: recover: %w", err)
	}
	vals["dataset.recover_ms"] = us(time.Since(t0)) / 1e3
	if got, want := ds.Len(), st.e.sz.n+len(recs)-len(half); got != want {
		return fmt.Errorf("dataset probe: recovered %d records, want %d", got, want)
	}
	const checkpoints = 3
	var cpErr error
	vals["dataset.checkpoint_ms"] = us(perCall(checkpoints, func(int) {
		if err := ds.Checkpoint(dir); err != nil {
			cpErr = err
		}
	})) / 1e3
	if cpErr != nil {
		return fmt.Errorf("dataset probe: checkpoint: %w", cpErr)
	}
	fi, err := os.Stat(filepath.Join(dir, "dataset.snap"))
	if err != nil {
		return err
	}
	vals["dataset.checkpoint_kb"] = float64(fi.Size()) / 1024
	// Space as a crash would find it: the snapshot plus the log before the
	// checkpoint truncated it.
	vals["dataset.disk_bytes_per_record"] = float64(fi.Size()+logSize) / float64(ds.Len())
	return ds.Close()
}

func (st *stack) probeShard(vals map[string]float64) error {
	c, err := shard.New(st.e.points, shard.Options{Parts: 2, Engine: gir.EngineOptions{CacheCapacity: -1, Workers: 2}})
	if err != nil {
		return err
	}
	qs := st.probeQueries()
	size := st.e.sz.batchSize
	batches := toBatches(qs[:len(qs)/size*size], size)
	c.TopK(qs[0].q, qs[0].k)
	one := perCall(len(qs), func(i int) { c.TopK(qs[i].q, qs[i].k) })
	vals["shard.topk_us.p2"] = us(one)
	vals["shard.batch64_us.p2"] = us(perCall(len(batches), func(i int) { c.BatchTopK(batches[i]) }))
	vals["shard.scatter_overhead_pct"] = 100 * (us(one) - vals["topk.brs_us"]) / vals["topk.brs_us"]
	return c.Close()
}

func (st *stack) probeTreeWrites(vals map[string]float64) {
	recs := st.probeWrites()
	writes := st.store.Stats().Writes
	vals["rtree.insert_us"] = us(perCall(len(recs), func(i int) {
		st.tree.BeginCOW()
		st.tree.Insert(recs[i].id, recs[i].p)
		st.tree.CommitCOW()
	}))
	vals["rtree.delete_us"] = us(perCall(len(recs), func(i int) {
		st.tree.BeginCOW()
		st.tree.Delete(recs[i].id, recs[i].p)
		st.tree.CommitCOW()
	}))
	vals["rtree.cow_pages_per_write"] = float64(st.store.Stats().Writes-writes) / float64(2*len(recs))
}
