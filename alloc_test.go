// Allocation gates for the hot path. These are regression tests, not
// benchmarks: the warm cache hit must stay at zero heap allocations, a
// cold BRS must stay within a small fixed budget (the owned-result slabs),
// a cache fill must stay within a fixed budget too (what the entry keeps,
// not what Phase 2 touched), and results returned to callers — or kept by
// the cache — must never alias pooled scratch memory that a later query
// recycles.
package gir

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/girlib/gir/internal/cache"
	"github.com/girlib/gir/internal/datagen"
	"github.com/girlib/gir/internal/maintain"
	"github.com/girlib/gir/internal/pager"
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

func allocDataset(t testing.TB, n, d int) *Dataset {
	t.Helper()
	pts, err := datagen.Generate(datagen.IND, n, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([][]float64, len(pts))
	for i, p := range pts {
		raw[i] = p
	}
	ds, err := NewDataset(raw)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestWarmCacheHitZeroAllocs pins the steady-state serving cost: once a
// query's result and region are cached, TopKBuf into a caller-owned
// buffer performs no heap allocations at all.
func TestWarmCacheHitZeroAllocs(t *testing.T) {
	ds := allocDataset(t, 2000, 3)
	e := NewEngine(ds, EngineOptions{Workers: 1, CacheCapacity: 8})
	defer e.Close()

	q := []float64{0.6, 0.3, 0.1}
	const k = 10
	if res := e.TopK(q, k); res.Err != nil {
		t.Fatal(res.Err)
	}
	if res := e.TopK(q, k); res.Err != nil || !res.CacheHit {
		t.Fatalf("warm lookup not a cache hit (err=%v, hit=%v): GIR build must have failed", res.Err, res.CacheHit)
	}

	dst := make([]Record, k)
	var errSeen, missSeen bool
	allocs := testing.AllocsPerRun(200, func() {
		res := e.TopKBuf(dst, q, k)
		if res.Err != nil {
			errSeen = true
		}
		if !res.CacheHit {
			missSeen = true
		}
	})
	if errSeen || missSeen {
		t.Fatalf("warm TopKBuf degraded mid-run (err=%v, miss=%v)", errSeen, missSeen)
	}
	if allocs != 0 {
		t.Fatalf("warm cache hit allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestColdBRSAllocBudget bounds the cold query: with the pooled scratch
// doing the candidate flow, a full BRS should allocate only the owned
// result (points slab, rects slab, the backing arrays of Records, T and
// the resumable heap, the heap's header and the Result itself): 7 objects,
// a small constant, not O(nodes visited).
//
// coldBRSAllocBudget is its budget; alloc_race_test.go raises it as it
// does fillAllocBudget.
var coldBRSAllocBudget = 12.0

func TestColdBRSAllocBudget(t *testing.T) {
	pts, err := datagen.Generate(datagen.IND, 20000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	tree := rtree.BulkLoad(pager.NewMemStore(), 4, pts, nil)
	q := datagen.Query(4, 7)
	allocs := testing.AllocsPerRun(50, func() {
		topk.BRS(tree, score.Linear{}, q, 20)
	})
	if allocs > coldBRSAllocBudget {
		t.Fatalf("cold BRS allocated %.1f allocs/op, budget %.0f", allocs, coldBRSAllocBudget)
	}
	t.Logf("a cold BRS allocates %.1f objects (budget %.0f)", allocs, coldBRSAllocBudget)
}

// TestFillAllocBudget bounds one cache fill — an Engine.TopK miss: BRS,
// the FP region, its rays, the put and an eviction. Phase 2 runs
// in pooled scratch (star, page block, raw constraints, the reduction's
// programs), so what a fill allocates is what outlives it: the result,
// the region's slab and the entry — a few dozen objects, where the
// one-object-per-facet, per-constraint and per-program build took
// thousands.
//
// fillAllocBudget and fillByteBudget are its budgets; alloc_race_test.go
// raises them to the race build's own measurement × 2, as it does for
// drainAllocBudget. A fill allocated about 97 KB when it copied T twice
// more as a candidate set nothing reads, and about 51 KB when it copied T
// and the resumable heap out whole (n = 20 000, d = 4, k = 10). It
// allocates about 11 KB now that the traversal's tail copies out only what
// the Phase-1 cone keeps: the byte budget sits between the last two, so a
// whole-T copy cannot creep back.
var (
	fillAllocBudget = 100.0
	fillByteBudget  = 24.0 * 1024
)

func TestFillAllocBudget(t *testing.T) {
	ds := allocDataset(t, 20000, 4)
	e := NewEngine(ds, EngineOptions{Workers: 1, CacheCapacity: 8})
	defer e.Close()

	const k = 10
	seed := int64(500)
	var errSeen, hitSeen bool
	fill := func() {
		seed++
		res := e.TopK(datagen.Query(4, seed), k)
		errSeen = errSeen || res.Err != nil
		hitSeen = hitSeen || res.CacheHit
	}
	for i := 0; i < 16; i++ { // past capacity, pools warm
		fill()
	}
	before := e.Stats().Computed
	const runs = 100
	allocs := testing.AllocsPerRun(runs, fill)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		fill()
	}
	runtime.ReadMemStats(&m1)
	if errSeen || hitSeen || e.Stats().Computed-before != 2*runs+1 {
		t.Fatalf("not every call was a fill (err=%v, hit=%v, computed %d of %d)", errSeen, hitSeen, e.Stats().Computed-before, 2*runs+1)
	}
	// datagen.Query allocates the vector: one object, 32 B, that is the test's.
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc)/runs - 32
	t.Logf("a cache fill allocates %.1f objects, %.0f B (budgets %.0f, %.0f B)", allocs-1, bytes, fillAllocBudget, fillByteBudget)
	if allocs-1 > fillAllocBudget {
		t.Fatalf("a cache fill allocated %.1f objects, budget %.0f", allocs-1, fillAllocBudget)
	}
	if bytes > fillByteBudget {
		t.Fatalf("a cache fill allocated %.0f B, budget %.0f B", bytes, fillByteBudget)
	}
}

// TestBatchDispatchAllocBudget bounds the engine's per-query dispatch
// overhead on the no-cache batch path: against a serving-shaped batch
// (jittered repeats of a few centers — the girbench -serve stream), fused
// BatchTopK may cost at most 2 allocs/query more than a sequential
// Dataset.TopK loop. The fused path's fixed per-group cost (claim
// bookkeeping, group slices) must amortize across members; a regression
// that adds per-query allocations to dispatch fails here.
func TestBatchDispatchAllocBudget(t *testing.T) {
	ds := allocDataset(t, 20000, 4)
	e := NewEngine(ds, EngineOptions{Workers: 1, CacheCapacity: -1})
	defer e.Close()

	r := rand.New(rand.NewSource(88))
	const centers, per = 8, 8
	batch := make([]Query, 0, centers*per)
	for c := 0; c < centers; c++ {
		center := []float64{0.1 + 0.8*r.Float64(), 0.1 + 0.8*r.Float64(), 0.1 + 0.8*r.Float64(), 0.1 + 0.8*r.Float64()}
		for i := 0; i < per; i++ {
			q := make([]float64, len(center))
			for j := range center {
				q[j] = math.Max(1e-6, center[j]+0.001*r.NormFloat64())
			}
			batch = append(batch, Query{Vector: q, K: 20})
		}
	}
	nq := float64(len(batch))

	var errSeen bool
	seq := testing.AllocsPerRun(10, func() {
		for _, q := range batch {
			if _, err := ds.TopK(q.Vector, q.K); err != nil {
				errSeen = true
			}
		}
	}) / nq
	eng := testing.AllocsPerRun(10, func() {
		for _, res := range e.BatchTopK(batch) {
			if res.Err != nil {
				errSeen = true
			}
		}
	}) / nq
	if errSeen {
		t.Fatal("a query failed mid-measurement")
	}
	t.Logf("allocs/query: sequential TopK %.1f, engine BatchTopK %.1f", seq, eng)
	if eng > seq+2 {
		t.Fatalf("engine batch dispatch costs %.1f allocs/query, sequential loop %.1f — gap above 2", eng, seq)
	}
}

func vecEqual(a, b vec.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// snapshotResult deep-copies everything a topk.Result exposes, so later
// mutations of recycled scratch memory would be detectable.
type resultSnapshot struct {
	query   vec.Vector
	ids     []int64
	scores  []float64
	points  []vec.Vector
	tIDs    []int64
	tScores []float64
	heapKey []float64
	heapLo  []vec.Vector
	heapHi  []vec.Vector
}

func snapshotResult(res *topk.Result) *resultSnapshot {
	s := &resultSnapshot{query: res.Query.Clone()}
	for _, r := range res.Records {
		s.ids = append(s.ids, r.ID)
		s.scores = append(s.scores, r.Score)
		s.points = append(s.points, r.Point.Clone())
	}
	for _, r := range res.T {
		s.tIDs = append(s.tIDs, r.ID)
		s.tScores = append(s.tScores, r.Score)
	}
	if res.Heap == nil { // a records-only result retains no heap
		return s
	}
	for _, it := range *res.Heap {
		s.heapKey = append(s.heapKey, it.Key)
		s.heapLo = append(s.heapLo, it.Rect.Lo.Clone())
		s.heapHi = append(s.heapHi, it.Rect.Hi.Clone())
	}
	return s
}

func (s *resultSnapshot) verify(t *testing.T, res *topk.Result) {
	t.Helper()
	if !vecEqual(s.query, res.Query) {
		t.Fatal("result Query mutated by a later pooled BRS run")
	}
	for i, r := range res.Records {
		if r.ID != s.ids[i] || r.Score != s.scores[i] || !vecEqual(r.Point, s.points[i]) {
			t.Fatalf("result record %d mutated by a later pooled BRS run", i)
		}
	}
	for i, r := range res.T {
		if r.ID != s.tIDs[i] || r.Score != s.tScores[i] {
			t.Fatalf("non-result record %d mutated by a later pooled BRS run", i)
		}
	}
	if res.Heap == nil {
		return
	}
	for i, it := range *res.Heap {
		if it.Key != s.heapKey[i] || !vecEqual(it.Rect.Lo, s.heapLo[i]) || !vecEqual(it.Rect.Hi, s.heapHi[i]) {
			t.Fatalf("resumable heap item %d mutated by a later pooled BRS run", i)
		}
	}
}

// TestScratchPoolNoAliasing proves the ownership rule the scratch pool
// depends on: a returned Result (records, T, resumable heap, query) is
// fully owned — churning enough queries through the pool to recycle every
// scratch many times over must leave an earlier result bit-identical. A
// records-only result (query and records, no T or heap) owns its memory
// too.
func TestScratchPoolNoAliasing(t *testing.T) {
	pts, err := datagen.Generate(datagen.IND, 20000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	tree := rtree.BulkLoad(pager.NewMemStore(), 4, pts, nil)

	q0 := datagen.Query(4, 7)
	res := topk.BRS(tree, score.Linear{}, q0, 20)
	snap := snapshotResult(res)
	gs := topk.AcquireGroupScratch(tree)
	recs, _ := topk.RecordsGroup(gs, tree, score.Linear{}, []vec.Vector{datagen.Query(4, 8)}, []int{20})
	gs.Release()
	if recs[0].T != nil || recs[0].Heap != nil {
		t.Fatal("a records-only result retains T or a heap")
	}
	recSnap := snapshotResult(recs[0])

	for seed := int64(100); seed < 150; seed++ {
		q := datagen.Query(4, seed)
		topk.BRS(tree, score.Linear{}, q, 20)
		gs := topk.AcquireGroupScratch(tree)
		topk.RecordsGroup(gs, tree, score.Linear{}, []vec.Vector{q, q}, []int{20, 5})
		gs.Release()
	}
	snap.verify(t, res)
	recSnap.verify(t, recs[0])
}

// TestUncachedMissAllocBudget bounds a miss on an engine without a cache:
// it builds no region, so its traversal copies out only the query and the
// records (topk.RecordsGroup) — a small constant number of objects, and
// bytes that grow with k·d, not with the |T| records and the heap a
// region build would resume from (at k = 20, d = 4 a retaining traversal
// copies out about 64 KB, a records-only one about 3.3 KB).
//
// uncachedMissAllocBudget and uncachedMissFixedBytes are its budgets;
// alloc_race_test.go raises them as it does the others.
var (
	uncachedMissAllocBudget = 30.0
	uncachedMissFixedBytes  = 2048.0
)

func TestUncachedMissAllocBudget(t *testing.T) {
	const d = 4
	ds := allocDataset(t, 20000, d)
	e := NewEngine(ds, EngineOptions{Workers: 1, CacheCapacity: -1})
	defer e.Close()

	q := datagen.Query(d, 7)
	for _, k := range []int{20, 100} {
		var bad bool
		miss := func() {
			res := e.TopK(q, k)
			bad = bad || res.Err != nil || res.CacheHit || len(res.Records) != k
		}
		for i := 0; i < 8; i++ { // pools warm
			miss()
		}
		const runs = 200
		before := e.Stats().Computed
		allocs := testing.AllocsPerRun(runs, miss)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			miss()
		}
		runtime.ReadMemStats(&m1)
		bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
		if bad || e.Stats().Computed-before != 2*runs+1 {
			t.Fatalf("k=%d: not every call was a computed miss (bad=%v, computed %d of %d)", k, bad, e.Stats().Computed-before, 2*runs+1)
		}
		// What a miss hands back is the query and k records of d floats
		// each, in the traversal's result and in the engine's: about 28 B
		// per coordinate at d = 4, headers included. 64 B is room for
		// that, not for T.
		byteBudget := uncachedMissFixedBytes + 64*float64(k*d)
		t.Logf("k=%d: an uncached miss allocates %.1f objects, %.0f B (budgets %.0f, %.0f B)", k, allocs, bytes, uncachedMissAllocBudget, byteBudget)
		if allocs > uncachedMissAllocBudget {
			t.Fatalf("k=%d: an uncached miss allocated %.1f objects, budget %.0f", k, allocs, uncachedMissAllocBudget)
		}
		if bytes > byteBudget {
			t.Fatalf("k=%d: an uncached miss allocated %.0f B, budget %.0f B", k, bytes, byteBudget)
		}
	}
}

// TestFillScratchNoAliasing is the fill's half of the ownership rule:
// everything a cache entry keeps — region normals and query, records,
// rays — is copied out of the pooled Phase-2 scratch, so hundreds
// of later fills through the same pools, from one goroutine and from four,
// leave it bit-identical. The entry holds no candidate set and no subtree
// corners. Its one arm is the evicting engine, the only maintenance policy.
func TestFillScratchNoAliasing(t *testing.T) {
	t.Run("evict", testFillScratchNoAliasing)
}

func testFillScratchNoAliasing(t *testing.T) {
	ds := allocDataset(t, 20000, 4)
	e := NewEngine(ds, EngineOptions{Workers: 4})
	defer e.Close()

	q0 := datagen.Query(4, 7)
	if res := e.TopK(q0, 10); res.Err != nil {
		t.Fatal(res.Err)
	}
	entries := e.cache.inner.Entries()
	if len(entries) != 1 {
		t.Fatalf("%d entries after one fill", len(entries))
	}
	entry := entries[0]
	flatten := func() (floats []float64, ids []int64) {
		floats = append(floats, entry.Region.Query...)
		for _, c := range entry.Region.Constraints {
			floats = append(floats, c.Normal...)
			ids = append(ids, c.A, c.B)
		}
		for _, r := range entry.Records {
			floats = append(append(floats, r.Point...), r.Score)
			ids = append(ids, r.ID)
		}
		return append(floats, entry.Rays...), ids
	}
	wantF, wantI := flatten()
	if len(entry.Region.Constraints) == 0 {
		t.Fatal("entry too bare to test: no constraints")
	}
	if entry.Cand != nil || entry.Bounds != nil || entry.CandComplete() {
		t.Fatalf("the entry holds %d candidates and %d bounds (complete %v)", len(entry.Cand), len(entry.Bounds), entry.CandComplete())
	}

	check := func(after string) {
		t.Helper()
		gotF, gotI := flatten()
		if !vecEqual(gotF, wantF) || len(gotI) != len(wantI) {
			t.Fatalf("cache entry changed %s", after)
		}
		for i := range gotI {
			if gotI[i] != wantI[i] {
				t.Fatalf("cache entry ids changed %s", after)
			}
		}
	}
	fills := func(from, n int64) {
		for s := from; s < from+n; s++ {
			if res := e.TopK(datagen.Query(4, s), 5+int(s%16)); res.Err != nil {
				t.Error(res.Err)
			}
		}
	}
	fills(1000, 200)
	check("after 200 fills on one goroutine")
	var wg sync.WaitGroup
	for g := int64(0); g < 4; g++ {
		wg.Add(1)
		go func(g int64) {
			defer wg.Done()
			fills(2000+50*g, 50)
		}(g)
	}
	wg.Wait()
	check("after 200 fills on four goroutines")
}

// TestTopKBufDoesNotAliasCache checks the engine-level half of the rule:
// rescoring a hit into a caller buffer, then reusing that buffer for other
// queries, must not disturb the cached entry other callers are served from.
func TestTopKBufDoesNotAliasCache(t *testing.T) {
	ds := allocDataset(t, 2000, 3)
	e := NewEngine(ds, EngineOptions{Workers: 1, CacheCapacity: 8})
	defer e.Close()

	q := []float64{0.6, 0.3, 0.1}
	const k = 10
	if res := e.TopK(q, k); res.Err != nil {
		t.Fatal(res.Err)
	}
	dst := make([]Record, k)
	first := e.TopKBuf(dst, q, k)
	if first.Err != nil || !first.CacheHit {
		t.Fatalf("expected warm hit (err=%v, hit=%v)", first.Err, first.CacheHit)
	}
	ids := make([]int64, k)
	scores := make([]float64, k)
	for i, r := range first.Records {
		ids[i] = r.ID
		scores[i] = r.Score
	}
	// Scribble over the caller buffer and serve other queries through it.
	for i := range dst {
		dst[i] = Record{ID: -1, Score: -1}
	}
	e.TopKBuf(dst, []float64{0.1, 0.2, 0.7}, k)
	e.TopKBuf(dst, []float64{0.3, 0.3, 0.4}, k)

	again := e.TopKBuf(make([]Record, k), q, k)
	if again.Err != nil || !again.CacheHit {
		t.Fatalf("expected warm hit (err=%v, hit=%v)", again.Err, again.CacheHit)
	}
	for i, r := range again.Records {
		if r.ID != ids[i] || r.Score != scores[i] {
			t.Fatalf("rank %d: cached entry perturbed through the caller buffer (got id=%d score=%v, want id=%d score=%v)",
				i, r.ID, r.Score, ids[i], scores[i])
		}
	}
}

// TestSharedResultsDoNotAliasRecords: results that share one computation
// (here an in-batch repeat) each own their record slice, so reusing one as
// a TopKBuf buffer leaves the other untouched.
func TestSharedResultsDoNotAliasRecords(t *testing.T) {
	ds := allocDataset(t, 2000, 3)
	e := NewEngine(ds, EngineOptions{Workers: 1, CacheCapacity: 8})
	defer e.Close()

	q, other := []float64{0.6, 0.3, 0.1}, []float64{0.1, 0.2, 0.7}
	const k = 10
	if res := e.TopK(other, k); res.Err != nil {
		t.Fatal(res.Err)
	}
	out := e.BatchTopK([]Query{{Vector: q, K: k}, {Vector: q, K: k}})
	if out[0].Err != nil || out[1].Err != nil || !out[1].Shared {
		t.Fatalf("want a computed owner and a shared repeat (err=%v/%v, shared=%v)", out[0].Err, out[1].Err, out[1].Shared)
	}
	if &out[0].Records[0] == &out[1].Records[0] {
		t.Fatal("the owner and its repeat share one record slice")
	}
	want := slices.Clone(out[1].Records)
	if hit := e.TopKBuf(out[0].Records, other, k); hit.Err != nil || !hit.CacheHit {
		t.Fatalf("expected warm hit (err=%v, hit=%v)", hit.Err, hit.CacheHit)
	}
	for i, r := range out[1].Records {
		if r.ID != want[i].ID || r.Score != want[i].Score {
			t.Fatalf("rank %d: reusing the owner's records as a buffer rewrote the repeat's (id %d, want %d)", i, r.ID, want[i].ID)
		}
	}
}

// warmCache fills a cache outside any engine with FP regions of the
// 20 000-record, d = 4 dataset, through the engine's own fill path: the
// fixture of the drain gate and the maintenance microbenchmark.
func warmCache(tb testing.TB, entries, k int) (*Cache, []*cache.Entry) {
	tb.Helper()
	ds := allocDataset(tb, 20000, 4)
	c := newCache(2 * entries)
	for i := 0; i < entries; i++ {
		fillEntry(tb, ds, datagen.Query(4, int64(900+i)), k, c)
	}
	return c, c.inner.Entries()
}

// drainAllocBudget is TestDrainAllocBudget's budget: what a drain pass
// measures (13 objects) × 2. alloc_race_test.go raises it to the race
// build's own measurement × 2 — the gate holds there too, at the number
// that build reads.
var drainAllocBudget = 26.0

// TestDrainAllocBudget bounds one drain pass over a warm cache of 16
// entries: one delete of a cached result record, which evicts every entry
// holding it, and eight uniform inserts, each classified against every
// entry. The classifier reads the entry's rays and allocates nothing, so
// what a pass allocates is the set of condemned entries and the view it
// publishes without them.
func TestDrainAllocBudget(t *testing.T) {
	c, entries := warmCache(t, 16, 10)
	const runs = 8
	var victims []int64
	for _, e := range entries[:runs+1] {
		victims = append(victims, e.Records[len(e.Records)/2].ID)
	}
	r := rand.New(rand.NewSource(5))
	nextID, version := int64(1<<40), int64(0)
	pass, evicted := 0, 0
	allocs := testing.AllocsPerRun(runs, func() {
		version++
		batch := []maintain.Mutation{{Version: version, ID: victims[pass]}}
		for i := 0; i < 8; i++ {
			version++
			batch = append(batch, maintain.Mutation{Version: version, Insert: true, ID: nextID, Point: []float64{r.Float64(), r.Float64(), r.Float64(), r.Float64()}})
			nextID++
		}
		evicted += drain(c, batch).Evicted
		pass++
	})
	if evicted < pass {
		t.Fatalf("%d passes evicted %d entries: the gate is not measuring an eviction", pass, evicted)
	}
	if allocs > drainAllocBudget {
		t.Fatalf("a drain pass allocated %.1f objects, budget %.0f", allocs, drainAllocBudget)
	}
	t.Logf("a drain pass allocates %.1f objects (budget %.0f; %d passes, %d evicted)", allocs, drainAllocBudget, pass, evicted)
}
