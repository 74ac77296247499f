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
// the FP region, the inscribed box, the put and an eviction. Phase 2 runs
// in pooled scratch (star, page block, raw constraints, the reduction's
// programs), so what a fill allocates is what outlives it: the result,
// the region's slab, the entry and its repair state — a few dozen
// objects, where the one-object-per-facet, per-constraint and per-program
// build took thousands.
//
// fillAllocBudget is its budget; alloc_race_test.go raises it to the race
// build's own measurement × 2, as it does for drainAllocBudget.
var fillAllocBudget = 100.0

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
	if errSeen || hitSeen || e.Stats().Computed-before != runs+1 {
		t.Fatalf("not every call was a fill (err=%v, hit=%v, computed %d of %d)", errSeen, hitSeen, e.Stats().Computed-before, runs+1)
	}
	// datagen.Query allocates the vector: one object that is the test's.
	if allocs-1 > fillAllocBudget {
		t.Fatalf("a cache fill allocated %.1f objects, budget %.0f", allocs-1, fillAllocBudget)
	}
	t.Logf("a cache fill allocates %.1f objects (budget %.0f)", allocs-1, fillAllocBudget)
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
	for i, it := range *res.Heap {
		if it.Key != s.heapKey[i] || !vecEqual(it.Rect.Lo, s.heapLo[i]) || !vecEqual(it.Rect.Hi, s.heapHi[i]) {
			t.Fatalf("resumable heap item %d mutated by a later pooled BRS run", i)
		}
	}
}

// TestScratchPoolNoAliasing proves the ownership rule the scratch pool
// depends on: a returned Result (records, T, resumable heap, query) is
// fully owned — churning enough queries through the pool to recycle every
// scratch many times over must leave an earlier result bit-identical.
func TestScratchPoolNoAliasing(t *testing.T) {
	pts, err := datagen.Generate(datagen.IND, 20000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	tree := rtree.BulkLoad(pager.NewMemStore(), 4, pts, nil)

	q0 := datagen.Query(4, 7)
	res := topk.BRS(tree, score.Linear{}, q0, 20)
	snap := snapshotResult(res)

	for seed := int64(100); seed < 150; seed++ {
		topk.BRS(tree, score.Linear{}, datagen.Query(4, seed), 20)
	}
	snap.verify(t, res)
}

// TestFillScratchNoAliasing is the fill's half of the ownership rule:
// everything a cache entry keeps — region normals and query, records,
// candidates, unexpanded-subtree bounds, inscribed box — is copied out of
// the pooled Phase-2 scratch, so hundreds of later fills through the same
// pools, from one goroutine and from four, leave it bit-identical.
func TestFillScratchNoAliasing(t *testing.T) {
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
		for _, recs := range [][]topk.Record{entry.Records, entry.Cand} {
			for _, r := range recs {
				floats = append(append(floats, r.Point...), r.Score)
				ids = append(ids, r.ID)
			}
		}
		for _, b := range entry.Bounds {
			floats = append(floats, b...)
		}
		return append(append(floats, entry.InnerLo...), entry.InnerHi...), ids
	}
	wantF, wantI := flatten()
	if len(entry.Region.Constraints) == 0 || len(entry.Cand) == 0 || len(entry.Bounds) == 0 {
		t.Fatalf("entry too bare to test: %d constraints, %d candidates, %d bounds", len(entry.Region.Constraints), len(entry.Cand), len(entry.Bounds))
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

// warmRepairCache fills a cache outside any engine with FP regions of the
// 20 000-record, d = 4 dataset, through the engine's own fill path —
// entries carrying the repair state (candidates, unexpanded-subtree
// corners) a real fill retains: the fixture of the drain gate and the
// maintenance microbenchmarks.
func warmRepairCache(tb testing.TB, entries, k int) (*Cache, []*cache.Entry) {
	tb.Helper()
	ds := allocDataset(tb, 20000, 4)
	c := newCache(2 * entries)
	for i := 0; i < entries; i++ {
		fillEntry(tb, ds, datagen.Query(4, int64(900+i)), k, c)
	}
	return c, c.inner.Entries()
}

// drainAllocBudget is TestDrainAllocBudget's budget: what a drain pass
// measures × 2. alloc_race_test.go raises it to the race build's own
// measurement × 2 — the gate holds there too, at the number that build reads.
var drainAllocBudget = 90.0

// TestDrainAllocBudget bounds one drain pass over a warm cache of 16
// entries: one delete of a cached result record — every entry holding it
// is repaired by promotion, several hundred candidate half-spaces handed
// to Region.Shrink — and eight uniform inserts, each classified against
// every entry. The pass works in pooled scratch (the added normals' slab,
// the classifier's vectors and LP rows, the reduction's programs), so what
// it allocates is what outlives it: a repaired entry's region slab,
// records, candidates and inscribed box (45 objects; 1 428 before the
// maintenance path was pooled).
func TestDrainAllocBudget(t *testing.T) {
	c, entries := warmRepairCache(t, 16, 10)
	const runs = 8
	var victims []int64
	for _, e := range entries[:runs+1] {
		victims = append(victims, e.Records[len(e.Records)/2].ID)
	}
	r := rand.New(rand.NewSource(5))
	nextID := int64(1 << 40)
	pass, repaired, affected := 0, 0, 0
	allocs := testing.AllocsPerRun(runs, func() {
		batch := []maintain.Mutation{{ID: victims[pass]}}
		for i := 0; i < 8; i++ {
			batch = append(batch, maintain.Mutation{Insert: true, ID: nextID, Point: []float64{r.Float64(), r.Float64(), r.Float64(), r.Float64()}})
			nextID++
		}
		st := drain(c, batch)
		repaired, affected = repaired+st.Repaired, affected+st.Affected
		pass++
	})
	if repaired < pass {
		t.Fatalf("%d passes repaired %d entries (%d affected): the gate is not measuring delete repair", pass, repaired, affected)
	}
	if allocs > drainAllocBudget {
		t.Fatalf("a drain pass allocated %.1f objects, budget %.0f", allocs, drainAllocBudget)
	}
	t.Logf("a drain pass allocates %.1f objects (budget %.0f; %d passes, %d affect events, %d repaired)", allocs, drainAllocBudget, pass, affected, repaired)
}
