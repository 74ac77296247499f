package gir_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	gir "github.com/girlib/gir"
	engineint "github.com/girlib/gir/internal/engine"
)

// engineDataset builds a small dataset shared by the engine tests.
func engineDataset(t testing.TB, seed int64, n, d int) *gir.Dataset {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	ds, err := gir.NewDataset(randomPoints(r, n, d))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// engineWorkload draws a Zipf-skewed workload with jitter, so it contains
// exact repeats (cache hits + single-flight candidates), near-duplicates
// (region hits), and singletons (misses).
func engineWorkload(n int) []gir.Query {
	st := engineint.NewStreamIn(99, 3, 25, 1.3, 3, 12, 0.004, false)
	qs, ks := st.Draw(n)
	out := make([]gir.Query, n)
	for i := range out {
		out[i] = gir.Query{Vector: qs[i], K: ks[i]}
	}
	return out
}

// requireIdentical asserts an engine result is byte-identical to the
// sequential TopK answer: same ids, same attribute values, bit-equal
// scores.
func requireIdentical(t *testing.T, ds *gir.Dataset, q gir.Query, got gir.EngineResult) {
	t.Helper()
	if got.Err != nil {
		t.Fatalf("engine error: %v", got.Err)
	}
	want, err := ds.TopK(q.Vector, q.K)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("%d records, want %d", len(got.Records), len(want.Records))
	}
	for i := range want.Records {
		g, w := got.Records[i], want.Records[i]
		if g.ID != w.ID {
			t.Fatalf("rank %d: id %d, want %d", i, g.ID, w.ID)
		}
		if g.Score != w.Score {
			t.Fatalf("rank %d: score %x, want %x (not bit-identical)", i, g.Score, w.Score)
		}
		if len(g.Attrs) != len(w.Attrs) {
			t.Fatalf("rank %d: attrs length", i)
		}
		for j := range w.Attrs {
			if g.Attrs[j] != w.Attrs[j] {
				t.Fatalf("rank %d attr %d: %v != %v", i, j, g.Attrs[j], w.Attrs[j])
			}
		}
	}
}

func TestBatchTopKMatchesSequential(t *testing.T) {
	ds := engineDataset(t, 1, 2500, 3)
	e := gir.NewEngine(ds, gir.EngineOptions{Workers: 8, CacheCapacity: 64})
	defer e.Close()
	queries := engineWorkload(150)

	// Two passes: the first mixes misses, dedups and hits; the second is
	// hit-dominated. Both must be byte-identical to sequential TopK.
	for pass := 0; pass < 2; pass++ {
		results := e.BatchTopK(queries)
		if len(results) != len(queries) {
			t.Fatalf("pass %d: %d results", pass, len(results))
		}
		for i, res := range results {
			requireIdentical(t, ds, queries[i], res)
		}
	}
	st := e.Stats()
	if st.Computed == 0 {
		t.Error("nothing computed")
	}
	if st.CacheHits == 0 {
		t.Error("no cache hits in a Zipf workload with repeats")
	}
	total := st.CacheHits + st.PartialHits + st.Misses
	if total == 0 {
		t.Error("cache lookups not counted")
	}
}

func TestBatchTopKWithoutCache(t *testing.T) {
	ds := engineDataset(t, 2, 1500, 3)
	e := gir.NewEngine(ds, gir.EngineOptions{CacheCapacity: -1})
	defer e.Close()
	if e.Cache() != nil {
		t.Fatal("cache not disabled")
	}
	queries := engineWorkload(40)
	for i, res := range e.BatchTopK(queries) {
		if res.CacheHit {
			t.Fatal("cache hit with caching disabled")
		}
		requireIdentical(t, ds, queries[i], res)
	}
}

// TestFillCachesComputeGIRRegion: a cold batch serves every query exactly
// as Dataset.TopK does, and every region its fills cached is the one
// ComputeGIR builds for that result with the engine's method (FP) —
// constraint for constraint, attributions and normal bits.
func TestFillCachesComputeGIRRegion(t *testing.T) {
	ds := engineDataset(t, 3, 2000, 3)
	e := gir.NewEngine(ds, gir.EngineOptions{Workers: 6, CacheCapacity: 32})
	defer e.Close()
	queries := engineWorkload(30)
	// Include an exact duplicate pair to exercise sharing.
	queries = append(queries, queries[0])

	kOf := map[string]int{}
	for i, res := range e.BatchTopK(queries) {
		requireIdentical(t, ds, queries[i], res)
		key := fmt.Sprint(queries[i].Vector)
		if k, ok := kOf[key]; ok && k != queries[i].K {
			t.Fatalf("query %d: one vector asked with k = %d and %d", i, k, queries[i].K)
		}
		kOf[key] = queries[i].K
	}
	regions := e.CachedGIRs()
	if len(regions) == 0 {
		t.Fatal("the batch's fills cached nothing")
	}
	for ri, g := range regions {
		k, ok := kOf[fmt.Sprint(g.Query())]
		if !ok {
			t.Fatalf("region %d: cached at %v, which no query asked", ri, g.Query())
		}
		seq, err := ds.TopK(g.Query(), k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ds.ComputeGIR(seq, gir.FP)
		if err != nil {
			t.Fatal(err)
		}
		if msg := sameConstraints(g, want); msg != "" {
			t.Fatalf("region %d: %s", ri, msg)
		}
	}
	t.Logf("%d cached regions match ComputeGIR", len(regions))
}

// TestCacheMethodIsInert: EngineOptions.CacheMethod is ignored, and every
// fill builds its region with FP. An engine asked for SP caches what a
// zero-value engine caches over the same stream — the same regions, bit
// for bit, which TestFillCachesComputeGIRRegion holds to ComputeGIR with
// FP — and its fills read the same pages, where SP would read the
// skyline's.
func TestCacheMethodIsInert(t *testing.T) {
	queries := engineWorkload(30)
	var regions [2][]*gir.GIR
	var reads [2]int64
	for i, m := range []gir.Method{0, gir.SP} {
		ds := engineDataset(t, 5, 2000, 3)
		e := gir.NewEngine(ds, gir.EngineOptions{Workers: 1, CacheCapacity: 64, CacheMethod: m})
		before := ds.IOStats().PageReads
		for _, q := range queries {
			requireIdentical(t, ds, q, e.TopK(q.Vector, q.K))
		}
		reads[i] = ds.IOStats().PageReads - before
		regions[i] = e.CachedGIRs()
		sort.Slice(regions[i], func(a, b int) bool {
			return fmt.Sprint(regions[i][a].Query()) < fmt.Sprint(regions[i][b].Query())
		})
		e.Close()
	}
	if reads[0] != reads[1] || len(regions[0]) != len(regions[1]) || len(regions[0]) == 0 {
		t.Fatalf("the SP-option engine read %d pages and cached %d regions, the zero-value one %d and %d", reads[1], len(regions[1]), reads[0], len(regions[0]))
	}
	for ri, g := range regions[1] {
		if !slices.Equal(g.Query(), regions[0][ri].Query()) {
			t.Fatalf("region %d: cached at %v, the zero-value engine's at %v", ri, g.Query(), regions[0][ri].Query())
		}
		if msg := sameConstraints(g, regions[0][ri]); msg != "" {
			t.Fatalf("region %d at %v: %s", ri, g.Query(), msg)
		}
	}
}

// sameConstraints compares two regions constraint for constraint,
// attributions and normal bits, and says how they differ.
func sameConstraints(got, want *gir.GIR) string {
	gc, wc := got.Constraints(), want.Constraints()
	if len(gc) != len(wc) {
		return fmt.Sprintf("%d constraints, want %d", len(gc), len(wc))
	}
	for ci := range wc {
		if gc[ci].Kind != wc[ci].Kind || gc[ci].A != wc[ci].A || gc[ci].B != wc[ci].B {
			return fmt.Sprintf("constraint %d: attribution differs", ci)
		}
		for j := range wc[ci].Normal {
			if math.Float64bits(gc[ci].Normal[j]) != math.Float64bits(wc[ci].Normal[j]) {
				return fmt.Sprintf("constraint %d: normal not bit-identical", ci)
			}
		}
	}
	return ""
}

func TestEngineInvalidQueriesDoNotPoisonBatch(t *testing.T) {
	ds := engineDataset(t, 4, 800, 3)
	e := gir.NewEngine(ds, gir.EngineOptions{})
	defer e.Close()
	queries := []gir.Query{
		{Vector: []float64{0.5, 0.5, 0.5}, K: 5},
		{Vector: []float64{0.5, 0.5}, K: 5},            // bad dimension
		{Vector: []float64{0.5, -0.1, 0.5}, K: 5},      // negative weight
		{Vector: []float64{0.5, 0.5, 0.5}, K: 0},       // bad k
		{Vector: []float64{0.5, 0.5, 0.5}, K: 1000000}, // k > n
		{Vector: []float64{0.4, 0.3, 0.6}, K: 3},
	}
	results := e.BatchTopK(queries)
	for _, i := range []int{1, 2, 3, 4} {
		if results[i].Err == nil {
			t.Errorf("query %d: invalid input accepted", i)
		}
		if results[i].Records != nil {
			t.Errorf("query %d: records despite error", i)
		}
	}
	for _, i := range []int{0, 5} {
		requireIdentical(t, ds, queries[i], results[i])
	}
}

// TestEngineConcurrentSharedUse hammers one engine from many goroutines
// issuing overlapping batches — the -race stress for the whole serving
// stack (pager, rtree traversal, cache, single-flight).
func TestEngineConcurrentSharedUse(t *testing.T) {
	ds := engineDataset(t, 5, 2000, 3)
	e := gir.NewEngine(ds, gir.EngineOptions{Workers: 4, CacheCapacity: 16})
	defer e.Close()
	queries := engineWorkload(60)

	// Ground truth computed sequentially up front.
	type answer struct {
		ids    []int64
		scores []float64
	}
	truth := make([]answer, len(queries))
	for i, q := range queries {
		res, err := ds.TopK(q.Vector, q.K)
		if err != nil {
			t.Fatal(err)
		}
		a := answer{}
		for _, r := range res.Records {
			a.ids = append(a.ids, r.ID)
			a.scores = append(a.scores, r.Score)
		}
		truth[i] = a
	}

	var wg sync.WaitGroup
	var served atomic.Int64
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for round := 0; round < 5; round++ {
				// Each round serves a random slice of the workload.
				lo := r.Intn(len(queries) / 2)
				hi := lo + 1 + r.Intn(len(queries)-lo-1)
				results := e.BatchTopK(queries[lo:hi])
				for i, res := range results {
					if res.Err != nil {
						t.Errorf("worker query error: %v", res.Err)
						return
					}
					want := truth[lo+i]
					if len(res.Records) != len(want.ids) {
						t.Errorf("wrong record count")
						return
					}
					for j := range want.ids {
						if res.Records[j].ID != want.ids[j] || res.Records[j].Score != want.scores[j] {
							t.Errorf("result diverged from sequential truth")
							return
						}
					}
					served.Add(1)
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()

	st := e.Stats()
	if st.Computed == 0 || served.Load() == 0 {
		t.Fatalf("nothing served (computed=%d served=%d)", st.Computed, served.Load())
	}
	t.Logf("served=%d computed=%d hits=%d partial=%d misses=%d deduped=%d",
		served.Load(), st.Computed, st.CacheHits, st.PartialHits, st.Misses, st.Deduped)
}

// TestEngineMutationInvalidatesCache pins the staleness guarantee: after
// an Insert that changes a query's true result, the engine must serve the
// fresh result, never the cached pre-mutation one.
func TestEngineMutationInvalidatesCache(t *testing.T) {
	ds := engineDataset(t, 9, 1000, 3)
	e := gir.NewEngine(ds, gir.EngineOptions{CacheCapacity: 32})
	defer e.Close()
	q := gir.Query{Vector: []float64{0.5, 0.6, 0.4}, K: 5}

	first := e.TopK(q.Vector, q.K)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	again := e.TopK(q.Vector, q.K)
	if !again.CacheHit {
		t.Fatal("second identical query did not hit the cache")
	}

	// A record near the corner outscores everything for any nonnegative q.
	const newID = 1 << 40
	if err := ds.Insert(newID, []float64{0.999, 0.999, 0.999}); err != nil {
		t.Fatal(err)
	}
	after := e.TopK(q.Vector, q.K)
	if after.Err != nil {
		t.Fatal(after.Err)
	}
	if after.CacheHit {
		t.Fatal("served from cache across a mutation")
	}
	if after.Records[0].ID != newID {
		t.Fatalf("top record is %d, want the inserted %d", after.Records[0].ID, newID)
	}
	requireIdentical(t, ds, q, after)

	// Delete restores the old result; the cache must have been refilled
	// for the post-insert state and flush again.
	if ok, err := ds.Delete(newID, []float64{0.999, 0.999, 0.999}); err != nil || !ok {
		t.Fatalf("delete failed: %v, %v", ok, err)
	}
	final := e.TopK(q.Vector, q.K)
	if final.Err != nil {
		t.Fatal(final.Err)
	}
	requireIdentical(t, ds, q, final)
}

// TestEngineQueriesRaceMutations hammers queries against concurrent
// Insert/Delete — the -race witness that the read path and the exclusive
// mutation path compose.
func TestEngineQueriesRaceMutations(t *testing.T) {
	ds := engineDataset(t, 10, 1500, 3)
	e := gir.NewEngine(ds, gir.EngineOptions{Workers: 4, CacheCapacity: 16})
	defer e.Close()
	queries := engineWorkload(30)

	stop := make(chan struct{})
	var mutator, queriers sync.WaitGroup
	mutator.Add(1)
	go func() {
		defer mutator.Done()
		id := int64(1 << 41)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p := []float64{0.9, 0.1 + float64(i%8)/10, 0.5}
			if err := ds.Insert(id, p); err != nil {
				t.Error(err)
				return
			}
			if ok, err := ds.Delete(id, p); err != nil || !ok {
				t.Error("lost the record just inserted")
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		queriers.Add(1)
		go func(seed int64) {
			defer queriers.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 60; i++ {
				q := queries[r.Intn(len(queries))]
				res := e.TopK(q.Vector, q.K)
				if res.Err != nil {
					t.Errorf("query error under mutation: %v", res.Err)
					return
				}
				if len(res.Records) != q.K {
					t.Errorf("%d records, want %d", len(res.Records), q.K)
					return
				}
			}
		}(int64(g + 50))
	}
	queriers.Wait()
	close(stop)
	mutator.Wait()
}

// BenchmarkEngineServing measures serving throughput under RunParallel:
// cached engine vs the compute-everything baseline. Run with -cpu to see
// the cached path scale (hits take no exclusive lock anywhere).
func BenchmarkEngineServing(b *testing.B) {
	ds := engineDataset(b, 7, 20000, 3)
	queries := engineWorkload(256)
	for _, cfg := range []struct {
		name     string
		capacity int
	}{
		{"cached", 512},
		{"no-cache", -1},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			e := gir.NewEngine(ds, gir.EngineOptions{CacheCapacity: cfg.capacity})
			defer e.Close()
			// Warm: first pass pays every GIR build outside the timer.
			e.BatchTopK(queries)
			var next atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					q := queries[int(next.Add(1))%len(queries)]
					if res := e.TopK(q.Vector, q.K); res.Err != nil {
						b.Error(res.Err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkBatchTopK measures whole-batch latency at several worker
// counts.
func BenchmarkBatchTopK(b *testing.B) {
	ds := engineDataset(b, 8, 20000, 3)
	queries := engineWorkload(64)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e := gir.NewEngine(ds, gir.EngineOptions{Workers: workers, CacheCapacity: -1})
			defer e.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.BatchTopK(queries)
			}
		})
	}
}

// TestCacheProbesPerHitAfterReorder reads the entries probed per hit from
// EngineStats: with the one hot query's entry cached last, a hit tests
// every entry before it, and once the cache has reordered its view by hits
// served, a hit tests exactly one.
func TestCacheProbesPerHitAfterReorder(t *testing.T) {
	ds := engineDataset(t, 12, 2000, 3)
	e := gir.NewEngine(ds, gir.EngineOptions{Workers: 1, CacheCapacity: 8})
	defer e.Close()
	cold := [][]float64{{0.9, 0.1, 0.1}, {0.1, 0.9, 0.1}, {0.1, 0.1, 0.9}, {0.9, 0.9, 0.1}}
	hot := []float64{0.2, 0.5, 0.8}
	for _, q := range append(cold, hot) {
		if res := e.TopK(q, 10); res.Err != nil || res.CacheHit {
			t.Fatalf("fill of %v: err=%v hit=%v", q, res.Err, res.CacheHit)
		}
	}
	perHit := func(hits int) float64 {
		t.Helper()
		before := e.Stats()
		for i := 0; i < hits; i++ {
			if res := e.TopK(hot, 10); !res.CacheHit {
				t.Fatal("hot query missed")
			}
		}
		after := e.Stats()
		return float64(after.CacheProbes-before.CacheProbes) / float64(after.CacheHits-before.CacheHits)
	}
	if got := perHit(1); got != float64(len(cold)+1) {
		t.Fatalf("before a reorder a hit probed %.1f entries, want %d", got, len(cold)+1)
	}
	perHit(64 * (len(cold) + 1)) // crosses the reorder threshold
	if got := perHit(100); got != 1 {
		t.Fatalf("after a reorder a hit probed %.2f entries, want 1", got)
	}
}
