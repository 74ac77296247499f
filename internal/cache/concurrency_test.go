package cache

import (
	"cmp"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/girlib/gir/internal/gir"
	"github.com/girlib/gir/internal/pager"
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

// fixture is one (query, GIR, records) triple over a shared tree, with the
// fresh top-maxK result to validate served prefixes against.
type fixture struct {
	q        vec.Vector
	reg      *gir.Region
	recs     []topk.Record
	expected []int64 // brute force's top-maxK ids, ground truth for prefixes
}

// bruteTopK scores every point and returns the ids of the best k, by score
// descending and then id ascending.
func bruteTopK(pts []vec.Vector, q vec.Vector, k int) []int64 {
	ids := make([]int64, len(pts))
	for i := range ids {
		ids[i] = int64(i)
	}
	slices.SortFunc(ids, func(a, b int64) int {
		if c := cmp.Compare(vec.Dot(q, pts[b]), vec.Dot(q, pts[a])); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return ids[:k]
}

// buildFixtures computes GIRs for several queries over one dataset. All
// regions belong to the same dataset, so whenever ANY cached region
// contains a probe vector, the cached records are exactly the probe's own
// top-|entry.K| — which is what the prefix assertions below rely on.
func buildFixtures(t testing.TB, nfix, maxK int) []fixture {
	t.Helper()
	const n, d = 400, 3
	r := rand.New(rand.NewSource(42))
	pts := make([]vec.Vector, n)
	for i := range pts {
		pts[i] = make(vec.Vector, d)
		for j := range pts[i] {
			pts[i][j] = r.Float64()
		}
	}
	tree := rtree.BulkLoad(pager.NewMemStore(), d, pts, nil)
	ks := []int{6, 10, 14}
	out := make([]fixture, 0, nfix)
	for i := 0; i < nfix; i++ {
		q := make(vec.Vector, d)
		for j := range q {
			q[j] = 0.2 + 0.7*r.Float64()
		}
		k := ks[i%len(ks)]
		res := topk.BRS(tree, score.Linear{}, q, k)
		recs := res.Records
		reg, _, err := gir.Compute(tree, res, gir.Options{Method: gir.FP})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fixture{q: q, reg: reg, recs: recs, expected: bruteTopK(pts, q, maxK)})
	}
	return out
}

// TestConcurrentMixedK hammers Lookup and Put from many goroutines with k
// smaller, equal and larger than the cached K, asserting under -race that
// every served prefix is exact and the hit/partial/miss counters add up.
func TestConcurrentMixedK(t *testing.T) {
	const (
		nfix    = 12
		maxK    = 20
		workers = 8
		iters   = 400
	)
	fixtures := buildFixtures(t, nfix, maxK)
	c := New(8) // smaller than nfix: eviction runs concurrently too

	var lookups, servedHits atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				f := &fixtures[r.Intn(len(fixtures))]
				if r.Intn(4) == 0 {
					if !c.Put(f.reg, f.recs) {
						t.Error("Put of an order-sensitive region failed")
						return
					}
					continue
				}
				// k below, at, and above every fixture K in the pool.
				k := 3 + r.Intn(maxK-3)
				lookups.Add(1)
				e, ok := c.Lookup(f.q, k)
				if !ok {
					continue
				}
				servedHits.Add(1)
				if e.K != len(e.Records) {
					t.Errorf("entry K=%d but %d records", e.K, len(e.Records))
					return
				}
				// Prefix exactness: the served min(k, K) records must be
				// exactly the probe's own top records, in order.
				limit := k
				if limit > e.K {
					limit = e.K
				}
				for j := 0; j < limit; j++ {
					if e.Records[j].ID != f.expected[j] {
						t.Errorf("rank %d: served %d, want %d", j, e.Records[j].ID, f.expected[j])
						return
					}
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()

	hits, partial, misses := c.Stats()
	if hits+partial+misses != lookups.Load() {
		t.Errorf("counters inconsistent: hits=%d partial=%d misses=%d, lookups=%d",
			hits, partial, misses, lookups.Load())
	}
	if hits+partial != servedHits.Load() {
		t.Errorf("hit counters %d+%d disagree with served entries %d", hits, partial, servedHits.Load())
	}
	if c.Len() > 8 {
		t.Errorf("Len=%d exceeds capacity 8", c.Len())
	}
	if c.Len() == 0 {
		t.Error("cache empty after concurrent puts")
	}
}

// TestConcurrentCapacityNeverExceededForLong verifies that under sustained
// concurrent Puts the size bound holds once the dust settles.
func TestConcurrentCapacityNeverExceededForLong(t *testing.T) {
	fixtures := buildFixtures(t, 6, 10)
	c := New(3)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				f := &fixtures[r.Intn(len(fixtures))]
				c.Put(f.reg, f.recs)
			}
		}(int64(w + 100))
	}
	wg.Wait()
	if got := c.Len(); got > 3 {
		t.Errorf("Len=%d after settling, want ≤ capacity 3", got)
	}
}

// oneQueryFixture returns a query over a fixed dataset and a function that
// caches its top-k with its GIR, so one query can be cached at several k.
func oneQueryFixture(t *testing.T) (vec.Vector, func(c *Cache, k int) *Entry) {
	const n, d = 400, 3
	r := rand.New(rand.NewSource(5))
	pts := make([]vec.Vector, n)
	for i := range pts {
		pts[i] = make(vec.Vector, d)
		for j := range pts[i] {
			pts[i][j] = r.Float64()
		}
	}
	tree := rtree.BulkLoad(pager.NewMemStore(), d, pts, nil)
	q := vec.Vector{0.5, 0.6, 0.4}
	return q, func(c *Cache, k int) *Entry {
		res := topk.BRS(tree, score.Linear{}, q, k)
		recs := res.Records
		reg, _, err := gir.Compute(tree, res, gir.Options{Method: gir.FP})
		if err != nil {
			t.Fatal(err)
		}
		if !c.Put(reg, recs) {
			t.Fatal("Put failed")
		}
		view := c.load()
		return view[len(view)-1]
	}
}

// TestCoveringEntryPreferred pins the k-preference in Lookup: when the
// same query is cached at several k, a request must be served by an
// entry that covers it (exact hit), not shadowed into a partial by a
// smaller entry that merely comes first in scan order.
func TestCoveringEntryPreferred(t *testing.T) {
	q, put := oneQueryFixture(t)
	c := New(8)
	put(c, 5)  // the small entry lands first
	put(c, 10) // the covering entry second

	e, ok := c.Lookup(q, 10)
	if !ok {
		t.Fatal("missed")
	}
	if e.K != 10 {
		t.Fatalf("k=10 lookup served by K=%d entry (shadowed by the smaller one)", e.K)
	}
	hits, partial, _ := c.Stats()
	if hits != 1 || partial != 0 {
		t.Fatalf("hits=%d partial=%d; covering entry must be an exact hit", hits, partial)
	}
	// Above every cached K: the largest prefix must be chosen.
	e, ok = c.Lookup(q, 14)
	if !ok || e.K != 10 {
		t.Fatalf("k=14 lookup: entry K=%v ok=%v, want best prefix K=10", e.K, ok)
	}
}

// TestClear empties the cache without disturbing counters.
func TestClear(t *testing.T) {
	fixtures := buildFixtures(t, 3, 10)
	c := New(8)
	for i := range fixtures {
		c.Put(fixtures[i].reg, fixtures[i].recs)
	}
	if c.Len() == 0 {
		t.Fatal("nothing cached")
	}
	c.Lookup(fixtures[0].q, 3)
	c.Clear()
	if c.Len() != 0 {
		t.Fatalf("Len=%d after Clear", c.Len())
	}
	if _, ok := c.Lookup(fixtures[0].q, 3); ok {
		t.Fatal("hit after Clear")
	}
	hits, _, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d; counters must survive Clear", hits, misses)
	}
	// The cache must be reusable after Clear.
	if !c.Put(fixtures[1].reg, fixtures[1].recs) {
		t.Fatal("Put after Clear failed")
	}
	if _, ok := c.Lookup(fixtures[1].q, 3); !ok {
		t.Fatal("miss after re-Put")
	}
}

// TestCrossShardHit pins that a hit depends on the region alone, not on
// the query's bytes: every nudge of the region's query that stays inside
// it hits, whatever shard count the cache was asked for (NewSharded
// ignores it).
func TestCrossShardHit(t *testing.T) {
	fixtures := buildFixtures(t, 4, 10)
	c := NewSharded(16, 16)
	f := &fixtures[0]
	c.Put(f.reg, f.recs)
	for scale := 1e-9; scale < 1e-3; scale *= 10 {
		q2 := f.q.Clone()
		q2[0] += scale
		if !f.reg.Contains(q2, 0) {
			continue
		}
		if _, ok := c.Lookup(q2, len(f.recs)); !ok {
			t.Fatalf("in-region query missed at nudge %g", scale)
		}
	}
}

// TestReorderKeepsKPreference caches one query at K = 5 and at K = 20 and
// holds the k-preference through reorders of the view: whichever entry
// comes first, a k = 10 lookup is an exact hit on the K = 20 entry and a
// k = 30 lookup a partial hit on it.
func TestReorderKeepsKPreference(t *testing.T) {
	q, put := oneQueryFixture(t)
	c := New(8)
	small := put(c, 5)
	large := put(c, 20)
	check := func(when string, first *Entry) {
		t.Helper()
		if got := c.load()[0]; got != first {
			t.Fatalf("%s: the view starts with the K=%d entry, want K=%d", when, got.K, first.K)
		}
		if e, ok := c.Lookup(q, 10); !ok || e != large {
			t.Fatalf("%s: k=10 not served by the K=20 entry (ok=%v)", when, ok)
		}
		_, partial0, _ := c.Stats()
		if e, ok := c.Lookup(q, 30); !ok || e != large {
			t.Fatalf("%s: k=30 not served by the K=20 entry (ok=%v)", when, ok)
		}
		if _, partial, _ := c.Stats(); partial != partial0+1 {
			t.Fatalf("%s: k=30 lookup was not a partial hit", when)
		}
	}
	check("before any reorder", small)

	// k=10 hits all land on the K=20 entry; the one that takes the clock
	// past 64 ticks per entry reorders the view.
	for i := 0; i < reorderEvery*2; i++ {
		c.Lookup(q, 10)
	}
	check("after the hit-driven reorder", large)

	// Hand the small entry the larger count: a reorder moves it back in
	// front, and the k-preference still finds the covering entry.
	small.hits.Store(1 << 20)
	c.reorder()
	check("after a forced reorder", small)
}

// TestConcurrentViewWriters races lock-free lookups against every writer
// of the view — Put with its LRU eviction, MaintainBatch evicting entries,
// and forced reorders — and holds every served prefix to
// brute force. CI runs it under -race at GOMAXPROCS 1, 2 and 4.
func TestConcurrentViewWriters(t *testing.T) {
	const (
		nfix    = 12
		maxK    = 20
		readers = 4
		iters   = 500
	)
	fixtures := buildFixtures(t, nfix, maxK)
	c := New(8) // smaller than nfix: puts evict
	for i := range fixtures[:8] {
		c.Put(fixtures[i].reg, fixtures[i].recs)
	}

	stop := make(chan struct{})
	var writers sync.WaitGroup
	writer := func(seed int64, step func(r *rand.Rand)) {
		writers.Add(1)
		go func() {
			defer writers.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
					step(r)
					runtime.Gosched()
				}
			}
		}()
	}
	writer(1, func(r *rand.Rand) {
		f := &fixtures[r.Intn(nfix)]
		c.Put(f.reg, f.recs)
	})
	writer(2, func(r *rand.Rand) {
		c.MaintainBatch(func(*Entry) bool {
			return r.Intn(16) == 0 // evictions rare enough that the puts keep the cache warm
		})
	})
	writer(3, func(*rand.Rand) { c.reorder() })

	var served atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				f := &fixtures[r.Intn(nfix)]
				k := 3 + r.Intn(maxK-3)
				e, ok := c.Lookup(f.q, k)
				if !ok {
					continue
				}
				served.Add(1)
				for j := 0; j < min(k, e.K); j++ {
					if e.Records[j].ID != f.expected[j] {
						t.Errorf("rank %d: served %d, want %d", j, e.Records[j].ID, f.expected[j])
						return
					}
				}
			}
		}(int64(100 + w))
	}
	wg.Wait()
	close(stop)
	writers.Wait()
	if served.Load() == 0 {
		t.Error("no lookup was served: the race exercised nothing")
	}
	if c.Len() > 8 {
		t.Errorf("Len=%d exceeds capacity 8", c.Len())
	}
}
