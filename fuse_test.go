package gir

// Differential harness for the fused batch path: BatchTopK with fusion
// enabled must stay byte-identical — ids, order, score BITS — to
// per-query Dataset.TopK at the same dataset version, while a mutator
// churns the index. Verified batches hold the mutator's lock so the
// version is pinned and the comparison is strict; interleaved unverified
// batches race the mutator freely, exercising the fused path's snapshot
// pin and single-flight claims under -race.

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// fusedBatch builds a serving-shaped batch: jittered repeats of a few
// centers (fusable), some EXACT duplicates (in-batch dedupe), and a tail
// of distinct random queries (singleton groups).
func fusedBatch(r *rand.Rand, space Space, centers [][]float64, size int) []Query {
	batch := make([]Query, 0, size)
	for len(batch) < size {
		switch r.Intn(8) {
		case 0: // fresh random query — lands in its own group
			q := make([]float64, len(centers[0]))
			for j := range q {
				q[j] = 0.05 + 0.9*r.Float64()
			}
			if space == SpaceSimplex {
				q = space.Normalize(q)
			}
			batch = append(batch, Query{Vector: q, K: 1 + r.Intn(20)})
		case 1: // exact duplicate of an earlier query — follower path
			if len(batch) > 0 {
				prev := batch[r.Intn(len(batch))]
				batch = append(batch, prev)
				continue
			}
			fallthrough
		default: // jittered near-repeat of a center — the fusion target
			c := centers[r.Intn(len(centers))]
			q := make([]float64, len(c))
			for j := range c {
				q[j] = math.Max(1e-6, c[j]+0.001*r.NormFloat64())
			}
			if space == SpaceSimplex {
				q = space.Normalize(q)
			}
			batch = append(batch, Query{Vector: q, K: 1 + r.Intn(20)})
		}
	}
	return batch
}

// requireByteEqual compares an engine answer to a fresh Dataset.TopK at
// the same version, bit for bit: ids, rank order, score bits (including
// the k-th), attribute bits.
func requireByteEqual(t *testing.T, tag string, got []Record, res *TopKResult) {
	t.Helper()
	want := res.Records
	if len(got) != len(want) {
		t.Fatalf("%s: got %d records, want %d", tag, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("%s: rank %d: got id %d, want %d", tag, i, got[i].ID, want[i].ID)
		}
		if math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: rank %d: score bits differ: got %x, want %x",
				tag, i, math.Float64bits(got[i].Score), math.Float64bits(want[i].Score))
		}
		for j := range want[i].Attrs {
			if math.Float64bits(got[i].Attrs[j]) != math.Float64bits(want[i].Attrs[j]) {
				t.Fatalf("%s: rank %d attr %d differs", tag, i, j)
			}
		}
	}
}

func TestFusedBatchDifferentialBox(t *testing.T) {
	runFusedDifferential(t, SpaceBox, EngineOptions{Workers: 4, CacheCapacity: -1})
}

func TestFusedBatchDifferentialSimplex(t *testing.T) {
	runFusedDifferential(t, SpaceSimplex, EngineOptions{Workers: 4, CacheCapacity: -1})
}

// The cached arms route fused fills through answerGroup + putIfCurrent:
// every served record set (hit, fused miss, follower copy) must still be
// byte-equal to a same-version recompute.
func TestFusedBatchDifferentialCachedBox(t *testing.T) {
	runFusedDifferential(t, SpaceBox, EngineOptions{Workers: 4, CacheCapacity: 64})
}

func TestFusedBatchDifferentialCachedSimplex(t *testing.T) {
	runFusedDifferential(t, SpaceSimplex, EngineOptions{Workers: 4, CacheCapacity: 64})
}

func runFusedDifferential(t *testing.T, space Space, opts EngineOptions) {
	r := rand.New(rand.NewSource(411))
	const n, d = 2000, 3
	points := make([][]float64, n)
	for i := range points {
		points[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
	}
	ds, err := NewDatasetInSpace(points, space)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(ds, opts)
	defer e.Close()

	centers := make([][]float64, 8)
	for i := range centers {
		c := []float64{0.1 + 0.8*r.Float64(), 0.1 + 0.8*r.Float64(), 0.1 + 0.8*r.Float64()}
		if space == SpaceSimplex {
			c = space.Normalize(c)
		}
		centers[i] = c
	}

	// The mutator takes mutMu per mutation; a verified batch holds it
	// across BatchTopK + replay, pinning the version for a strict compare.
	var mutMu sync.Mutex
	stop := make(chan struct{})
	var mutator sync.WaitGroup
	mutator.Add(1)
	go func() {
		defer mutator.Done()
		mr := rand.New(rand.NewSource(503))
		nextID := int64(1 << 40)
		var live []int64
		livePts := make(map[int64][]float64)
		for {
			select {
			case <-stop:
				return
			default:
			}
			mutMu.Lock()
			if len(live) > 0 && mr.Intn(3) == 0 {
				i := mr.Intn(len(live))
				id := live[i]
				if ok, err := ds.Delete(id, livePts[id]); err != nil || !ok {
					t.Error("churn delete failed")
					mutMu.Unlock()
					return
				}
				delete(livePts, id)
				live = append(live[:i], live[i+1:]...)
			} else {
				p := []float64{mr.Float64(), mr.Float64(), mr.Float64()}
				if err := ds.Insert(nextID, p); err != nil {
					t.Error(err)
					mutMu.Unlock()
					return
				}
				live = append(live, nextID)
				livePts[nextID] = p
				nextID++
			}
			mutMu.Unlock()
		}
	}()

	const batches, batchSize = 32, 160 // 5120 verified queries per arm
	verified := 0
	for b := 0; b < batches; b++ {
		batch := fusedBatch(r, space, centers, batchSize)

		// Raced pass: fused batch vs live mutator, results unverified
		// (the churn harness in churn_test.go owns window-level checking);
		// here it drives the snapshot pin and claim/wait paths under -race.
		for _, res := range e.BatchTopK(batch) {
			if res.Err != nil {
				t.Fatalf("raced batch error: %v", res.Err)
			}
		}

		// Verified pass: version pinned, strict byte-compare.
		mutMu.Lock()
		v0 := ds.Version()
		out := e.BatchTopK(batch)
		for i, res := range out {
			if res.Err != nil {
				t.Fatalf("batch query %d error: %v", i, res.Err)
			}
			want, err := ds.TopK(batch[i].Vector, batch[i].K)
			if err != nil {
				t.Fatal(err)
			}
			requireByteEqual(t, "fused batch", res.Records, want)
			verified++
		}
		if v1 := ds.Version(); v1 != v0 {
			t.Fatalf("version moved %d→%d under the mutator lock", v0, v1)
		}
		mutMu.Unlock()
	}
	close(stop)
	mutator.Wait()

	st := e.Stats()
	if verified != batches*batchSize {
		t.Fatalf("verified %d queries, want %d", verified, batches*batchSize)
	}
	if st.FusedGroups == 0 || st.FusedQueries == 0 {
		t.Errorf("no fused traversals ran (groups=%d queries=%d) — differential is vacuous", st.FusedGroups, st.FusedQueries)
	}
	if st.SharedPageReads == 0 {
		t.Error("fused traversals shared no page reads")
	}
	if st.Deduped == 0 {
		t.Error("duplicate queries in batch were never deduplicated")
	}
	t.Logf("verified=%d fusedGroups=%d fusedQueries=%d sharedReads=%d deduped=%d computed=%d hits=%d",
		verified, st.FusedGroups, st.FusedQueries, st.SharedPageReads, st.Deduped, st.Computed, st.CacheHits)
}

// TestGroupOfNEqualsNGroupsOfOne is the byte-identity contract at the
// engine: a batch answered as fused groups (BatchTopK) equals the same
// queries answered one call each (TopK — every miss a group of one), and
// both equal a sequential Dataset.TopK. Only the batch records fused
// activity; the solo calls share no page.
func TestGroupOfNEqualsNGroupsOfOne(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	points := make([][]float64, 500)
	for i := range points {
		points[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
	}
	ds, err := NewDataset(points)
	if err != nil {
		t.Fatal(err)
	}
	solo := NewEngine(ds, EngineOptions{Workers: 2, CacheCapacity: -1})
	defer solo.Close()
	fused := NewEngine(ds, EngineOptions{Workers: 2, CacheCapacity: -1})
	defer fused.Close()

	center := []float64{0.5, 0.3, 0.2}
	batch := fusedBatch(r, SpaceBox, [][]float64{center}, 32)
	group := fused.BatchTopK(batch)
	for i, q := range batch {
		one := solo.TopK(q.Vector, q.K)
		if one.Err != nil || group[i].Err != nil {
			t.Fatalf("query %d: solo %v, batch %v", i, one.Err, group[i].Err)
		}
		want, err := ds.TopK(q.Vector, q.K)
		if err != nil {
			t.Fatal(err)
		}
		requireByteEqual(t, "group of one", one.Records, want)
		requireByteEqual(t, "group of N", group[i].Records, want)
	}
	if st := solo.Stats(); st.FusedGroups != 0 || st.FusedQueries != 0 || st.SharedPageReads != 0 {
		t.Fatalf("groups of one recorded fused activity: groups=%d queries=%d shared=%d",
			st.FusedGroups, st.FusedQueries, st.SharedPageReads)
	}
	if st := fused.Stats(); st.FusedGroups == 0 || st.SharedPageReads == 0 {
		t.Fatalf("the batch never fused (groups=%d shared=%d) — the comparison is vacuous", st.FusedGroups, st.SharedPageReads)
	}
}

// TestFusedBatchInvalidMember checks per-member validation inside the
// fused path: a bad query gets its error, the rest of its batch is
// answered correctly.
func TestFusedBatchInvalidMember(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	points := make([][]float64, 300)
	for i := range points {
		points[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
	}
	ds, err := NewDataset(points)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(ds, EngineOptions{Workers: 2, CacheCapacity: -1})
	defer e.Close()

	good := []float64{0.4, 0.4, 0.2}
	batch := []Query{
		{Vector: good, K: 5},
		{Vector: []float64{0.1, 0.2}, K: 5}, // wrong dimension
		{Vector: good, K: len(points) + 1},  // k too large
		{Vector: []float64{0.3, 0.3, 0.4}, K: 8},
	}
	out := e.BatchTopK(batch)
	if out[1].Err == nil || out[2].Err == nil {
		t.Fatalf("invalid members served without error: %v, %v", out[1].Err, out[2].Err)
	}
	for _, i := range []int{0, 3} {
		if out[i].Err != nil {
			t.Fatalf("valid member %d failed: %v", i, out[i].Err)
		}
		want, err := ds.TopK(batch[i].Vector, batch[i].K)
		if err != nil {
			t.Fatal(err)
		}
		requireByteEqual(t, "mixed batch", out[i].Records, want)
	}
}
