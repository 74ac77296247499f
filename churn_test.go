package gir

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	cacheint "github.com/girlib/gir/internal/cache"
	engineint "github.com/girlib/gir/internal/engine"
	"github.com/girlib/gir/internal/maintain"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/topk"
)

// This file is the churn harness for fine-grained cache invalidation:
// Insert/Delete interleave with TopK/BatchTopK through a shared Engine,
// and every served result must equal a freshly computed top-k at SOME
// dataset version inside the serve window [version-before-call,
// version-after-call]. A stale entry escaping invalidation (served after a
// mutation that perturbs it) matches no version in its window and fails
// the test. Run under -race this also exercises the lock ordering of a
// write's drain against cache fills.

// churnLogEntry mirrors one applied mutation for brute-force replay.
type churnLogEntry struct {
	version int64
	insert  bool
	id      int64
	point   []float64
}

// churnMirror reconstructs dataset contents at any version from the base
// points plus the mutation log (single mutator, so versions are dense).
type churnMirror struct {
	base map[int64][]float64
	log  []churnLogEntry
}

func (m *churnMirror) stateAt(v int64) map[int64][]float64 {
	out := make(map[int64][]float64, len(m.base)+8)
	for id, p := range m.base {
		out[id] = p
	}
	for _, e := range m.log {
		if e.version > v {
			break
		}
		if e.insert {
			out[e.id] = e.point
		} else {
			delete(out, e.id)
		}
	}
	return out
}

// bruteTopK scores every record and returns the k best ids in order.
func bruteTopK(state map[int64][]float64, q []float64, k int) []int64 {
	type scored struct {
		id    int64
		score float64
	}
	all := make([]scored, 0, len(state))
	for id, p := range state {
		s := 0.0
		for j := range q {
			s += q[j] * p[j]
		}
		all = append(all, scored{id, s})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].id < all[j].id
	})
	ids := make([]int64, k)
	for i := 0; i < k; i++ {
		ids[i] = all[i].id
	}
	return ids
}

// servedResult is one engine answer with its version window.
type servedResult struct {
	q      []float64
	k      int
	ids    []int64
	v0, v1 int64
}

func TestEngineChurnNeverServesStale(t *testing.T) {
	runEngineChurn(t, EngineOptions{Workers: 4, CacheCapacity: 48}, SpaceBox)
}

// TestEngineChurnSimplex: the same mutator/querier race over the Σw=1
// query space. Every layer the drain touches — region membership, the
// invalidation LPs — must clip to the simplex; a box assumption anywhere
// shows up as a stale serve here.
func TestEngineChurnSimplex(t *testing.T) {
	runEngineChurn(t, EngineOptions{Workers: 4, CacheCapacity: 48}, SpaceSimplex)
}

func runEngineChurn(t *testing.T, opts EngineOptions, space Space) {
	r := rand.New(rand.NewSource(77))
	const n, d = 500, 3
	points := make([][]float64, n)
	mirror := &churnMirror{base: make(map[int64][]float64, n)}
	for i := range points {
		p := []float64{r.Float64(), r.Float64(), r.Float64()}
		points[i] = p
		mirror.base[int64(i)] = p
	}
	ds, err := NewDatasetInSpace(points, space)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(ds, opts)
	defer e.Close()

	// Query pool with repeats so the cache is genuinely exercised.
	pool := make([][]float64, 24)
	ks := make([]int, len(pool))
	for i := range pool {
		pool[i] = []float64{0.15 + 0.7*r.Float64(), 0.15 + 0.7*r.Float64(), 0.15 + 0.7*r.Float64()}
		if space == SpaceSimplex {
			pool[i] = space.Normalize(pool[i])
		}
		ks[i] = 3 + r.Intn(6)
	}

	var logMu sync.Mutex // guards mirror.log appends (single mutator, many readers later)
	stop := make(chan struct{})
	// The queriers wait for the mutator's first published mutation, so no
	// run can finish its queries before any write lands.
	started := make(chan struct{})
	var startOnce sync.Once
	begin := func() { startOnce.Do(func() { close(started) }) }
	var mutator sync.WaitGroup
	mutator.Add(1)
	go func() {
		defer mutator.Done()
		defer begin() // a mutator that failed early must not strand the queriers
		mr := rand.New(rand.NewSource(101))
		nextID := int64(1 << 40)
		var live []churnLogEntry // inserted-and-not-yet-deleted records
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if len(live) > 0 && mr.Intn(3) == 0 { // delete a previous insert
				victim := live[mr.Intn(len(live))]
				if ok, err := ds.Delete(victim.id, victim.point); err != nil || !ok {
					t.Error("lost a churn record")
					return
				}
				for j := range live {
					if live[j].id == victim.id {
						live = append(live[:j], live[j+1:]...)
						break
					}
				}
				logMu.Lock()
				mirror.log = append(mirror.log, churnLogEntry{version: ds.Version(), insert: false, id: victim.id})
				logMu.Unlock()
			} else {
				// Bias some inserts toward the top corner so they really do
				// perturb cached results; the rest are background noise.
				p := []float64{mr.Float64(), mr.Float64(), mr.Float64()}
				if mr.Intn(4) == 0 {
					for j := range p {
						p[j] = 0.85 + 0.14*mr.Float64()
					}
				}
				ent := churnLogEntry{insert: true, id: nextID, point: p}
				nextID++
				if err := ds.Insert(ent.id, p); err != nil {
					t.Error(err)
					return
				}
				ent.version = ds.Version()
				live = append(live, ent)
				logMu.Lock()
				mirror.log = append(mirror.log, ent)
				logMu.Unlock()
			}
			begin()
		}
	}()

	// Queriers record every served answer with its version window;
	// verification replays the mirror once the log is final.
	results := make(chan servedResult, 4096)
	var queriers sync.WaitGroup
	for g := 0; g < 4; g++ {
		queriers.Add(1)
		go func(seed int64) {
			defer queriers.Done()
			<-started
			qr := rand.New(rand.NewSource(seed))
			for i := 0; i < 60; i++ {
				pi := qr.Intn(len(pool))
				if qr.Intn(3) == 0 { // batch path
					batch := []Query{
						{Vector: pool[pi], K: ks[pi]},
						{Vector: pool[(pi+1)%len(pool)], K: ks[(pi+1)%len(pool)]},
					}
					v0 := ds.Version()
					out := e.BatchTopK(batch)
					v1 := ds.Version()
					for bi, res := range out {
						if res.Err != nil {
							t.Errorf("batch query error: %v", res.Err)
							return
						}
						results <- servedResult{q: batch[bi].Vector, k: batch[bi].K, ids: idsOf(res.Records), v0: v0, v1: v1}
					}
				} else {
					v0 := ds.Version()
					res := e.TopK(pool[pi], ks[pi])
					v1 := ds.Version()
					if res.Err != nil {
						t.Errorf("query error: %v", res.Err)
						return
					}
					results <- servedResult{q: pool[pi], k: ks[pi], ids: idsOf(res.Records), v0: v0, v1: v1}
				}
			}
		}(int64(g + 1))
	}
	queriers.Wait()
	close(stop)
	mutator.Wait()
	close(results)

	// Every failure below prints the engine's counters, so it says whether
	// the cache was exercised at all and how the writes treated it.
	st := e.Stats()
	counters := fmt.Sprintf("hits=%d misses=%d computed=%d refused fills=%d writes=%d affected=%d evicted=%d predicates=%d",
		st.CacheHits, st.Misses, st.Computed, st.RefusedFills, len(mirror.log), st.Affected, st.Invalidated, st.PredicateEvals)
	verified, hadMultiVersionWindows := 0, 0
	for sr := range results {
		ok := false
		for v := sr.v0; v <= sr.v1 && !ok; v++ {
			want := bruteTopK(mirror.stateAt(v), sr.q, sr.k)
			ok = sameIDs(sr.ids, want)
		}
		if !ok {
			t.Fatalf("STALE result served: q=%v k=%d got %v, matching no dataset version in [%d, %d] (%s)",
				sr.q, sr.k, sr.ids, sr.v0, sr.v1, counters)
		}
		if sr.v1 > sr.v0 {
			hadMultiVersionWindows++
		}
		verified++
	}
	if verified == 0 {
		t.Fatalf("nothing verified (%s)", counters)
	}
	if st.CacheHits == 0 {
		t.Errorf("cache never hit — churn test is vacuous (%s)", counters)
	}
	if len(mirror.log) == 0 {
		t.Errorf("no mutations ran — churn test is vacuous (%s)", counters)
	}
	// Maintenance-counter consistency: every entry a mutation could perturb
	// was evicted, and nothing is repaired.
	if st.Affected != st.Invalidated || st.Repaired != 0 {
		t.Errorf("counters inconsistent: affected %d, evicted %d, repaired %d", st.Affected, st.Invalidated, st.Repaired)
	}
	t.Logf("verified=%d (windows spanning mutations: %d) %s", verified, hadMultiVersionWindows, counters)
}

// TestChurnDifferential is the ground-truth harness for the engine under
// writes: a 10k-step Zipf-query/write-mix stream in both query spaces, each
// read byte-compared (ids, attributes, score bits) against a brute-force
// oracle over a mirror of the dataset. Writes are applied synchronously, so
// the mirror IS the version every following read must be served at; a
// stale cache serve (a missed eviction, a drain behind its write) is a
// byte diff.
func TestChurnDifferential(t *testing.T) {
	steps := 10000
	if testing.Short() {
		steps = 1500
	}
	for _, space := range []Space{SpaceBox, SpaceSimplex} {
		t.Run(space.String(), func(t *testing.T) {
			t.Parallel()
			runChurnDifferential(t, space, steps)
		})
	}
}

func runChurnDifferential(t *testing.T, space Space, steps int) {
	const n, d, distinct = 1200, 3, 24
	points := randPoints(rand.New(rand.NewSource(77)), n, d)
	mirror := make(map[int64][]float64, n)
	for i, p := range points {
		mirror[int64(i)] = p
	}
	ds, err := NewDatasetInSpace(points, space)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(ds, EngineOptions{})
	defer e.Close()

	ops, queries, writes := engineint.NewChurnWorkloadIn(
		177, d, distinct, 1.3, 0.001, steps, 0.05, 2, 8, space == SpaceSimplex)
	if queries == 0 || writes == 0 {
		t.Fatalf("degenerate workload: %d queries, %d writes", queries, writes)
	}
	for step, op := range ops {
		switch {
		case op.Write && op.Insert:
			if err := ds.Insert(op.ID, op.Point); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			mirror[op.ID] = op.Point
		case op.Write:
			if ok, err := ds.Delete(op.ID, op.Point); err != nil || !ok {
				t.Fatalf("step %d: delete of live record %d: %v, %v", step, op.ID, ok, err)
			}
			delete(mirror, op.ID)
		default:
			res := e.TopK(op.Query, op.K)
			if res.Err != nil {
				t.Fatalf("step %d: %v", step, res.Err)
			}
			if len(res.Records) != op.K {
				t.Fatalf("step %d: %d records for k = %d", step, len(res.Records), op.K)
			}
			want := bruteTopKScored(mirror, op.Query, op.K)
			for i, got := range res.Records {
				if got.ID != want[i].id || math.Float64bits(got.Score) != math.Float64bits(want[i].score) ||
					!slices.Equal(got.Attrs, mirror[got.ID]) {
					t.Fatalf("step %d: rank %d of top-%d is %d (%v), the oracle's %d (%v) at version %d",
						step, i, op.K, got.ID, got.Score, want[i].id, want[i].score, ds.Version())
				}
			}
		}
	}
	// A stream the cache never served from proves nothing about its
	// maintenance.
	if st := e.Stats(); st.CacheHits == 0 || st.Invalidated == 0 {
		t.Fatalf("%d hits and %d evictions over the stream", st.CacheHits, st.Invalidated)
	}
}

// TestHitNeverRunsAheadOfVersion: a write drains into the cache before it
// publishes its version, so in between the cache is reconciled with a
// version no reader can pin. A probe in that window, on the snapshot a
// reader loads then, must not serve from it: the probe misses, or serves
// the answer at the published version. The test's subscriber runs the
// engine's drain and then probes, for deletes that alternate between the
// cached result's top record (the drain evicts the entry) and a record
// outside every result (the drain keeps it).
func TestHitNeverRunsAheadOfVersion(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	const n, k = 400, 5
	points := make([][]float64, n)
	state := make(map[int64][]float64, n)
	for i := range points {
		points[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
		state[int64(i)] = points[i]
	}
	ds, err := NewDataset(points)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(ds, EngineOptions{Workers: 1})
	defer e.Close()
	q := []float64{0.5, 0.3, 0.6}
	probes, hits := 0, 0
	e.unsub() // takes ds.mu
	ds.mu.Lock()
	e.unsub = ds.subscribeLocked(func(m maintain.Mutation) {
		e.reconcile(m)
		sn := ds.snap.Load() // m's version is not published yet
		res, missed := e.probe(nil, Query{Vector: q, K: k}, sn)
		probes++
		if missed {
			return
		}
		hits++
		if want := bruteTopK(state, q, k); !sameIDs(idsOf(res.Records), want) {
			t.Errorf("a probe at version %d, inside write %d's drain-to-publish window, served %v; the published answer is %v", sn.version, m.Version, idsOf(res.Records), want)
		}
	})
	ds.mu.Unlock()
	kept := 0
	for i := 0; i < 12; i++ {
		res := e.TopK(q, k)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		id := res.Records[0].ID
		if i%2 == 1 { // a record no result at q holds: the entry stays cached
			id = bruteTopK(state, []float64{0, 0, 1}, len(state))[len(state)-1]
			if slices.Contains(idsOf(res.Records), id) {
				t.Fatalf("fixture: record %d is in the cached result", id)
			}
			kept++
		}
		evicted := e.Stats().Invalidated
		if ok, err := ds.Delete(id, state[id]); err != nil || !ok {
			t.Fatalf("delete %d: %v, %v", id, ok, err)
		}
		delete(state, id) // after the write returns: the subscriber sees the state before it
		if i%2 == 1 && e.Stats().Invalidated != evicted {
			t.Fatalf("deleting record %d, outside the result, evicted the entry", id)
		}
	}
	if probes == 0 || kept == 0 || e.Stats().Invalidated == 0 {
		t.Fatalf("%d probes, %d kept, %d evicted: the window was never exercised", probes, kept, e.Stats().Invalidated)
	}
	t.Logf("%d probes inside the window, %d served from the cache, %d evictions", probes, hits, e.Stats().Invalidated)
}

// TestWriteReturnsReconciled: a write reconciles the cache before it
// returns. After every Insert and Delete, with no other call in between,
// every cached entry must be exactly topk.Scan at its own query and k over
// the dataset at ds.Version() — ids in order and scores bit for bit — while
// two readers keep filling and hitting the cache. Both spaces.
func TestWriteReturnsReconciled(t *testing.T) {
	for _, space := range []Space{SpaceBox, SpaceSimplex} {
		t.Run(space.String(), func(t *testing.T) { runWriteReturnsReconciled(t, space) })
	}
}

func runWriteReturnsReconciled(t *testing.T, space Space) {
	r := rand.New(rand.NewSource(29))
	const n, writes = 400, 150
	points := make([][]float64, n)
	for i := range points {
		points[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
	}
	ds, err := NewDatasetInSpace(points, space)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(ds, EngineOptions{Workers: 2, CacheCapacity: 32})
	defer e.Close()
	pool := make([][]float64, 16)
	ks := make([]int, len(pool))
	for i := range pool {
		pool[i] = []float64{0.15 + 0.7*r.Float64(), 0.15 + 0.7*r.Float64(), 0.15 + 0.7*r.Float64()}
		if space == SpaceSimplex {
			pool[i] = space.Normalize(pool[i])
		}
		ks[i] = 3 + r.Intn(6)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			qr := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				pi := qr.Intn(len(pool))
				if res := e.TopK(pool[pi], ks[pi]); res.Err != nil {
					t.Error(res.Err)
					return
				}
			}
		}(int64(g + 1))
	}
	defer func() { close(stop); readers.Wait() }()

	var live []int64
	live2p := make(map[int64][]float64)
	nextID, checked := int64(1<<40), 0
	for w := 0; w < writes; w++ {
		if pi := w % len(pool); w%3 == 0 { // keep the cache populated on one core too
			if res := e.TopK(pool[pi], ks[pi]); res.Err != nil {
				t.Fatal(res.Err)
			}
		}
		if len(live) > 0 && r.Intn(3) == 0 {
			i := r.Intn(len(live))
			id := live[i]
			if ok, err := ds.Delete(id, live2p[id]); err != nil || !ok {
				t.Fatalf("delete %d: %v, %v", id, ok, err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			p := []float64{r.Float64(), r.Float64(), r.Float64()}
			if r.Intn(3) == 0 {
				for j := range p {
					p[j] = 0.85 + 0.14*r.Float64()
				}
			}
			if err := ds.Insert(nextID, p); err != nil {
				t.Fatal(err)
			}
			live, live2p[nextID] = append(live, nextID), p
			nextID++
		}
		// This goroutine is the only writer, so the snapshot is the state at
		// ds.Version() until the next write.
		sn := ds.snap.Load()
		for _, ent := range e.cache.inner.Entries() {
			want := topk.Scan(sn.tree, score.Linear{}, ent.Region.Query, ent.K)
			for i, sc := range want {
				if g := ent.Records[i]; g.ID != sc.ID || math.Float64bits(g.Score) != math.Float64bits(sc.Score) {
					t.Fatalf("after write %d (version %d) an entry at q=%v k=%d holds (%d, %v) at rank %d, the scan (%d, %v)",
						w, sn.version, ent.Region.Query, ent.K, g.ID, g.Score, i, sc.ID, sc.Score)
				}
			}
			checked++
		}
	}
	st := e.Stats()
	if checked == 0 || st.Affected == 0 {
		t.Fatalf("vacuous: %d entries checked, %d affect events", checked, st.Affected)
	}
	t.Logf("%d entry checks after %d writes; evicted=%d", checked, writes, st.Invalidated)
}

// TestInsertTieEvicts: an insert that ties a cached entry's k-th record
// and has the smaller id ranks ahead of it under (score desc, id asc), so
// the drain must evict the entry: an exact duplicate of p_k under an id
// below every stored one changes the next Engine.TopK.
func TestInsertTieEvicts(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	const n, d, k = 500, 3, 5
	points := make([][]float64, n)
	state := make(map[int64][]float64, n)
	for i := range points {
		points[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
		state[int64(i)] = points[i]
	}
	q := []float64{0.6, 0.3, 0.5}
	ds, err := NewDataset(points)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(ds, EngineOptions{Workers: 1, CacheCapacity: 8})
	defer e.Close()
	fill := e.TopK(q, k)
	if hit := e.TopK(q, k); fill.Err != nil || hit.Err != nil || !hit.CacheHit {
		t.Fatalf("the fill did not cache (%v, %v)", fill.Err, hit.Err)
	}
	pk := fill.Records[k-1]
	const dupID = -1 // below every stored id (0…n−1)
	if err := ds.Insert(dupID, pk.Attrs); err != nil {
		t.Fatal(err)
	}
	state[dupID] = pk.Attrs
	got := e.TopK(q, k)
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	if want := bruteTopK(state, q, k); !sameIDs(idsOf(got.Records), want) {
		t.Fatalf("after a tying insert with a smaller id the engine served %v, brute force %v", idsOf(got.Records), want)
	}
}

// TestInsertBelowEveryIDKeepsEntries: an insert whose id is below every
// p_k's wins every tie, but w = 0, where every record ties, ranks nothing.
// The drain must decide it over the region's nonzero weights, so inserting
// the origin under the smallest id evicts nothing in either query space
// (the box's region contains w = 0, and it used to empty the cache), and
// every entry it keeps still holds topk.Scan's answer.
func TestInsertBelowEveryIDKeepsEntries(t *testing.T) {
	points := randPoints(rand.New(rand.NewSource(62)), 2000, 3)
	for _, space := range []Space{SpaceBox, SpaceSimplex} {
		r := rand.New(rand.NewSource(63))
		ds, err := NewDatasetInSpace(points, space)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(ds, EngineOptions{Workers: 1, CacheCapacity: 64})
		for i := 0; i < 20; i++ {
			q := space.Normalize([]float64{0.15 + 0.7*r.Float64(), 0.15 + 0.7*r.Float64(), 0.15 + 0.7*r.Float64()})
			if res := e.TopK(q, 1+r.Intn(20)); res.Err != nil {
				t.Fatal(res.Err)
			}
		}
		before := e.Cache().Len()
		if err := ds.Insert(-1, []float64{0, 0, 0}); err != nil {
			t.Fatal(err)
		}
		if after := e.Cache().Len(); before < 10 || after != before || e.Stats().Invalidated != 0 {
			t.Fatalf("%v: inserting the origin under id -1 left %d of %d entries (%d evicted)", space, after, before, e.Stats().Invalidated)
		}
		sn := ds.snap.Load()
		for _, ent := range e.cache.inner.Entries() {
			want := topk.Scan(sn.tree, score.Linear{}, ent.Region.Query, ent.K)
			for i, sc := range want {
				if g := ent.Records[i]; g.ID != sc.ID || math.Float64bits(g.Score) != math.Float64bits(sc.Score) {
					t.Fatalf("%v: a kept entry at q=%v k=%d holds (%d, %v) at rank %d, the scan (%d, %v)", space, ent.Region.Query, ent.K, g.ID, g.Score, i, sc.ID, sc.Score)
				}
			}
		}
		e.Close()
	}
}

func idsOf(recs []Record) []int64 {
	out := make([]int64, len(recs))
	for i, r := range recs {
		out[i] = r.ID
	}
	return out
}

func sameIDs(a, b []int64) bool {
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

// TestRepairModeIsInert: EngineOptions.RepairMode changes nothing. One
// seeded stream of queries, inserts and deletes (deletes of cached result
// records among them) runs through two engines over identical durable
// datasets, one built with RepairMode. Every answer, the final
// EngineStats and the cache — ids, scores and region bytes, entry for
// entry — must be identical; no write is credited as a repair, every
// affected entry is evicted, and no entry holds a candidate set or subtree
// corners. Recovering either directory under either setting then reads no
// page while it loads the cache.
func TestRepairModeIsInert(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	const n, steps = 600, 800
	points := make([][]float64, n)
	for i := range points {
		points[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
	}
	pool := make([][]float64, 12)
	ks := make([]int, len(pool))
	for i := range pool {
		pool[i] = []float64{0.15 + 0.7*r.Float64(), 0.15 + 0.7*r.Float64(), 0.15 + 0.7*r.Float64()}
		ks[i] = 3 + r.Intn(6)
	}
	dirs := []string{t.TempDir(), t.TempDir()}
	var dss []*Dataset
	var engines []*Engine
	for i, repair := range []bool{false, true} {
		ds, err := NewDataset(points)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.EnableWAL(dirs[i], WALOptions{}); err != nil {
			t.Fatal(err)
		}
		dss = append(dss, ds)
		engines = append(engines, NewEngine(ds, EngineOptions{Workers: 1, CacheCapacity: 16, RepairMode: repair}))
	}
	live := map[int64][]float64{}
	for i, p := range points {
		live[int64(i)] = p
	}
	write := func(m churnMut) {
		for _, ds := range dss {
			applyMut(t, ds, m)
		}
		if m.insert {
			live[m.id] = m.point
		} else {
			delete(live, m.id)
		}
	}
	var last []Record
	nextID := int64(1 << 20)
	for step := 0; step < steps; step++ {
		switch x := r.Float64(); {
		case x < 0.1 && len(last) > 0: // a cached result record
			id := last[r.Intn(len(last))].ID
			if p := live[id]; p != nil {
				write(churnMut{id: id, point: p})
			}
		case x < 0.25:
			p := []float64{r.Float64(), r.Float64(), r.Float64()}
			if r.Intn(3) == 0 {
				for j := range p {
					p[j] = 0.8 + 0.19*r.Float64()
				}
			}
			write(churnMut{insert: true, id: nextID, point: p})
			nextID++
		default:
			pi := r.Intn(len(pool))
			a, b := engines[0].TopK(pool[pi], ks[pi]), engines[1].TopK(pool[pi], ks[pi])
			if a.Err != nil || b.Err != nil {
				t.Fatal(a.Err, b.Err)
			}
			if fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("step %d: the engines answered %v and %v", step, a, b)
			}
			last = a.Records
		}
	}
	for pi := range pool { // refill what the writes evicted, so the comparison below has entries
		a, b := engines[0].TopK(pool[pi], ks[pi]), engines[1].TopK(pool[pi], ks[pi])
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("refill %d: the engines answered %v and %v", pi, a, b)
		}
	}
	sa, sb := engines[0].Stats(), engines[1].Stats()
	if sa != sb {
		t.Fatalf("stats differ:\n%+v\n%+v", sa, sb)
	}
	if sa.Repaired != 0 || sa.Affected != sa.Invalidated || sa.Invalidated == 0 || sa.CacheHits == 0 {
		t.Fatalf("repaired %d, affected %d, evicted %d, hits %d: want no repair, every affected entry evicted, and both exercised", sa.Repaired, sa.Affected, sa.Invalidated, sa.CacheHits)
	}
	fa, fb := engines[0].cache.inner.Entries(), engines[1].cache.inner.Entries()
	if len(fa) != len(fb) || len(fa) == 0 {
		t.Fatalf("%d and %d entries cached", len(fa), len(fb))
	}
	for i := range fa {
		if x, y := entryFingerprint(fa[i]), entryFingerprint(fb[i]); x != y {
			t.Fatalf("entry %d differs:\n%s\n%s", i, x, y)
		}
		for _, ent := range []*cacheint.Entry{fa[i], fb[i]} {
			if ent.Cand != nil || ent.Bounds != nil || ent.CandComplete() {
				t.Fatalf("an entry holds %d candidates and %d bounds", len(ent.Cand), len(ent.Bounds))
			}
		}
	}
	for i := range engines {
		if err := engines[i].Checkpoint(dirs[i]); err != nil {
			t.Fatal(err)
		}
		engines[i].Close()
		if err := dss[i].Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, dir := range dirs {
		for _, repair := range []bool{false, true} {
			ds, e, err := RecoverEngine(dir, WALOptions{}, EngineOptions{RepairMode: repair})
			if err != nil {
				t.Fatal(err)
			}
			if got := e.Cache().Len(); got != len(fa) {
				t.Errorf("repair %v: restored %d entries, checkpointed %d", repair, got, len(fa))
			}
			if reads := ds.IOStats().PageReads; reads != 0 {
				t.Errorf("repair %v: loading the cache read %d pages", repair, reads)
			}
			e.Close()
			if err := ds.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Logf("%d steps: %d hits, %d misses, %d evicted, %d entries at the end", steps, sa.CacheHits, sa.Misses, sa.Invalidated, len(fa))
}
