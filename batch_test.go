package gir

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	cacheint "github.com/girlib/gir/internal/cache"
	"github.com/girlib/gir/internal/domain"
	"github.com/girlib/gir/internal/maintain"
	"github.com/girlib/gir/internal/vec"
)

// This file is the differential harness for BATCHED cache maintenance:
// under a 10k-step churn stream, a cache reconciled by the planner in
// bursts of B mutations must end in a state byte-equal to a cache
// reconciled one mutation at a time, as the engine's writes drain — same
// entry set, same regions (constraint for constraint), same records and
// scores — while performing one scan per pass, and every entry it keeps
// must match brute force. The planner's walk (keep while unaffected, evict
// at the first mutation that affects the entry) is exactly the
// per-mutation recurrence unrolled, and this test pins it.

// entryFingerprint renders one cached entry canonically. Entry iteration
// order differs between caches (shard placement is seeded per cache), so
// fingerprints are sorted before comparison; everything order-sensitive
// WITHIN an entry (records, constraints — both produced by deterministic
// append sequences) is serialized in storage order.
func entryFingerprint(e *cacheint.Entry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "q=%v k=%d\n", e.Region.Query, e.K)
	for _, r := range e.Records {
		fmt.Fprintf(&b, "r %d %x\n", r.ID, r.Score)
	}
	fmt.Fprintf(&b, "reg dim=%d os=%v\n", e.Region.Dim, e.Region.OrderSensitive)
	for _, c := range e.Region.Constraints {
		fmt.Fprintf(&b, "c %v %v %d %d\n", c.Normal, c.Kind, c.A, c.B)
	}
	fmt.Fprintf(&b, "rays %v\n", e.Rays)
	return b.String()
}

// newCache returns a cache of the given capacity outside any engine, for
// the harnesses that drive fills and drain passes step by step.
func newCache(capacity int) *Cache { return &Cache{inner: cacheint.New(capacity)} }

// fillEntry answers q the way the engine's miss path does — one
// answerGroup member, its region built by FP — and puts the answer into
// every given cache through newCacheEntry and Insert. Each cache gets its
// own entry.
func fillEntry(tb testing.TB, ds *Dataset, q []float64, k int, caches ...*Cache) {
	tb.Helper()
	answers, _ := ds.answerGroup([]vec.Vector{q}, []int{k}, true)
	a := &answers[0]
	if a.err != nil || a.girErr != nil {
		tb.Fatalf("fill at %v: %v, %v", q, a.err, a.girErr)
	}
	for _, c := range caches {
		ent := newCacheEntry(a.g, a.recs)
		if ent == nil {
			tb.Fatal("newCacheEntry refused an order-sensitive region")
		}
		c.inner.Insert(ent)
	}
}

// drain reconciles c with an ordered batch of applied writes in one pass
// of a fresh planner — the engine's drain step, over a batch.
func drain(c *Cache, ms []maintain.Mutation) maintain.Outcome {
	var p maintain.Planner
	return p.Drain(c.inner, ms)
}

func cacheFingerprints(c *Cache) []string {
	entries := c.inner.Entries()
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = entryFingerprint(e)
	}
	sort.Strings(out)
	return out
}

func TestBatchMaintenanceDifferential(t *testing.T) {
	steps := 10000
	if testing.Short() {
		steps = 1500
	}
	const burst = 8
	r := rand.New(rand.NewSource(4114))
	const n, d = 300, 3
	points := make([][]float64, n)
	mirror := make(diffMirror, n)
	for i := range points {
		p := []float64{r.Float64(), r.Float64(), r.Float64()}
		points[i] = p
		mirror[int64(i)] = p
	}
	ds, err := NewDataset(points)
	if err != nil {
		t.Fatal(err)
	}
	cBatch := newCache(32)
	cSeq := newCache(32)

	pool := make([][]float64, 24)
	ks := make([]int, len(pool))
	for i := range pool {
		pool[i] = []float64{0.15 + 0.7*r.Float64(), 0.15 + 0.7*r.Float64(), 0.15 + 0.7*r.Float64()}
		ks[i] = 2 + r.Intn(6)
	}
	// Fill both caches from ONE computation so their entries start
	// identical.
	fill := func(pi int) { fillEntry(t, ds, pool[pi], ks[pi], cBatch, cSeq) }
	for pi := range pool {
		fill(pi)
	}

	var totBatch, totSeq maintain.Outcome
	nextID := int64(1 << 40)
	var live []int64
	for id := range mirror {
		live = append(live, id)
	}

	for step := 0; step < steps; step += burst {
		// One burst of writes applied to the dataset (and mirror) first —
		// the state a drainer faces: mutations already durable, cache behind.
		var ms []maintain.Mutation
		for j := 0; j < burst && step+j < steps; j++ {
			if len(live) > n/2 && r.Intn(3) == 0 {
				k := r.Intn(len(live))
				id := live[k]
				if ok, err := ds.Delete(id, mirror[id]); err != nil || !ok {
					t.Fatalf("lost record %d (%v, %v)", id, ok, err)
				}
				delete(mirror, id)
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				ms = append(ms, maintain.Mutation{Version: ds.Version(), ID: id})
			} else {
				p := []float64{r.Float64(), r.Float64(), r.Float64()}
				if r.Intn(4) == 0 {
					for x := range p {
						p[x] = 0.8 + 0.19*r.Float64()
					}
				}
				id := nextID
				nextID++
				if err := ds.Insert(id, p); err != nil {
					t.Fatal(err)
				}
				mirror[id] = p
				live = append(live, id)
				ms = append(ms, maintain.Mutation{Version: ds.Version(), Insert: true, ID: id, Point: p})
			}
		}

		// Batched pass vs the one-mutation-at-a-time baseline.
		st := drain(cBatch, ms)
		if st.Scans != 1 {
			t.Fatalf("burst at step %d took %d cache scans, want exactly 1", step, st.Scans)
		}
		totBatch.Evicted += st.Evicted
		totBatch.Predicates += st.Predicates
		for _, m := range ms {
			s1 := drain(cSeq, []maintain.Mutation{m})
			totSeq.Evicted += s1.Evicted
			totSeq.Predicates += s1.Predicates
		}

		// The two caches must agree exactly after every burst.
		fb, fs := cacheFingerprints(cBatch), cacheFingerprints(cSeq)
		if len(fb) != len(fs) {
			t.Fatalf("step %d: entry counts diverge: batched %d, sequential %d", step, len(fb), len(fs))
		}
		for i := range fb {
			if fb[i] != fs[i] {
				t.Fatalf("step %d: cache states diverge:\nbatched:\n%s\nsequential:\n%s", step, fb[i], fs[i])
			}
		}

		// Periodically verify the batched cache against brute force and
		// refill so churn keeps biting.
		if (step/burst)%12 == 0 {
			for _, e := range cBatch.inner.Entries() {
				verifyEntry(t, r, mirror, e)
			}
		}
		if (step/burst)%5 == 0 {
			fill(r.Intn(len(pool)))
		}
	}

	if totBatch.Evicted != totSeq.Evicted {
		t.Errorf("eviction counts diverge: batched %+v, sequential %+v", totBatch, totSeq)
	}
	if totBatch.Evicted == 0 {
		t.Error("nothing evicted — the short-circuit path never ran, suspicious")
	}
	// The batched walk evaluates each (mutation, entry) pair exactly as
	// often as the sequential recurrence — never more.
	if totBatch.Predicates != totSeq.Predicates {
		t.Errorf("batched chain changed the predicate work: batched %d, sequential %d",
			totBatch.Predicates, totSeq.Predicates)
	}
	t.Logf("%d mutations in bursts of %d: evicted=%d; predicates batched=%d sequential=%d",
		steps, burst, totBatch.Evicted, totBatch.Predicates, totSeq.Predicates)
}

// diffMirror tracks exact dataset contents alongside the Dataset.
type diffMirror map[int64][]float64

// bruteAt returns the exact top-k ids at w, or nil when the ranking rests
// on a near-tie (out of contract, skipped).
func (m diffMirror) bruteAt(w []float64, k int) []int64 {
	return bruteTopKStrict(m, w, k, 1e-9)
}

func bruteTopKStrict(state map[int64][]float64, q []float64, k int, tieTol float64) []int64 {
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
	if len(all) < k {
		return nil
	}
	// Selection sort of the top k+1 is plenty at test sizes and keeps the
	// tie window check local.
	for i := 0; i <= k && i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if all[j].score > all[i].score {
				all[i], all[j] = all[j], all[i]
			}
		}
	}
	for i := 0; i < k && i+1 < len(all); i++ {
		if all[i].score-all[i+1].score <= tieTol {
			return nil
		}
	}
	ids := make([]int64, k)
	for i := range ids {
		ids[i] = all[i].id
	}
	return ids
}

// sampleEntryRegion draws weight vectors inside the entry's region: its
// query, random convex combinations of its rays (on Σw = 1, inside the
// unit box), and accepted jittered queries. For simplex-domain entries
// every candidate is renormalized onto Σw=1 first (raw jitters are off the
// simplex, and the region would reject them).
func sampleEntryRegion(r *rand.Rand, e *cacheint.Entry, count int) [][]float64 {
	q := e.Region.Query
	simplex := e.Region.Space().Kind() == domain.KindSimplex
	out := [][]float64{append([]float64(nil), q...)}
	for tries := 0; len(out) < count && tries < 30*count; tries++ {
		w := make([]float64, e.Region.Dim)
		if tries%2 == 0 && len(e.Rays) > 0 {
			d, sum := len(w), 0.0
			for g := e.Rays; len(g) > 0; g = g[d:] {
				mu := r.ExpFloat64()
				sum += mu
				vec.AXPY(mu, vec.Vector(g[:d]), vec.Vector(w))
			}
			for j := range w {
				w[j] /= sum
			}
		} else {
			for j := range w {
				w[j] = q[j] + 0.04*r.NormFloat64()
			}
		}
		if simplex {
			w = e.Region.Space().Normalize(vec.Vector(w))
		}
		if e.Region.Contains(vec.Vector(w), 0) {
			out = append(out, w)
		}
	}
	return out
}

// verifyEntry checks one cached entry against brute force at the current
// mirror state: its records at its own query, ids and scores, and at
// weight vectors sampled inside its region.
func verifyEntry(t *testing.T, r *rand.Rand, mirror diffMirror, e *cacheint.Entry) {
	t.Helper()
	q := append([]float64(nil), e.Region.Query...)
	k := e.K

	want := mirror.bruteAt(q, k)
	if want == nil {
		return // tie at the entry's own query: out of contract
	}
	gotIDs := make([]int64, len(e.Records))
	for i, rec := range e.Records {
		gotIDs[i] = rec.ID
	}
	if !sameIDs(gotIDs, want) {
		t.Fatalf("cached entry differs from fresh recompute at its own query: cached %v, fresh %v (q=%v k=%d)", gotIDs, want, q, k)
	}
	for i, rec := range e.Records {
		s := 0.0
		for j := range q {
			s += q[j] * rec.Point[j]
		}
		if rec.Score != s {
			t.Fatalf("cached record %d score %v != recomputed %v — cached scores must be byte-equal", i, rec.Score, s)
		}
	}

	samples := sampleEntryRegion(r, e, 6)
	for _, w := range samples {
		bw := mirror.bruteAt(w, k)
		if bw == nil {
			continue
		}
		if !sameIDs(gotIDs, bw) {
			t.Fatalf("entry region unsound at w=%v: cached %v, brute force %v (q=%v k=%d)", w, gotIDs, bw, q, k)
		}
	}
}
