package gir

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	cacheint "github.com/girlib/gir/internal/cache"
	"github.com/girlib/gir/internal/maintain"
	"github.com/girlib/gir/internal/vec"
)

// This file is the differential harness for BATCHED cache maintenance:
// under the same 10k-step churn stream the repair harness uses, a cache
// reconciled by the planner in bursts of B mutations must end in a state
// byte-equal to a cache reconciled one mutation at a time, as the engine's
// writes drain — same entry set, same regions (constraint for constraint),
// same records and scores, same candidate sets — while performing one scan
// per pass. The planner's verdict chain (absorb /
// repair-and-keep-checking / evict-short-circuit) is exactly the
// per-mutation recurrence unrolled, and this test pins it.

// entryFingerprint renders one cached entry canonically. Entry iteration
// order differs between caches (shard placement is seeded per cache), so
// fingerprints are sorted before comparison; everything order-sensitive
// WITHIN an entry (records, constraints, candidates — all produced by
// deterministic append sequences) is serialized in storage order.
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
	fmt.Fprintf(&b, "box %v %v\n", e.InnerLo, e.InnerHi)
	for _, c := range e.Cand {
		fmt.Fprintf(&b, "t %d %x\n", c.ID, c.Score)
	}
	for _, hi := range e.Bounds {
		fmt.Fprintf(&b, "b %v\n", hi)
	}
	fmt.Fprintf(&b, "cc=%v\n", e.CandComplete())
	return b.String()
}

// newCache returns a cache of the given capacity outside any engine, for
// the harnesses that drive fills and drain passes step by step.
func newCache(capacity int) *Cache { return &Cache{inner: cacheint.New(capacity)} }

// fillEntry answers q the way the engine's miss path does — one
// answerGroup member, its region built by FP and its repair state retained
// — and puts the answer into every given cache through prepareCachePut and
// commitPut. Each cache gets its own staged copy, and its own candidate
// slice, which the entry takes over.
func fillEntry(tb testing.TB, ds *Dataset, q []float64, k int, caches ...*Cache) {
	tb.Helper()
	answers, _ := ds.answerGroup([]vec.Vector{q}, []int{k}, true, true, FP)
	a := &answers[0]
	if a.err != nil || a.girErr != nil {
		tb.Fatalf("fill at %v: %v, %v", q, a.err, a.girErr)
	}
	for _, c := range caches {
		if !c.commitPut(prepareCachePut(a.g, a.recs, slices.Clone(a.cand), a.bounds, a.candOK)) {
			tb.Fatal("commitPut refused an order-sensitive region")
		}
	}
}

// drain reconciles c with an ordered batch of applied writes in one pass
// of a fresh repair planner — the engine's drain step, over a batch.
func drain(c *Cache, ms []maintain.Mutation) maintain.Outcome {
	p := maintain.Planner{Repair: true}
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
	// identical (fillEntry hands each cache its own candidate slice, so the
	// two entries never alias).
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
		if st.Affected != st.Repaired+st.Evicted {
			t.Fatalf("batch pass breaks the invariant: affected %d != repaired %d + evicted %d",
				st.Affected, st.Repaired, st.Evicted)
		}
		totBatch.Affected += st.Affected
		totBatch.Repaired += st.Repaired
		totBatch.Evicted += st.Evicted
		totBatch.Predicates += st.Predicates
		for _, m := range ms {
			s1 := drain(cSeq, []maintain.Mutation{m})
			totSeq.Affected += s1.Affected
			totSeq.Repaired += s1.Repaired
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
				verifyEntry(t, r, ds, mirror, e, false, FP)
			}
		}
		if (step/burst)%5 == 0 {
			fill(r.Intn(len(pool)))
		}
	}

	if totBatch.Affected != totSeq.Affected || totBatch.Repaired != totSeq.Repaired || totBatch.Evicted != totSeq.Evicted {
		t.Errorf("event counts diverge: batched %+v, sequential %+v", totBatch, totSeq)
	}
	if totBatch.Repaired == 0 {
		t.Error("no repairs occurred — differential test is vacuous for the repair chain")
	}
	if totBatch.Evicted == 0 {
		t.Error("nothing evicted — the short-circuit path never ran, suspicious")
	}
	// The batched chain evaluates each (mutation, entry) pair exactly as
	// often as the sequential recurrence — never more.
	if totBatch.Predicates != totSeq.Predicates {
		t.Errorf("batched chain changed the predicate work: batched %d, sequential %d",
			totBatch.Predicates, totSeq.Predicates)
	}
	t.Logf("%d mutations in bursts of %d: affected=%d repaired=%d evicted=%d; predicates batched=%d sequential=%d",
		steps, burst, totBatch.Affected, totBatch.Repaired, totBatch.Evicted,
		totBatch.Predicates, totSeq.Predicates)
}
