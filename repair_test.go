package gir

import (
	"math/rand"
	"testing"

	cacheint "github.com/girlib/gir/internal/cache"
	"github.com/girlib/gir/internal/domain"
	"github.com/girlib/gir/internal/maintain"
	"github.com/girlib/gir/internal/vec"
)

// This file is the differential harness for repair-instead-of-evict cache
// maintenance: under randomized Insert/Delete churn, every entry the
// repair layer patches (and, periodically, every entry it keeps) is held
// against a from-scratch recompute at the same dataset version. A repair
// that served a displaced record, promoted the wrong candidate, or left
// the region one epsilon too wide shows up here as a mismatch against
// brute force or as a repaired-region sample escaping the fresh region.
//
// The contract checked per entry:
//   - result set: byte-equal (ids, order) to a fresh top-k at the entry's
//     query and the current dataset version;
//   - k-th score: byte-equal to the recomputed dot product;
//   - region soundness: every sampled weight vector inside the entry's
//     region reproduces the entry's result by brute force, and lies inside
//     the freshly computed GIR (for the rotating Method) and GIR* — i.e.
//     a repaired region is never wider than the true immutable region.
//
// Exact-score ties are skipped, mirroring the documented limitation: ties
// are not invalidation events and tie order is outside the GIR contract
// (internal/invalidate); the repair classifier refuses to repair across
// them, so none of this weakens the harness for continuous data.

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
// query, points of its inscribed box, and accepted jittered queries. For
// simplex-domain entries every candidate is renormalized onto Σw=1 first
// (inscribed-box corners and raw jitters are off the simplex, and the
// region would reject them).
func sampleEntryRegion(r *rand.Rand, e *cacheint.Entry, count int) [][]float64 {
	q := e.Region.Query
	simplex := e.Region.Space().Kind() == domain.KindSimplex
	out := [][]float64{append([]float64(nil), q...)}
	for tries := 0; len(out) < count && tries < 30*count; tries++ {
		w := make([]float64, e.Region.Dim)
		if tries%2 == 0 && len(e.InnerLo) == len(w) && len(e.InnerHi) == len(w) {
			for j := range w {
				w[j] = e.InnerLo[j] + (e.InnerHi[j]-e.InnerLo[j])*r.Float64()
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
// mirror state. deep additionally recomputes the GIR from scratch with the
// given method (plus GIR*) and asserts the entry's region is contained in
// the fresh one.
func verifyEntry(t *testing.T, r *rand.Rand, ds *Dataset, mirror diffMirror, e *cacheint.Entry, deep bool, method Method) {
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
			t.Fatalf("cached record %d score %v != recomputed %v — repaired scores must be byte-equal", i, rec.Score, s)
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
	if !deep {
		return
	}

	// From-scratch differential: recompute the result and its region with a
	// real Method and with GIR*; the entry's region must be inside both
	// (repair may shrink a region below maximal, never widen it).
	res, err := ds.TopK(q, k)
	if err != nil {
		t.Fatal(err)
	}
	freshIDs := idsOf(res.Records)
	if !sameIDs(gotIDs, freshIDs) {
		t.Fatalf("cached entry differs from Dataset.TopK: cached %v, fresh %v", gotIDs, freshIDs)
	}
	if ks := res.Records[k-1].Score; e.Records[k-1].Score != ks {
		t.Fatalf("cached k-th score %v != fresh %v — must be byte-equal", e.Records[k-1].Score, ks)
	}
	fresh, err := ds.ComputeGIR(res, method)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := ds.TopK(q, k)
	if err != nil {
		t.Fatal(err)
	}
	star, err := ds.ComputeGIRStar(res2, FP)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range samples {
		if !fresh.Contains(w) {
			t.Fatalf("repaired region is wider than the fresh %v GIR at w=%v (q=%v k=%d)", method, w, q, k)
		}
		if !star.Contains(w) {
			t.Fatalf("repaired region is wider than the fresh GIR* at w=%v (q=%v k=%d)", w, q, k)
		}
	}
}

func TestRepairDifferential(t *testing.T) {
	runRepairDifferential(t, SpaceBox)
}

// TestRepairDifferentialSimplex runs the same 10k-step churn differential
// over the Σw=1 query space: repaired simplex entries must byte-match
// fresh recomputes and their regions must stay inside the fresh simplex
// GIR/GIR* for every sampled sum-normalized weight vector.
func TestRepairDifferentialSimplex(t *testing.T) {
	runRepairDifferential(t, SpaceSimplex)
}

func runRepairDifferential(t *testing.T, space Space) {
	steps := 10000
	if testing.Short() {
		steps = 1500
	}
	r := rand.New(rand.NewSource(2014))
	const n, d = 300, 3
	points := make([][]float64, n)
	mirror := make(diffMirror, n)
	for i := range points {
		p := []float64{r.Float64(), r.Float64(), r.Float64()}
		points[i] = p
		mirror[int64(i)] = p
	}
	ds, err := NewDatasetInSpace(points, space)
	if err != nil {
		t.Fatal(err)
	}
	c := newCache(32)

	// Query pool; refills during churn keep the cache populated as entries
	// evict, so repair opportunities keep arising.
	pool := make([][]float64, 24)
	ks := make([]int, len(pool))
	for i := range pool {
		pool[i] = []float64{0.15 + 0.7*r.Float64(), 0.15 + 0.7*r.Float64(), 0.15 + 0.7*r.Float64()}
		if space == SpaceSimplex {
			pool[i] = space.Normalize(pool[i])
		}
		ks[i] = 2 + r.Intn(6)
	}
	methods := []Method{SP, CP, FP, Exhaustive}
	fill := func(pi int) { fillEntry(t, ds, pool[pi], ks[pi], c) }
	for pi := range pool {
		fill(pi)
	}

	seen := make(map[*cacheint.Entry]bool)
	for _, e := range c.inner.Entries() {
		seen[e] = true
	}

	var insRepaired, delRepaired, evicted, deepChecks int
	nextID := int64(1 << 40)
	var live []int64
	for id := range mirror {
		live = append(live, id)
	}

	for step := 0; step < steps; step++ {
		var st maintain.Outcome
		if len(live) > n/2 && r.Intn(3) == 0 {
			// Delete a random live record (base or churned) so result
			// records really do disappear.
			j := r.Intn(len(live))
			id := live[j]
			p := mirror[id]
			if ok, err := ds.Delete(id, p); err != nil || !ok {
				t.Fatalf("step %d: lost record %d (%v, %v)", step, id, ok, err)
			}
			delete(mirror, id)
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			st = drain(c, []maintain.Mutation{{ID: id}})
			delRepaired += st.Repaired
		} else {
			p := []float64{r.Float64(), r.Float64(), r.Float64()}
			if r.Intn(4) == 0 { // adversarial: near the top corner
				for j := range p {
					p[j] = 0.8 + 0.19*r.Float64()
				}
			}
			id := nextID
			nextID++
			if err := ds.Insert(id, p); err != nil {
				t.Fatal(err)
			}
			mirror[id] = p
			live = append(live, id)
			st = drain(c, []maintain.Mutation{{Insert: true, ID: id, Point: p}})
			insRepaired += st.Repaired
		}
		evicted += st.Evicted

		// Every entry pointer not seen before is a repaired replacement:
		// verify it now, deeply for a rotating Method on a subsample.
		for _, e := range c.inner.Entries() {
			if seen[e] {
				continue
			}
			seen[e] = true
			deep := deepChecks < 160 || step%211 == 0
			if deep {
				deepChecks++
			}
			verifyEntry(t, r, ds, mirror, e, deep, methods[deepChecks%len(methods)])
		}

		// Periodically verify EVERY cached entry (repaired or merely
		// absorbed) and refill the cache so churn keeps biting.
		if step%97 == 0 {
			for _, e := range c.inner.Entries() {
				verifyEntry(t, r, ds, mirror, e, false, FP)
			}
		}
		if step%41 == 0 {
			pi := r.Intn(len(pool))
			fill(pi)
			for _, e := range c.inner.Entries() {
				seen[e] = true // fresh fills are not repairs
			}
		}
	}

	if insRepaired == 0 {
		t.Error("no insert repairs occurred — differential test is vacuous for Insert")
	}
	if delRepaired == 0 {
		t.Error("no delete repairs occurred — differential test is vacuous for Delete")
	}
	if evicted == 0 {
		t.Error("nothing evicted — churn never hit the conservative path, suspicious")
	}
	t.Logf("%d steps: %d insert repairs, %d delete repairs, %d evictions, %d deep (all-Method) checks",
		steps, insRepaired, delRepaired, evicted, deepChecks)
}
