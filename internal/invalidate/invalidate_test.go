package invalidate

import (
	"math/rand"
	"testing"

	"github.com/girlib/gir/internal/domain"
	"github.com/girlib/gir/internal/geom"
	gir "github.com/girlib/gir/internal/gir"
	"github.com/girlib/gir/internal/lp"
	"github.com/girlib/gir/internal/pager"
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
	"github.com/girlib/gir/internal/viz"
)

// fixture is a dataset with one computed region + its result records.
type fixture struct {
	reg  *gir.Region
	recs []topk.Record
	lo   vec.Vector // MAH of reg
	hi   vec.Vector
}

func makeFixture(t *testing.T, r *rand.Rand, n, d, k int) *fixture {
	t.Helper()
	pts := make([]vec.Vector, n)
	for i := range pts {
		pts[i] = make(vec.Vector, d)
		for j := range pts[i] {
			pts[i][j] = r.Float64()
		}
	}
	q := make(vec.Vector, d)
	for j := range q {
		q[j] = 0.15 + 0.7*r.Float64()
	}
	tree := rtree.BulkLoad(pager.NewMemStore(), d, pts, nil)
	res := topk.BRS(tree, score.Linear{}, q, k)
	reg, _, err := gir.Compute(tree, res, gir.Options{Method: gir.FP})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := viz.MAH(reg, reg.Query)
	return &fixture{reg: reg, recs: res.Records, lo: lo, hi: hi}
}

// sampleRegion draws count weight vectors inside the region: the query,
// MAH corners/interiors, and accepted jittered queries.
func (fx *fixture) sampleRegion(r *rand.Rand, count int) []vec.Vector {
	d := fx.reg.Dim
	out := []vec.Vector{fx.reg.Query.Clone()}
	for len(out) < count {
		w := make(vec.Vector, d)
		if r.Intn(2) == 0 { // uniform in the MAH box — inside by construction
			for j := range w {
				w[j] = fx.lo[j] + (fx.hi[j]-fx.lo[j])*r.Float64()
			}
		} else { // jittered query, rejection-sampled
			for j := range w {
				w[j] = fx.reg.Query[j] + 0.05*r.NormFloat64()
			}
			if !fx.reg.Contains(w, 0) {
				continue
			}
		}
		out = append(out, w)
	}
	return out
}

func TestDeleteAffects(t *testing.T) {
	recs := []topk.Record{{ID: 3}, {ID: 7}, {ID: 11}}
	if !DeleteAffects(recs, 7) {
		t.Error("deleting a result record must affect the entry")
	}
	if DeleteAffects(recs, 8) {
		t.Error("deleting a non-result record must not affect the entry")
	}
	if DeleteAffects(nil, 8) {
		t.Error("empty result affected")
	}
}

func TestInsertAffectsExtremes(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	fx := makeFixture(t, r, 400, 3, 5)
	d := fx.reg.Dim

	// A record at the top corner outscores everything for any nonzero
	// nonnegative weight vector.
	top := make(vec.Vector, d)
	for j := range top {
		top[j] = 0.999
	}
	if !InsertAffects(fx.reg, fx.recs, top, fx.lo, fx.hi) {
		t.Error("dominating insert not flagged")
	}

	// A record at the bottom corner is dominated by the k-th record and can
	// never enter.
	bottom := make(vec.Vector, d)
	for j := range bottom {
		bottom[j] = 0.0001
	}
	if InsertAffects(fx.reg, fx.recs, bottom, fx.lo, fx.hi) {
		t.Error("dominated insert flagged")
	}

	// A duplicate of the k-th record ties it everywhere: it enters the
	// top-k iff its id is smaller, as (score desc, id asc) ranks ties.
	pk := fx.recs[len(fx.recs)-1]
	kth := pk.Point.Clone()
	if InsertAffects(fx.reg, fx.recs, kth, fx.lo, fx.hi) {
		t.Error("exact duplicate of the k-th record with a larger id flagged")
	}
	if !InsertAffectsID(fx.reg, fx.recs, pk.ID-1, kth, fx.lo, fx.hi) {
		t.Error("exact duplicate of the k-th record with a smaller id not flagged")
	}
	// The origin ties p_k only at w = 0, which the box region contains but
	// which ranks nothing: a smaller id does not let it in.
	if InsertAffectsID(fx.reg, fx.recs, pk.ID-1, make(vec.Vector, d), fx.lo, fx.hi) {
		t.Error("the origin with a smaller id flagged")
	}

	// Degenerate inputs must evict conservatively.
	if !InsertAffects(nil, fx.recs, top, nil, nil) {
		t.Error("nil region must be conservative")
	}
	if !InsertAffects(fx.reg, nil, top, nil, nil) {
		t.Error("empty records must be conservative")
	}
	if !InsertAffects(fx.reg, fx.recs, top[:d-1], nil, nil) {
		t.Error("dimension mismatch must be conservative")
	}
}

// TestInsertAffectsComplete is the safety property eviction correctness
// rests on: whenever some weight vector in the region admits the new
// record into the top-k (with a real margin), InsertAffects must say so.
// The converse (conservative false positives) is allowed and not asserted.
func TestInsertAffectsComplete(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		fx := makeFixture(t, r, 300, 2+trial%3, 3+trial%4)
		d := fx.reg.Dim
		pk := fx.recs[len(fx.recs)-1].Point
		samples := fx.sampleRegion(r, 60)
		for cand := 0; cand < 40; cand++ {
			p := make(vec.Vector, d)
			for j := range p {
				p[j] = r.Float64()
			}
			affected := InsertAffects(fx.reg, fx.recs, p, fx.lo, fx.hi)
			if affected {
				continue
			}
			for _, w := range samples {
				if vec.Dot(w, p)-vec.Dot(w, pk) > 1e-7 {
					t.Fatalf("trial %d: insert %v admitted at w=%v (margin %g) but InsertAffects said unaffected",
						trial, p, w, vec.Dot(w, p)-vec.Dot(w, pk))
				}
			}
		}
	}
}

// TestInsertAffectsBoxConsistent pins that the inscribed-box fast path is
// an acceleration, not a semantic change: with and without the box the
// decision is identical.
func TestInsertAffectsBoxConsistent(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	fx := makeFixture(t, r, 300, 3, 5)
	for cand := 0; cand < 60; cand++ {
		p := make(vec.Vector, fx.reg.Dim)
		for j := range p {
			p[j] = r.Float64()
		}
		with := InsertAffects(fx.reg, fx.recs, p, fx.lo, fx.hi)
		without := InsertAffects(fx.reg, fx.recs, p, nil, nil)
		if with != without {
			t.Fatalf("insert %v: with box %v, without box %v", p, with, without)
		}
	}
}

// TestCertificateNeverOverclaims holds the closed-form implication
// certificate against the LP it stands in front of, on both query spaces:
// whenever geom.ImpliedByOne says a·w ≥ 0 follows from one region normal,
// the maximum of −a·w over the region is at most Tol. The table covers the
// certificate's branches — a zero component in n (the a_i ≥ 0 branch),
// λ = 0 (plain dominance) and an empty interval; InsertAffects must keep
// in the first two without being told.
func TestCertificateNeverOverclaims(t *testing.T) {
	pk := vec.Vector{0.6, 0.5, 0.4}
	cases := []struct {
		name    string
		n       vec.Vector // the region's one constraint
		p       vec.Vector // the inserted record; a = p_k − p
		implied bool
	}{
		{"zero component in n, a_i ≥ 0 there", vec.Vector{1, -1, 0}, vec.Vector{0.3, 0.7, 0.35}, true}, // a = (0.3,−0.2,0.05)
		{"zero component in n, a_i < 0 there", vec.Vector{1, -1, 0}, vec.Vector{0.3, 0.7, 0.45}, false},
		{"λ = 0: plain dominance", vec.Vector{-1, 1, 0.5}, vec.Vector{0.5, 0.5, 0.1}, true},
		{"λ pinned to one value", vec.Vector{1, -1, 0}, vec.Vector{0.4, 0.7, 0.4}, true}, // a = 0.2·n
		{"empty interval", vec.Vector{1, -1, 0}, vec.Vector{0.5, 0.7, 0.4}, false},       // a = (0.1,−0.2,0): λ ≤ 0.1, λ ≥ 0.2
	}
	for _, c := range cases {
		for _, dom := range []domain.Domain{domain.UnitBox(3), domain.Simplex(3)} {
			q := dom.Normalize(vec.Vector{0.6, 0.3, 0.1})
			if c.n[0] < 0 {
				q = dom.Normalize(vec.Vector{0.1, 0.6, 0.3})
			}
			reg := &gir.Region{Dim: 3, Query: q, Domain: dom, Constraints: []gir.Constraint{{Normal: c.n}}}
			a := vec.Sub(pk, c.p)
			if got := geom.ImpliedByOne(a, c.n); got != c.implied {
				t.Errorf("%s: ImpliedByOne = %v, want %v", c.name, got, c.implied)
				continue
			}
			sol := dom.MaximizeLinear(new(lp.Solver), vec.Scale(-1, a), []lp.Constraint{{Coef: c.n, Op: lp.GE, RHS: 0}})
			if sol.Status != lp.Optimal {
				t.Fatalf("%s (%s): LP status %v", c.name, dom.Name(), sol.Status)
			}
			if c.implied && sol.Objective > Tol {
				t.Errorf("%s (%s): certificate says implied, the LP finds a margin of %g", c.name, dom.Name(), sol.Objective)
			}
			recs := []topk.Record{{ID: 1, Point: pk}}
			if got, want := InsertAffects(reg, recs, c.p, nil, nil), sol.Objective > Tol; got != want {
				t.Errorf("%s (%s): InsertAffects = %v, the LP says %v (margin %g)", c.name, dom.Name(), got, want, sol.Objective)
			}
		}
	}
}
