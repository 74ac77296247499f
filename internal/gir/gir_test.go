package gir

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/girlib/gir/internal/geom"
	"github.com/girlib/gir/internal/pager"
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

// fixture bundles a dataset with the ability to mint fresh BRS results
// (Compute consumes the retained heap, so each method needs its own).
type fixture struct {
	tree *rtree.Tree
	pts  []vec.Vector
	q    vec.Vector
	k    int
	f    score.Function
}

func makeFixture(r *rand.Rand, n, d, k int, f score.Function) *fixture {
	pts := make([]vec.Vector, n)
	for i := range pts {
		pts[i] = make(vec.Vector, d)
		for j := range pts[i] {
			pts[i][j] = r.Float64()
		}
	}
	q := make(vec.Vector, d)
	for j := range q {
		q[j] = 0.1 + 0.9*r.Float64()
	}
	tree := rtree.BulkLoad(pager.NewMemStore(), d, pts, nil)
	return &fixture{tree: tree, pts: pts, q: q, k: k, f: f}
}

func (fx *fixture) fresh() *topk.Result { return topk.BRS(fx.tree, fx.f, fx.q, fx.k) }

// freshAt runs the same query shape at a different vector.
func (fx *fixture) freshAt(q vec.Vector) *topk.Result { return topk.BRS(fx.tree, fx.f, q, fx.k) }

// idsOfResult returns the record ids of the fixture's top-k at its query.
func (fx *fixture) idsOfResult() []int64 {
	res := fx.fresh()
	out := make([]int64, len(res.Records))
	for i, r := range res.Records {
		out[i] = r.ID
	}
	return out
}

// sampleLine draws a point on the segment from q through a random
// direction, clipped to the region (for inside samples) or just beyond
// (for outside samples).
func insideSamples(r *rand.Rand, reg *Region, count int) []vec.Vector {
	hs := append(reg.Halfspaces(), reg.Space().Halfspaces()...)
	var out []vec.Vector
	for len(out) < count {
		u := make(vec.Vector, reg.Dim)
		for j := range u {
			u[j] = r.NormFloat64()
		}
		tmin, tmax := lineClip(hs, reg.Query, u)
		if tmin > tmax {
			continue
		}
		t := tmin + (tmax-tmin)*(0.05+0.9*r.Float64())
		out = append(out, vec.Add(reg.Query, vec.Scale(t, u)))
	}
	return out
}

// lineClip returns the interval [tmin, tmax] of t where x + t·u satisfies
// every half-space; tmin > tmax when the line misses them.
func lineClip(hs []geom.Halfspace, x, u vec.Vector) (tmin, tmax float64) {
	tmin, tmax = math.Inf(-1), math.Inf(1)
	for _, h := range hs {
		au, slack := vec.Dot(h.A, u), h.Slack(x)
		switch {
		case au > 1e-15:
			tmin = max(tmin, -slack/au)
		case au < -1e-15:
			tmax = min(tmax, -slack/au)
		case slack < 0:
			return 1, 0
		}
	}
	return tmin, tmax
}

func sameTopK(a []topk.Record, b []topk.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return false
		}
	}
	return true
}

// TestMethodsAgree is the central cross-validation: SP, CP, FP and the
// exhaustive baseline must describe the same region.
func TestMethodsAgree(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 2 + r.Intn(3) // 2..4
		n := 60 + r.Intn(240)
		k := 1 + r.Intn(10)
		fx := makeFixture(r, n, d, k, score.Linear{})

		regions := map[string]*Region{}
		for _, m := range []Method{Exhaustive, SP, CP, FP} {
			reg, _, err := Compute(fx.tree, fx.fresh(), Options{Method: m})
			if err != nil {
				t.Logf("seed %d: %v failed: %v", seed, m, err)
				return false
			}
			if !reg.Contains(fx.q, 1e-9) {
				t.Logf("seed %d: %v region does not contain the query", seed, m)
				return false
			}
			regions[m.String()] = reg
		}
		base := regions["Exhaustive"]
		// Membership agreement at random box points and at points inside
		// the baseline region.
		probes := insideSamples(r, base, 30)
		for trial := 0; trial < 60; trial++ {
			p := make(vec.Vector, d)
			for j := range p {
				p[j] = r.Float64()
			}
			probes = append(probes, p)
		}
		for _, p := range probes {
			want := base.Contains(p, 1e-9)
			for name, reg := range regions {
				got := reg.Contains(p, 1e-9)
				if got != want {
					// Tolerate genuine boundary points only.
					if minAbsSlack(base, p) > 1e-6 {
						t.Logf("seed %d: %s disagrees with baseline at %v", seed, name, p)
						return false
					}
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(103))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func minAbsSlack(reg *Region, p vec.Vector) float64 {
	best := 1e18
	for _, c := range reg.Constraints {
		s := vec.Dot(c.Normal, p)
		if s < 0 {
			s = -s
		}
		if n := vec.Norm(c.Normal); n > 0 {
			s /= n
		}
		if s < best {
			best = s
		}
	}
	return best
}

// TestDefiningProperty checks Definition 1 directly: every sampled query
// vector inside the GIR reproduces the top-k result exactly (composition
// and order), via an independent BRS run.
func TestDefiningProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 2 + r.Intn(3)
		n := 80 + r.Intn(300)
		k := 1 + r.Intn(8)
		fx := makeFixture(r, n, d, k, score.Linear{})
		res := fx.fresh()
		want := res.Records
		reg, _, err := Compute(fx.tree, res, Options{Method: FP})
		if err != nil {
			t.Log(err)
			return false
		}
		for _, p := range insideSamples(r, reg, 15) {
			if !allPositive(p) {
				continue
			}
			got := topk.BRS(fx.tree, fx.f, p, fx.k)
			if !sameTopK(got.Records, want) {
				// Points numerically on the boundary may legitimately tie.
				if minAbsSlack(reg, p) > 1e-7 {
					t.Logf("seed %d: result changed inside the GIR at %v", seed, p)
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(107))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func allPositive(p vec.Vector) bool {
	for _, x := range p {
		if x <= 1e-9 {
			return false
		}
	}
	return true
}

// TestMaximality checks the other half of the definition: stepping just
// OUTSIDE a bounding constraint perturbs the result exactly as the
// constraint's attribution predicts (Section 3.2).
func TestMaximality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 2 + r.Intn(2)
		n := 80 + r.Intn(200)
		k := 2 + r.Intn(6)
		fx := makeFixture(r, n, d, k, score.Linear{})
		res := fx.fresh()
		want := res.Records
		reg, _, err := Compute(fx.tree, res, Options{Method: FP})
		if err != nil {
			return false
		}
		for ci, c := range reg.Constraints {
			// March from q toward the constraint plane along −Normal.
			nn := vec.Dot(c.Normal, c.Normal)
			if nn == 0 {
				continue
			}
			slack := vec.Dot(c.Normal, reg.Query)
			tStar := slack / nn
			qOut := vec.Sub(reg.Query, vec.Scale(tStar*(1+1e-6), c.Normal))
			// Usable only if q' stays in the box, strictly positive, and
			// violates just this one constraint.
			if !allPositive(qOut) || !inBox(qOut) {
				continue
			}
			violations := 0
			for cj, c2 := range reg.Constraints {
				if vec.Dot(c2.Normal, qOut) < -1e-12 {
					violations++
					if cj != ci {
						violations = 99
					}
				}
			}
			if violations != 1 {
				continue
			}
			got := topk.BRS(fx.tree, fx.f, qOut, fx.k).Records
			pred := predictPerturbation(want, c)
			if pred != nil && !sameTopK(got, pred) {
				if minAbsSlack(reg, qOut) < 1e-7 {
					continue // numerically on the plane; ties possible
				}
				t.Logf("seed %d: crossing constraint %d (%s) gave unexpected result", seed, ci, c.Describe())
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(109))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func inBox(p vec.Vector) bool {
	for _, x := range p {
		if x < 0 || x > 1 {
			return false
		}
	}
	return true
}

// predictPerturbation applies Section 3.2: a reorder constraint swaps the
// two adjacent records; a replace constraint substitutes the k-th record.
func predictPerturbation(res []topk.Record, c Constraint) []topk.Record {
	out := append([]topk.Record(nil), res...)
	if c.Kind == Reorder {
		for i := 0; i+1 < len(out); i++ {
			if out[i].ID == c.A && out[i+1].ID == c.B {
				out[i], out[i+1] = out[i+1], out[i]
				return out
			}
		}
		return nil
	}
	if out[len(out)-1].ID != c.A {
		return nil
	}
	out[len(out)-1] = topk.Record{ID: c.B}
	return out
}

// TestFigure3Example reproduces the Phase-1 worked example of the paper
// (Figure 3): four result records and the three half-plane normals.
func TestFigure3Example(t *testing.T) {
	recs := []topk.Record{
		{ID: 1, Point: vec.Vector{0.54, 0.5}},
		{ID: 2, Point: vec.Vector{0.5, 0.48}},
		{ID: 3, Point: vec.Vector{0.52, 0.35}},
		{ID: 4, Point: vec.Vector{0.4, 0.4}},
	}
	q := vec.Vector{0.4, 0.6}
	// Verify the paper's scores first.
	wantScores := []float64{0.516, 0.488, 0.418, 0.4}
	for i, rec := range recs {
		if got := (score.Linear{}).Score(rec.Point, q); !almost(got, wantScores[i]) {
			t.Fatalf("score(p%d) = %v, want %v", i+1, got, wantScores[i])
		}
	}
	res := &topk.Result{Query: q, K: 4, Func: score.Linear{}, Records: recs}
	var sc scratch
	sc.reset(2, score.Linear{}.Transform)
	sc.phase1(res)
	cons, _ := sc.finish(q, true)
	wantNormals := []vec.Vector{{0.04, 0.02}, {-0.02, 0.13}, {0.12, -0.05}}
	if len(cons) != 3 {
		t.Fatalf("got %d phase-1 constraints, want 3", len(cons))
	}
	for i, c := range cons {
		if !vec.Equal(c.Normal, wantNormals[i], 1e-12) {
			t.Errorf("constraint %d normal = %v, want %v", i, c.Normal, wantNormals[i])
		}
		if c.Kind != Reorder {
			t.Errorf("constraint %d kind = %v", i, c.Kind)
		}
	}
	// The example's q' = (0.3, 0.2) from Figure 2-style wedge must satisfy
	// all three half-planes.
	for _, c := range cons {
		if vec.Dot(c.Normal, vec.Vector{0.3, 0.2}) < 0 {
			t.Errorf("q' = (0.3,0.2) violates %v", c.Normal)
		}
	}
}

func almost(a, b float64) bool { return a-b < 1e-9 && b-a < 1e-9 }

// TestGIRStarMethodsAgree cross-validates the order-insensitive variant,
// including the R⁻ pruning, against the literal Definition 2 baseline.
func TestGIRStarMethodsAgree(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 2 + r.Intn(2)
		n := 60 + r.Intn(150)
		k := 2 + r.Intn(6)
		fx := makeFixture(r, n, d, k, score.Linear{})

		regions := map[string]*Region{}
		for _, m := range []Method{Exhaustive, SP, CP, FP} {
			reg, _, err := ComputeStar(fx.tree, fx.fresh(), Options{Method: m})
			if err != nil {
				return false
			}
			if !reg.Contains(fx.q, 1e-9) {
				return false
			}
			regions[m.String()+"*"] = reg
		}
		base := regions["Exhaustive*"]
		probes := insideSamples(r, base, 25)
		for trial := 0; trial < 50; trial++ {
			p := make(vec.Vector, d)
			for j := range p {
				p[j] = r.Float64()
			}
			probes = append(probes, p)
		}
		for _, p := range probes {
			want := base.Contains(p, 1e-9)
			for _, reg := range regions {
				if reg.Contains(p, 1e-9) != want && minAbsSlack(base, p) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(113))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestGIRStarEnclosesGIR: the order-insensitive region is defined by looser
// conditions and must fully enclose the order-sensitive one (Section 7.1).
func TestGIRStarEnclosesGIR(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 2 + r.Intn(3)
		fx := makeFixture(r, 100+r.Intn(200), d, 2+r.Intn(6), score.Linear{})
		reg, _, err := Compute(fx.tree, fx.fresh(), Options{Method: FP})
		if err != nil {
			return false
		}
		star, _, err := ComputeStar(fx.tree, fx.fresh(), Options{Method: FP})
		if err != nil {
			return false
		}
		for _, p := range insideSamples(r, reg, 25) {
			if !star.Contains(p, 1e-7) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(127))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestGIRStarDefiningProperty: inside GIR*, the result COMPOSITION is
// preserved (order may change).
func TestGIRStarDefiningProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 2 + r.Intn(2)
		fx := makeFixture(r, 80+r.Intn(200), d, 2+r.Intn(6), score.Linear{})
		res := fx.fresh()
		wantSet := map[int64]bool{}
		for _, rec := range res.Records {
			wantSet[rec.ID] = true
		}
		reg, _, err := ComputeStar(fx.tree, res, Options{Method: FP})
		if err != nil {
			return false
		}
		for _, p := range insideSamples(r, reg, 15) {
			if !allPositive(p) {
				continue
			}
			got := topk.BRS(fx.tree, fx.f, p, fx.k)
			same := true
			for _, rec := range got.Records {
				if !wantSet[rec.ID] {
					same = false
				}
			}
			if !same && minAbsSlack(reg, p) > 1e-7 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(131))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestNonLinearSP: SP handles the monotone non-linear functions of
// Section 7.2 and agrees with the exhaustive baseline under the same
// function; the defining property holds under BRS with that function.
func TestNonLinearSP(t *testing.T) {
	fns := []score.Function{score.NewPolynomial(3), score.Mixed{}}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 3
		fx := makeFixture(r, 80+r.Intn(150), d, 1+r.Intn(6), fns[r.Intn(len(fns))])
		res := fx.fresh()
		want := res.Records
		regSP, _, err := Compute(fx.tree, res, Options{Method: SP})
		if err != nil {
			return false
		}
		regEx, _, err := Compute(fx.tree, fx.fresh(), Options{Method: Exhaustive})
		if err != nil {
			return false
		}
		for _, p := range insideSamples(r, regEx, 10) {
			if regSP.Contains(p, 1e-9) != regEx.Contains(p, 1e-9) && minAbsSlack(regEx, p) > 1e-6 {
				return false
			}
			if !allPositive(p) {
				continue
			}
			got := topk.BRS(fx.tree, fx.f, p, fx.k)
			if !sameTopK(got.Records, want) && minAbsSlack(regEx, p) > 1e-7 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(137))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestNonLinearRejectsCPFP(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	fx := makeFixture(r, 60, 3, 3, score.Mixed{})
	for _, m := range []Method{CP, FP} {
		if _, _, err := Compute(fx.tree, fx.fresh(), Options{Method: m}); err == nil {
			t.Errorf("%v accepted a non-linear scoring function", m)
		}
		if _, _, err := ComputeStar(fx.tree, fx.fresh(), Options{Method: m}); err == nil {
			t.Errorf("%v* accepted a non-linear scoring function", m)
		}
	}
}

// TestKEqualsN: with every record in the result, Phase 2 contributes
// nothing and the GIR is the Phase-1 cone.
func TestKEqualsN(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	n := 30
	fx := makeFixture(r, n, 2, n, score.Linear{})
	for _, m := range []Method{SP, CP, FP, Exhaustive} {
		reg, st, err := Compute(fx.tree, fx.fresh(), Options{Method: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !reg.Contains(fx.q, 1e-9) {
			t.Errorf("%v: query outside its own GIR", m)
		}
		if st.SkylineSize != 0 && m == SP {
			t.Errorf("SP: skyline of empty D\\R has %d records", st.SkylineSize)
		}
	}
}

func TestK1NoPhase1(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	fx := makeFixture(r, 120, 3, 1, score.Linear{})
	reg, _, err := Compute(fx.tree, fx.fresh(), Options{Method: FP})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range reg.Constraints {
		if c.Kind != Replace {
			t.Errorf("k=1 GIR has a reorder constraint")
		}
	}
}

// TestStatsSanity: FP's critical set is never larger than CP's hull
// vertices, which is never larger than SP's skyline (Figures 6 and 8).
func TestStatsSanity(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 10; trial++ {
		d := 2 + r.Intn(3)
		fx := makeFixture(r, 200+r.Intn(300), d, 5, score.Linear{})
		_, stSP, err := Compute(fx.tree, fx.fresh(), Options{Method: SP})
		if err != nil {
			t.Fatal(err)
		}
		_, stCP, err := Compute(fx.tree, fx.fresh(), Options{Method: CP})
		if err != nil {
			t.Fatal(err)
		}
		_, stFP, err := Compute(fx.tree, fx.fresh(), Options{Method: FP})
		if err != nil {
			t.Fatal(err)
		}
		if stCP.HullVertices > stSP.SkylineSize {
			t.Errorf("|SL∩CH| = %d > |SL| = %d", stCP.HullVertices, stSP.SkylineSize)
		}
		if stFP.Critical > stCP.HullVertices+1 {
			t.Errorf("critical = %d > hull vertices = %d", stFP.Critical, stCP.HullVertices)
		}
		if stFP.Constraints > stFP.RawConstraints {
			t.Error("reduction increased the constraint count")
		}
	}
}

// TestSkipReduce: the unreduced region must describe the same point set.
func TestSkipReduce(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	fx := makeFixture(r, 150, 3, 5, score.Linear{})
	reduced, _, err := Compute(fx.tree, fx.fresh(), Options{Method: SP})
	if err != nil {
		t.Fatal(err)
	}
	raw, _, err := Compute(fx.tree, fx.fresh(), Options{Method: SP, SkipReduce: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(raw.Constraints) < len(reduced.Constraints) {
		t.Errorf("raw %d < reduced %d", len(raw.Constraints), len(reduced.Constraints))
	}
	for trial := 0; trial < 200; trial++ {
		p := vec.Vector{r.Float64(), r.Float64(), r.Float64()}
		if reduced.Contains(p, 1e-9) != raw.Contains(p, 1e-9) && minAbsSlack(reduced, p) > 1e-6 {
			t.Fatalf("reduced and raw disagree at %v", p)
		}
	}
}

// TestFPConstraintsDescribe: every constraint of a computed region names
// the perturbation crossing it causes.
func TestFPConstraintsDescribe(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	fx := makeFixture(r, 150, 2, 4, score.Linear{})
	reg, _, err := Compute(fx.tree, fx.fresh(), Options{Method: FP})
	if err != nil {
		t.Fatal(err)
	}
	if len(reg.Constraints) == 0 {
		t.Skip("degenerate draw: unconstrained region")
	}
	for _, c := range reg.Constraints {
		if c.Describe() == "" {
			t.Error("empty description")
		}
	}
}
