package viz

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/girlib/gir/internal/domain"
	"github.com/girlib/gir/internal/gir"
	"github.com/girlib/gir/internal/pager"
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

// regionFor builds a real GIR to visualize.
func regionFor(r *rand.Rand, n, d, k int) (*gir.Region, *rtree.Tree, vec.Vector) {
	pts := make([]vec.Vector, n)
	for i := range pts {
		pts[i] = make(vec.Vector, d)
		for j := range pts[i] {
			pts[i][j] = r.Float64()
		}
	}
	q := make(vec.Vector, d)
	for j := range q {
		q[j] = 0.15 + 0.8*r.Float64()
	}
	tree := rtree.BulkLoad(pager.NewMemStore(), d, pts, nil)
	res := topk.BRS(tree, score.Linear{}, q, k)
	reg, _, err := gir.Compute(tree, res, gir.Options{Method: gir.FP})
	if err != nil {
		panic(err)
	}
	return reg, tree, q
}

// Property: each LIR interval contains the query weight, and sliding the
// weight to any point strictly inside the interval keeps the query inside
// the region (the definition of the interactive projection).
func TestLIRsWithinRegion(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 2 + r.Intn(3)
		reg, _, q := regionFor(r, 100+r.Intn(200), d, 1+r.Intn(6))
		ivs := LIRs(reg, q)
		if len(ivs) != d {
			return false
		}
		for i, iv := range ivs {
			if iv.Lo > q[i]+1e-9 || iv.Hi < q[i]-1e-9 {
				return false
			}
			if iv.Lo < -1e-9 || iv.Hi > 1+1e-9 {
				return false
			}
			for _, frac := range []float64{0.02, 0.5, 0.98} {
				p := q.Clone()
				p[i] = iv.Lo + (iv.Hi-iv.Lo)*frac
				if !reg.Contains(p, 1e-7) {
					return false
				}
			}
			// Just beyond either end must leave the region (maximality),
			// unless the box is what binds there.
			if iv.LoConstraint >= 0 {
				p := q.Clone()
				p[i] = iv.Lo - 1e-6
				if p[i] >= 0 && reg.Contains(p, 0) {
					return false
				}
			}
			if iv.HiConstraint >= 0 {
				p := q.Clone()
				p[i] = iv.Hi + 1e-6
				if p[i] <= 1 && reg.Contains(p, 0) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(151))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: the LIR endpoints' constraint attributions are valid indices
// describing real perturbations.
func TestLIRAttributions(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	reg, _, q := regionFor(r, 200, 3, 5)
	for _, iv := range LIRs(reg, q) {
		for _, ci := range []int{iv.LoConstraint, iv.HiConstraint} {
			if ci >= len(reg.Constraints) {
				t.Fatalf("constraint index %d out of range", ci)
			}
			if ci >= 0 && reg.Constraints[ci].Describe() == "" {
				t.Fatal("empty perturbation description")
			}
		}
	}
}

// Property: the MAH contains q, lies inside the region (all corners
// satisfy every constraint), and cannot be grown in any single dimension.
func TestMAHProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 2 + r.Intn(3)
		reg, _, q := regionFor(r, 100+r.Intn(200), d, 1+r.Intn(5))
		lo, hi := MAH(reg, q)
		for i := 0; i < d; i++ {
			if lo[i] > q[i]+1e-9 || hi[i] < q[i]-1e-9 {
				return false
			}
			if lo[i] < -1e-9 || hi[i] > 1+1e-9 {
				return false
			}
		}
		// Every corner of the box must satisfy every constraint; checking
		// the worst corner per constraint is exact and cheap.
		for _, c := range reg.Constraints {
			worst := 0.0
			for i := 0; i < d; i++ {
				if c.Normal[i] > 0 {
					worst += c.Normal[i] * lo[i]
				} else {
					worst += c.Normal[i] * hi[i]
				}
			}
			if worst < -1e-7 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(157))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// The MAH is a subset of the GIR, hence its per-dimension extents cannot
// exceed the LIRs (the paper's stated trade-off in Section 7.3).
func TestMAHWithinLIRs(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		d := 2 + r.Intn(3)
		reg, _, q := regionFor(r, 150, d, 4)
		lo, hi := MAH(reg, q)
		for i, iv := range LIRs(reg, q) {
			if lo[i] < iv.Lo-1e-7 || hi[i] > iv.Hi+1e-7 {
				t.Fatalf("dim %d: MAH [%v,%v] exceeds LIR [%v,%v]", i, lo[i], hi[i], iv.Lo, iv.Hi)
			}
		}
	}
}

// Regression: coordinate ascent seeded from the degenerate box used to
// collapse to zero width in all but one dimension. The MAH must have
// positive extent in every dimension whenever every LIR does.
func TestMAHPositiveVolume(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		d := 2 + r.Intn(3)
		reg, _, q := regionFor(r, 150, d, 4)
		ivs := LIRs(reg, q)
		allWide := true
		for _, iv := range ivs {
			if iv.Hi-iv.Lo < 1e-6 {
				allWide = false
			}
		}
		if !allWide {
			continue
		}
		lo, hi := MAH(reg, q)
		for i := 0; i < d; i++ {
			if hi[i]-lo[i] <= 0 {
				t.Fatalf("trial %d dim %d: MAH width 0 with wide LIRs", trial, i)
			}
		}
	}
}

func TestRadarBounds(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	reg, _, q := regionFor(r, 150, 4, 5)
	inner, outer := RadarBounds(reg, q)
	if len(inner) != 4 || len(outer) != 4 {
		t.Fatal("wrong dimensionality")
	}
	for i := range inner {
		if inner[i] > q[i] || outer[i] < q[i] {
			t.Errorf("dim %d: bounds [%v,%v] exclude weight %v", i, inner[i], outer[i], q[i])
		}
	}
}

// An unconstrained region (no constraints) yields full-box LIRs and MAH.
func TestUnconstrainedRegion(t *testing.T) {
	q := vec.Vector{0.4, 0.6}
	reg := &gir.Region{Dim: 2, Query: q, OrderSensitive: true}
	for i, iv := range LIRs(reg, q) {
		if math.Abs(iv.Lo) > 1e-12 || math.Abs(iv.Hi-1) > 1e-12 {
			t.Errorf("dim %d: LIR = [%v,%v], want [0,1]", i, iv.Lo, iv.Hi)
		}
		if iv.LoConstraint != -1 || iv.HiConstraint != -1 {
			t.Errorf("dim %d: expected box attributions", i)
		}
	}
	lo, hi := MAH(reg, q)
	if !vec.Equal(lo, vec.Vector{0, 0}, 1e-12) || !vec.Equal(hi, vec.Vector{1, 1}, 1e-12) {
		t.Errorf("MAH = [%v,%v], want the unit box", lo, hi)
	}
}

// On the simplex segment w1 + w2 = 1 a 2-d region is the sub-segment its
// constraints cut, here t = w2 ∈ [1/5, 1/3]: points strictly inside it
// are in the region, points of the domain segment outside it are not.
func TestRenderSimplexSegmentMatchesContains(t *testing.T) {
	reg := &gir.Region{
		Dim:   2,
		Query: vec.Vector{0.7, 0.3},
		Constraints: []gir.Constraint{
			{Normal: vec.Vector{1, -2}, Kind: gir.Replace, A: 1, B: 2}, // w1 ≥ 2w2 → t ≤ 1/3
			{Normal: vec.Vector{-1, 4}, Kind: gir.Replace, A: 3, B: 4}, // 4w2 ≥ w1 → t ≥ 1/5
		},
		OrderSensitive: true,
		Domain:         domain.Simplex(2),
	}
	inside := []float64{0.21, 0.3, 0.32}
	outside := []float64{0.1, 0.19, 0.35, 0.9}
	for _, tpar := range inside {
		if !reg.Contains(vec.Vector{1 - tpar, tpar}, 1e-12) {
			t.Errorf("t=%v should be inside the region", tpar)
		}
	}
	for _, tpar := range outside {
		if reg.Contains(vec.Vector{1 - tpar, tpar}, 1e-12) {
			t.Errorf("t=%v should be outside the region", tpar)
		}
	}
}
