package volume

import (
	"math"
	"testing"

	"github.com/girlib/gir/internal/domain"
	"github.com/girlib/gir/internal/geom"
	"github.com/girlib/gir/internal/vec"
)

// RatioIn and LogRatioIn over a box domain must be bit-identical to the
// box-only Ratio and LogRatio they replaced: same exact 2-d area, same
// telescoping RNG consumption. The constants are those functions' outputs.
func TestRatioInBoxMatchesRatio(t *testing.T) {
	hs := []geom.Halfspace{
		{A: vec.Vector{1, -0.5, 0.2}, B: 0},
		{A: vec.Vector{-0.3, 1, -0.4}, B: 0},
	}
	opt := Options{Samples: 800, Seed: 5}
	got, err := RatioIn(domain.UnitBox(3), hs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Float64frombits(0x3fdef05bc01a36e3); got != want {
		t.Errorf("RatioIn(box) = %v, Ratio gave %v — must be bit-identical", got, want)
	}
	lg, err := LogRatioIn(domain.UnitBox(3), hs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Float64frombits(0xbfe742825703412f); lg != want {
		t.Errorf("LogRatioIn(box) = %v, LogRatio gave %v — must be bit-identical", lg, want)
	}
	hs2 := []geom.Halfspace{{A: vec.Vector{1, -1}, B: 0}}
	if got2, _ := RatioIn(domain.UnitBox(2), hs2, opt); got2 != 0.5 {
		t.Errorf("RatioIn(box, d=2) = %v, Ratio gave 0.5", got2)
	}
}

// d=2 simplex: the domain is the segment (1−t, t), t ∈ [0,1]. The cone
// w1 ≥ w2 keeps t ≤ 1/2, so the ratio is exactly 1/2; w1 ≥ 3·w2 keeps
// t ≤ 1/4.
func TestSimplexExactSegment(t *testing.T) {
	s := domain.Simplex(2)
	got, err := RatioIn(s, []geom.Halfspace{{A: vec.Vector{1, -1}, B: 0}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("segment ratio = %v, want 0.5", got)
	}
	got, err = RatioIn(s, []geom.Halfspace{{A: vec.Vector{1, -3}, B: 0}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.25) > 1e-12 {
		t.Errorf("segment ratio = %v, want 0.25", got)
	}
	// Empty: w2 ≥ w1 AND w1 ≥ 2·w2 cannot both hold off the origin.
	got, err = RatioIn(s, []geom.Halfspace{
		{A: vec.Vector{-1, 1}, B: 0},
		{A: vec.Vector{1, -2}, B: 0},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("empty segment ratio = %v, want 0", got)
	}
}

// d=3 simplex: exact triangle clipping. The constraint w1 ≥ w2 halves
// the triangle by symmetry; w1 ≥ w2 plus w2 ≥ w3 keeps one of the 3! = 6
// orderings.
func TestSimplexExactTriangle(t *testing.T) {
	s := domain.Simplex(3)
	got, err := RatioIn(s, []geom.Halfspace{{A: vec.Vector{1, -1, 0}, B: 0}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("triangle ratio = %v, want 0.5", got)
	}
	got, err = RatioIn(s, []geom.Halfspace{
		{A: vec.Vector{1, -1, 0}, B: 0},
		{A: vec.Vector{0, 1, -1}, B: 0},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1.0/6) > 1e-12 {
		t.Errorf("ordering-cone ratio = %v, want 1/6", got)
	}
}

// d≥4 simplex telescoping against the symmetry argument: the cone of one
// fixed ordering of all d weights covers 1/d! of the simplex.
func TestSimplexTelescopeMatchesSymmetry(t *testing.T) {
	s := domain.Simplex(4)
	hs := []geom.Halfspace{
		{A: vec.Vector{1, -1, 0, 0}, B: 0},
		{A: vec.Vector{0, 1, -1, 0}, B: 0},
		{A: vec.Vector{0, 0, 1, -1}, B: 0},
	}
	got, err := RatioIn(s, hs, Options{Samples: 4000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 / 24
	if got < want/2 || got > want*2 {
		t.Errorf("telescoped ratio = %v, want ≈ %v", got, want)
	}
	// And against the naive Dirichlet sampler on the same region.
	naive := DomainRatio(s, hs, 40000, 7)
	if math.Abs(naive-want) > 0.01 {
		t.Errorf("DomainRatio = %v, want ≈ %v", naive, want)
	}
	// LogRatioIn consistency.
	lg, err := LogRatioIn(s, hs, Options{Samples: 4000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(math.Exp(lg)-got) > 1e-12 {
		t.Errorf("exp(LogRatioIn) = %v, RatioIn = %v", math.Exp(lg), got)
	}
}

// The simplex measure differs from the box measure: a region thin in the
// Σ direction has near-zero box volume but full simplex measure. The
// half-spaces Σw ≥ 0.999 and −Σw ≥ −1.001 sandwich the simplex itself.
func TestSimplexMeasureIgnoresSumDirection(t *testing.T) {
	s := domain.Simplex(3)
	hs := []geom.Halfspace{
		{A: vec.Vector{1, 1, 1}, B: 0.999},
		{A: vec.Vector{-1, -1, -1}, B: -1.001},
	}
	got, err := RatioIn(s, hs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("sum-direction sandwich has simplex ratio %v, want 1", got)
	}
	box, err := RatioIn(domain.UnitBox(3), hs, Options{Samples: 500, Seed: 1})
	if err == nil && box > 0.01 {
		t.Errorf("the same sandwich should be thin in box measure, got %v", box)
	}
}

func TestSimplexEmptyInterior(t *testing.T) {
	s := domain.Simplex(4)
	// w1 ≥ w2 and w2 ≥ w1 + margin: empty.
	hs := []geom.Halfspace{
		{A: vec.Vector{1, -1, 0, 0}, B: 0.1},
		{A: vec.Vector{-1, 1, 0, 0}, B: 0.1},
	}
	if _, err := RatioIn(s, hs, Options{Samples: 200}); err == nil {
		t.Error("expected ErrEmpty for an infeasible simplex region")
	}
}
