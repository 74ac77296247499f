package volume

import (
	"errors"
	"math"
	"testing"

	"github.com/girlib/gir/internal/domain"
	"github.com/girlib/gir/internal/geom"
	"github.com/girlib/gir/internal/vec"
)

// RatioIn over the box agrees with the box's own uniform sampler: a 3-d
// cone within 4σ at 10⁵ samples, and the half-plane x ≥ y at exactly 1/2.
func TestRatioInBoxMatchesRatio(t *testing.T) {
	hs := []geom.Halfspace{
		{A: vec.Vector{1, -0.5, 0.2}, B: 0},
		{A: vec.Vector{-0.3, 1, -0.4}, B: 0},
	}
	got, err := RatioIn(domain.UnitBox(3), hs)
	if err != nil {
		t.Fatal(err)
	}
	const samples = 100000
	naive := DomainRatio(domain.UnitBox(3), hs, samples, 5)
	if sigma := math.Sqrt(got * (1 - got) / samples); math.Abs(got-naive) > 4*sigma {
		t.Errorf("RatioIn(box) = %v, sampled %v (σ %.2g)", got, naive, sigma)
	}
	got2, err := RatioIn(domain.UnitBox(2), []geom.Halfspace{{A: vec.Vector{1, -1}, B: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got2-0.5) > 1e-12 {
		t.Errorf("RatioIn(box, d=2) = %v, want 0.5", got2)
	}
}

// d=2 simplex: the domain is the segment (1−t, t), t ∈ [0,1]. The cone
// w1 ≥ w2 keeps t ≤ 1/2, so the ratio is exactly 1/2; w1 ≥ 3·w2 keeps
// t ≤ 1/4.
func TestSimplexExactSegment(t *testing.T) {
	s := domain.Simplex(2)
	got, err := RatioIn(s, []geom.Halfspace{{A: vec.Vector{1, -1}, B: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("segment ratio = %v, want 0.5", got)
	}
	got, err = RatioIn(s, []geom.Halfspace{{A: vec.Vector{1, -3}, B: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.25) > 1e-12 {
		t.Errorf("segment ratio = %v, want 0.25", got)
	}
	// Empty: w2 ≥ w1 AND w1 ≥ 2·w2 cannot both hold off the origin.
	if _, err = RatioIn(s, []geom.Halfspace{
		{A: vec.Vector{-1, 1}, B: 0},
		{A: vec.Vector{1, -2}, B: 0},
	}); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty segment: err = %v, want ErrEmpty", err)
	}
}

// d=3 simplex: a triangle. The constraint w1 ≥ w2 halves it by symmetry;
// w1 ≥ w2 plus w2 ≥ w3 keeps one of the 3! = 6 orderings.
func TestSimplexExactTriangle(t *testing.T) {
	s := domain.Simplex(3)
	got, err := RatioIn(s, []geom.Halfspace{{A: vec.Vector{1, -1, 0}, B: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("triangle ratio = %v, want 0.5", got)
	}
	got, err = RatioIn(s, []geom.Halfspace{
		{A: vec.Vector{1, -1, 0}, B: 0},
		{A: vec.Vector{0, 1, -1}, B: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1.0/6) > 1e-12 {
		t.Errorf("ordering-cone ratio = %v, want 1/6", got)
	}
}

// The d = 4 simplex against the symmetry argument: the cone of one fixed
// ordering of all d weights covers 1/d! of the simplex; the Dirichlet
// sampler agrees.
func TestSimplexTelescopeMatchesSymmetry(t *testing.T) {
	s := domain.Simplex(4)
	hs := []geom.Halfspace{
		{A: vec.Vector{1, -1, 0, 0}, B: 0},
		{A: vec.Vector{0, 1, -1, 0}, B: 0},
		{A: vec.Vector{0, 0, 1, -1}, B: 0},
	}
	got, err := RatioIn(s, hs)
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 / 24
	if math.Abs(got-want) > 1e-9*want {
		t.Errorf("ratio = %v, want %v", got, want)
	}
	if naive := DomainRatio(s, hs, 40000, 7); math.Abs(naive-want) > 0.01 {
		t.Errorf("DomainRatio = %v, want ≈ %v", naive, want)
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
	got, err := RatioIn(s, hs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("sum-direction sandwich has simplex ratio %v, want 1", got)
	}
	box, err := RatioIn(domain.UnitBox(3), hs)
	if err != nil || box > 0.01 {
		t.Errorf("the same sandwich should be thin in box measure, got %v (%v)", box, err)
	}
}

func TestSimplexEmptyInterior(t *testing.T) {
	s := domain.Simplex(4)
	// w1 ≥ w2 and w2 ≥ w1 + margin: empty.
	hs := []geom.Halfspace{
		{A: vec.Vector{1, -1, 0, 0}, B: 0.1},
		{A: vec.Vector{-1, 1, 0, 0}, B: 0.1},
	}
	if _, err := RatioIn(s, hs); !errors.Is(err, ErrEmpty) {
		t.Errorf("err = %v, want ErrEmpty for an infeasible simplex region", err)
	}
}
