package domain

import (
	"math"
	"math/rand"
	"testing"

	"github.com/girlib/gir/internal/geom"
	"github.com/girlib/gir/internal/lp"
	"github.com/girlib/gir/internal/vec"
)

func TestKindAndNames(t *testing.T) {
	for _, c := range []struct {
		dom  Domain
		kind Kind
		name string
	}{
		{UnitBox(3), KindBox, "box"},
		{Simplex(3), KindSimplex, "simplex"},
	} {
		if c.dom.Kind() != c.kind || c.dom.Dim() != 3 || c.dom.Name() != c.name {
			t.Errorf("%s: kind %v dim %d name %q", c.name, c.dom.Kind(), c.dom.Dim(), c.dom.Name())
		}
		if c.dom.Kind().String() != c.name {
			t.Errorf("Kind.String() = %q, want %q", c.dom.Kind().String(), c.name)
		}
	}
}

func TestBoxContainsMatchesHistoricalTest(t *testing.T) {
	b := UnitBox(3)
	cases := []struct {
		q    vec.Vector
		tol  float64
		want bool
	}{
		{vec.Vector{0, 0.5, 1}, 0, true},
		{vec.Vector{-1e-12, 0.5, 1}, 1e-9, true},
		{vec.Vector{-1e-6, 0.5, 1}, 0, false},
		{vec.Vector{0.2, 1.1, 0.3}, 0, false},
		{vec.Vector{0.2, 0.3}, 0, false}, // wrong dimension
	}
	for _, c := range cases {
		if got := b.Contains(c.q, c.tol); got != c.want {
			t.Errorf("box Contains(%v, %g) = %v, want %v", c.q, c.tol, got, c.want)
		}
	}
}

func TestSimplexContains(t *testing.T) {
	s := Simplex(3)
	cases := []struct {
		q    vec.Vector
		tol  float64
		want bool
	}{
		{vec.Vector{0.2, 0.3, 0.5}, 0, true},
		{vec.Vector{1, 0, 0}, 0, true},
		// Within EqTol of the sum equality even at tol 0 (scale
		// invariance makes this sound; see the package comment).
		{vec.Vector{0.2, 0.3, 0.5 + 5e-10}, 0, true},
		{vec.Vector{0.2, 0.3, 0.6}, 0, false},
		{vec.Vector{0.6, 0.6, -0.2}, 0, false},
		{vec.Vector{0.5, 0.5}, 0, false}, // wrong dimension
	}
	for _, c := range cases {
		if got := s.Contains(c.q, c.tol); got != c.want {
			t.Errorf("simplex Contains(%v, %g) = %v, want %v", c.q, c.tol, got, c.want)
		}
	}
}

// TestInteriorInsideDomain: Normalize of the zero vector lies in the
// domain in both spaces (the box's origin, the simplex's centre).
func TestInteriorInsideDomain(t *testing.T) {
	for d := 2; d <= 6; d++ {
		for _, dom := range []Domain{UnitBox(d), Simplex(d)} {
			if p := dom.Normalize(make(vec.Vector, d)); !dom.Contains(p, 0) {
				t.Errorf("%s(%d): Normalize(0) = %v lies outside the domain", dom.Name(), d, p)
			}
		}
	}
}

func TestNormalize(t *testing.T) {
	s := Simplex(3)
	n := s.Normalize(vec.Vector{2, 1, 1})
	if !vec.Equal(n, vec.Vector{0.5, 0.25, 0.25}, 1e-15) {
		t.Errorf("simplex Normalize = %v", n)
	}
	if !s.Contains(s.Normalize(vec.Vector{0.3, -0.1, 0.2}), 0) {
		t.Error("normalized vector with a negative weight left the simplex")
	}
	if !s.Contains(s.Normalize(vec.Vector{0, 0, 0}), 0) {
		t.Error("normalizing the zero vector must fall back to the interior")
	}
	b := UnitBox(2)
	if got := b.Normalize(vec.Vector{1.5, -0.2}); !vec.Equal(got, vec.Vector{1, 0}, 0) {
		t.Errorf("box Normalize = %v", got)
	}
}

func TestSampleStaysInDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for d := 2; d <= 5; d++ {
		for _, dom := range []Domain{UnitBox(d), Simplex(d)} {
			for i := 0; i < 200; i++ {
				if q := dom.Sample(rng); !dom.Contains(q, 0) {
					t.Fatalf("%s(%d): sample %v outside the domain", dom.Name(), d, q)
				}
			}
		}
	}
}

// Simplex samples must be uniform enough that each coordinate's mean is
// 1/d (a flat Dirichlet); catches normalization-free or biased sampling.
func TestSimplexSampleMean(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const d, n = 4, 20000
	s := Simplex(d)
	mean := make([]float64, d)
	for i := 0; i < n; i++ {
		q := s.Sample(rng)
		for j, x := range q {
			mean[j] += x / n
		}
	}
	for j, m := range mean {
		if math.Abs(m-0.25) > 0.01 {
			t.Errorf("coordinate %d mean %v, want 0.25", j, m)
		}
	}
}

// MaximizeLinear against the domain-wide upper bound in closed form: with
// no extra constraints the LP must reach Σ_j max(c_j, 0) over the box and
// max_j c_j over the simplex.
func TestMaximizeLinearMatchesUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		d := 2 + rng.Intn(4)
		c := make(vec.Vector, d)
		for j := range c {
			c[j] = rng.NormFloat64()
		}
		for _, dom := range []Domain{UnitBox(d), Simplex(d)} {
			sol := dom.MaximizeLinear(new(lp.Solver), c, nil)
			if sol.Status != lp.Optimal {
				t.Fatalf("%s: status %v", dom.Name(), sol.Status)
			}
			want := math.Inf(-1)
			for _, x := range c {
				want = max(want, x)
			}
			if dom.Kind() == KindBox {
				want = 0
				for _, x := range c {
					want += max(x, 0)
				}
			}
			if math.Abs(sol.Objective-want) > 1e-9 {
				t.Errorf("%s: MaximizeLinear = %v, the bound = %v (c=%v)", dom.Name(), sol.Objective, want, c)
			}
			if !dom.Contains(vec.Vector(sol.X), 1e-9) {
				t.Errorf("%s: maximizer %v outside the domain", dom.Name(), sol.X)
			}
		}
	}
}

// The parameterization must preserve membership: w in the domain iff its
// parameter image satisfies ParamBase, and an ambient half-space holds at
// w iff its ParamHalfspace holds at the image.
func TestParamMembership(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for d := 2; d <= 5; d++ {
		s := Simplex(d)
		base := s.ParamBase()
		pd := len(base[0].A)
		if pd != d-1 {
			t.Fatalf("simplex(%d) has a %d-dimensional parameter space", d, pd)
		}
		for trial := 0; trial < 100; trial++ {
			w := s.Sample(rng)
			u := w[:pd]
			if !geom.ContainsAll(base, u, 1e-12) {
				t.Fatalf("simplex point %v maps outside the parameter base", w)
			}
			// Random ambient half-space: agreement of slack signs.
			a := make(vec.Vector, d)
			for j := range a {
				a[j] = rng.NormFloat64()
			}
			h := geom.Halfspace{A: a, B: rng.NormFloat64() * 0.1}
			ph := s.ParamHalfspace(h)
			if got, want := ph.Slack(u), h.Slack(w); math.Abs(got-want) > 1e-9 {
				t.Fatalf("param slack %v != ambient slack %v", got, want)
			}
		}
	}
	b := UnitBox(3)
	if base := b.ParamBase(); len(base[0].A) != 3 || len(base) != 6 {
		t.Error("box parameterization must be the identity")
	}
}

func TestHalfspacesDescribeDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for d := 2; d <= 4; d++ {
		for _, dom := range []Domain{UnitBox(d), Simplex(d)} {
			hs := dom.Halfspaces()
			for i := 0; i < 200; i++ {
				q := make(vec.Vector, d)
				for j := range q {
					q[j] = rng.Float64()*1.4 - 0.2
				}
				if got, want := geom.ContainsAll(hs, q, 1e-9), dom.Contains(q, 1e-9); got != want {
					t.Fatalf("%s(%d): halfspaces say %v, Contains says %v for %v", dom.Name(), d, got, want, q)
				}
			}
		}
	}
}

func TestBoundaryLabels(t *testing.T) {
	if got := UnitBox(3).BoundaryLabel(0, false); got != "query space boundary (w1 = 0)" {
		t.Errorf("box lower label = %q", got)
	}
	if got := Simplex(3).BoundaryLabel(1, false); got != "simplex boundary (w2 = 0)" {
		t.Errorf("simplex lower label = %q", got)
	}
	if got := Simplex(3).BoundaryLabel(2, true); got != "simplex vertex (w3 = 1, all other weights 0)" {
		t.Errorf("simplex upper label = %q", got)
	}
}
