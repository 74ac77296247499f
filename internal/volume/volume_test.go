package volume

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/girlib/gir/internal/datagen"
	"github.com/girlib/gir/internal/domain"
	"github.com/girlib/gir/internal/geom"
	"github.com/girlib/gir/internal/gir"
	"github.com/girlib/gir/internal/pager"
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

func hs(a ...float64) geom.Halfspace { return geom.Halfspace{A: vec.Vector(a), B: 0} }

// exact2D is the unit square's ratio.
func exact2D(h []geom.Halfspace) float64 {
	v, err := RatioIn(domain.UnitBox(2), h)
	if err != nil {
		panic(err)
	}
	return v
}

// closeTo reports whether got is within 1e-9 of want, relatively.
func closeTo(got, want float64) bool { return math.Abs(got-want) <= 1e-9*want }

// chain is the order chain x₁ ≥ c·x₂, x₂ ≥ c·x₃, … in d dimensions.
func chain(d int, c float64) []geom.Halfspace {
	var h []geom.Halfspace
	for i := 0; i+1 < d; i++ {
		a := make(vec.Vector, d)
		a[i], a[i+1] = 1, -c
		h = append(h, geom.Halfspace{A: a})
	}
	return h
}

// fpRegion is the FP GIR of the top-k at datagen.Query(d, qseed) over
// kind's data, bulk-loaded at seed 1.
func fpRegion(t testing.TB, kind datagen.Kind, n, d, k int, qseed int64) []geom.Halfspace {
	pts, err := datagen.Generate(kind, n, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	tree := rtree.BulkLoad(pager.NewMemStore(), d, pts, nil)
	res := topk.BRS(tree, score.Linear{}, datagen.Query(d, qseed), k)
	reg, _, err := gir.Compute(tree, res, gir.Options{Method: gir.FP})
	if err != nil {
		t.Fatal(err)
	}
	return reg.Halfspaces()
}

func TestExact2DWedge(t *testing.T) {
	// x ≥ y and x ≤ 2y: exact area 0.25.
	got := exact2D([]geom.Halfspace{hs(1, -1), hs(-1, 2)})
	if math.Abs(got-0.25) > 1e-12 {
		t.Errorf("area = %v, want 0.25", got)
	}
}

func TestExact2DEmptyAndFull(t *testing.T) {
	if _, err := RatioIn(domain.UnitBox(2), []geom.Halfspace{{A: vec.Vector{1, 0}, B: 2}}); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty region: err = %v, want ErrEmpty", err)
	}
	if got := exact2D(nil); math.Abs(got-1) > 1e-12 {
		t.Errorf("unconstrained area = %v, want 1", got)
	}
}

// TestRatioClosedForms holds RatioIn to ratios known in closed form: one
// ordering of all d weights keeps 1/d! of the box and, by symmetry, of the
// simplex.
func TestRatioClosedForms(t *testing.T) {
	fact := 1.0
	for d := 2; d <= 7; d++ {
		fact *= float64(d)
		for _, dom := range []domain.Domain{domain.UnitBox(d), domain.Simplex(d)} {
			got, err := RatioIn(dom, chain(d, 1))
			if err != nil {
				t.Fatalf("%v d=%d: %v", dom.Name(), d, err)
			}
			if !closeTo(got, 1/fact) {
				t.Errorf("%v d=%d: order chain ratio = %v, want 1/%v!", dom.Name(), d, got, d)
			}
		}
	}
}

func TestRatioKnownVolumes3D(t *testing.T) {
	cases := []struct {
		name string
		hs   []geom.Halfspace
		want float64
	}{
		{"half", []geom.Halfspace{hs(1, -1, 0)}, 0.5},                      // x ≥ y
		{"chain", []geom.Halfspace{hs(1, -1, 0), hs(0, 1, -1)}, 1.0 / 6.0}, // x ≥ y ≥ z
		{"quarter", []geom.Halfspace{hs(1, -1, 0), hs(1, 0, -1)}, 1.0 / 3.0},
	}
	for _, c := range cases {
		got, err := RatioIn(domain.UnitBox(3), c.hs)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !closeTo(got, c.want) {
			t.Errorf("%s: ratio = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRatioOrderChain4D(t *testing.T) {
	// x1 ≥ x2 ≥ x3 ≥ x4: exactly 1/4! = 1/24.
	got, err := RatioIn(domain.UnitBox(4), chain(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if want := 1.0 / 24.0; !closeTo(got, want) {
		t.Errorf("ratio = %v, want %v", got, want)
	}
}

// TestRatioTinyVolume measures regions far below what sampling can see:
// {x ∈ [0,1]^d : x_i ≥ c·x_{i+1}} has volume 1/(d!·c^{d(d−1)/2})
// (integrate x_d, then x_{d−1}, … in turn), about 1.29e-12 at d = 6 and
// c = 4, and 1.2e-21 at c = 16, whose last edge is 16⁻⁵ ≈ 1e-6 long.
func TestRatioTinyVolume(t *testing.T) {
	d := 6
	for _, c := range []float64{4, 16} {
		got, err := RatioIn(domain.UnitBox(d), chain(d, c))
		if err != nil {
			t.Fatal(err)
		}
		want := 1 / (720 * math.Pow(c, float64(d*(d-1)/2)))
		if !closeTo(got, want) {
			t.Errorf("c=%v: ratio = %v, want %v", c, got, want)
		}
	}
}

func TestRatioEmptyRegion(t *testing.T) {
	h := []geom.Halfspace{{A: vec.Vector{1, 0, 0}, B: 2}} // x ≥ 2: impossible
	if _, err := RatioIn(domain.UnitBox(3), h); !errors.Is(err, ErrEmpty) {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
}

// TestRatioTooManyRows refuses a region whose rows a tight mask cannot
// hold rather than measure it without some of them.
func TestRatioTooManyRows(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var h []geom.Halfspace
	for len(h) < geom.MaxConeRows {
		h = append(h, hs(1, r.Float64()-1, r.Float64()-1))
	}
	if _, err := RatioIn(domain.UnitBox(3), h); err == nil || errors.Is(err, ErrEmpty) {
		t.Errorf("err = %v, want a row-count error", err)
	}
}

// TestRatioMatchesSampling holds the exact ratio to plain uniform sampling
// at 10⁶ samples, within 4σ of the binomial, wherever the ratio is at
// least 1e-4: random cones through a point of the domain in both spaces at
// d = 2..6, and FP regions on IND, ANTI and COR.
func TestRatioMatchesSampling(t *testing.T) {
	const samples = 1_000_000
	check := func(name string, dom domain.Domain, h []geom.Halfspace, seed int64) {
		t.Helper()
		exact, err := RatioIn(dom, h)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if exact < 1e-4 {
			return
		}
		naive := DomainRatio(dom, h, samples, seed)
		if sigma := math.Sqrt(exact * (1 - exact) / samples); math.Abs(exact-naive) > 4*sigma {
			t.Errorf("%s: exact %v, sampled %v (σ %.2g)", name, exact, naive, sigma)
		}
	}
	r := rand.New(rand.NewSource(139))
	for d := 2; d <= 6; d++ {
		for _, dom := range []domain.Domain{domain.UnitBox(d), domain.Simplex(d)} {
			q := dom.Sample(r)
			var h []geom.Halfspace
			for c := 0; c < 3; c++ {
				a := make(vec.Vector, d)
				for j := range a {
					a[j] = r.NormFloat64()
				}
				if vec.Dot(a, q) < 0 {
					a = vec.Scale(-1, a)
				}
				h = append(h, geom.Halfspace{A: a})
			}
			check(dom.Name()+" random", dom, h, int64(d))
		}
	}
	for _, kind := range []datagen.Kind{datagen.IND, datagen.ANTI, datagen.COR} {
		check(string(kind)+" FP", domain.UnitBox(3), fpRegion(t, kind, 2000, 3, 3, 1), 7)
	}
}

// TestTelescopeMatchesNaive: on random cones tilted to keep substantial
// volume, the exact ratio agrees with naive sampling within 4σ.
func TestTelescopeMatchesNaive(t *testing.T) {
	const samples = 40000
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 3 + r.Intn(2)
		var h []geom.Halfspace
		for c := 0; c < 2; c++ {
			a := make(vec.Vector, d)
			for j := range a {
				a[j] = r.NormFloat64()
			}
			a[0] = math.Abs(a[0]) + 1
			h = append(h, geom.Halfspace{A: a})
		}
		exact, err := RatioIn(domain.UnitBox(d), h)
		naive := DomainRatio(domain.UnitBox(d), h, samples, seed+1)
		return err == nil && math.Abs(exact-naive) <= 4*math.Sqrt(exact*(1-exact)/samples)
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(139))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestExact2DMatchesNaive: random wedges of the square against naive
// sampling.
func TestExact2DMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var h []geom.Halfspace
		for c := 0; c < 2; c++ {
			h = append(h, geom.Halfspace{A: vec.Vector{r.NormFloat64(), r.NormFloat64()}, B: 0})
		}
		exact, err := RatioIn(domain.UnitBox(2), h)
		if errors.Is(err, ErrEmpty) {
			exact, err = 0, nil // two wedges that meet only at the origin
		}
		naive := DomainRatio(domain.UnitBox(2), h, 60000, seed+3)
		return err == nil && math.Abs(exact-naive) < 0.02
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(149))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestThinRegionHasVolume measures FP regions of about 1e-18 of the d = 6
// box: thin, yet full-dimensional, so they have a ratio.
func TestThinRegionHasVolume(t *testing.T) {
	for _, tc := range []struct {
		kind  datagen.Kind
		qseed int64
	}{{datagen.IND, 2}, {datagen.ANTI, 1}} {
		got, err := RatioIn(domain.UnitBox(6), fpRegion(t, tc.kind, 20000, 6, 100, tc.qseed))
		if err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		if !(got > 0 && got < 1e-15) {
			t.Errorf("%s: ratio = %v, want in (0, 1e-15)", tc.kind, got)
		}
	}
}
