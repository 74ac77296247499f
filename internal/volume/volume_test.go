package volume

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/girlib/gir/internal/domain"
	"github.com/girlib/gir/internal/geom"
	"github.com/girlib/gir/internal/vec"
)

func hs(a ...float64) geom.Halfspace { return geom.Halfspace{A: vec.Vector(a), B: 0} }

// exact2D is the unit square's exact ratio (polygon clipping).
func exact2D(h []geom.Halfspace) float64 {
	v, err := RatioIn(domain.UnitBox(2), h, Options{})
	if err != nil {
		panic(err)
	}
	return v
}

func TestExact2DWedge(t *testing.T) {
	// x ≥ y and x ≤ 2y: exact area 0.25 (see geom tests).
	got := exact2D([]geom.Halfspace{hs(1, -1), hs(-1, 2)})
	if math.Abs(got-0.25) > 1e-12 {
		t.Errorf("area = %v, want 0.25", got)
	}
}

func TestExact2DEmptyAndFull(t *testing.T) {
	if got := exact2D([]geom.Halfspace{{A: vec.Vector{1, 0}, B: 2}}); got != 0 {
		t.Errorf("empty region area = %v", got)
	}
	if got := exact2D(nil); math.Abs(got-1) > 1e-12 {
		t.Errorf("unconstrained area = %v, want 1", got)
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
		got, err := RatioIn(domain.UnitBox(3), c.hs, Options{Samples: 6000, Seed: 42})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if math.Abs(got-c.want)/c.want > 0.15 {
			t.Errorf("%s: ratio = %v, want ≈ %v", c.name, got, c.want)
		}
	}
}

func TestRatioOrderChain4D(t *testing.T) {
	// x1 ≥ x2 ≥ x3 ≥ x4: exactly 1/4! = 1/24.
	h := []geom.Halfspace{hs(1, -1, 0, 0), hs(0, 1, -1, 0), hs(0, 0, 1, -1)}
	got, err := RatioIn(domain.UnitBox(4), h, Options{Samples: 8000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 / 24.0
	if math.Abs(got-want)/want > 0.2 {
		t.Errorf("ratio = %v, want ≈ %v", got, want)
	}
}

// The telescoping estimator must resolve volumes far below naive MC reach:
// a d-dimensional order chain has volume 1/d!, about 2.5e-7 at d=10 —
// and a tightened chain x_i ≥ α·x_{i+1} shrinks it much further.
func TestRatioTinyVolume(t *testing.T) {
	d := 6
	var h []geom.Halfspace
	for i := 0; i+1 < d; i++ {
		a := make(vec.Vector, d)
		a[i], a[i+1] = 1, -4 // x_i ≥ 4·x_{i+1}
		h = append(h, geom.Halfspace{A: a, B: 0})
	}
	// Exact volume of {x ∈ [0,1]^d : x_i ≥ 4x_{i+1}} is
	// ∏_{i=1}^{d-1} 1/(4^i·(i+1))… — rather than deriving it, check
	// consistency: the estimate is far below naive-MC resolution yet
	// log-stable across seeds.
	l1, err := LogRatioIn(domain.UnitBox(d), h, Options{Samples: 20000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	l2, err := LogRatioIn(domain.UnitBox(d), h, Options{Samples: 20000, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if l1 > math.Log(1e-5) {
		t.Errorf("volume too large: exp(%v)", l1)
	}
	// Figure 14 is a log-scale plot averaged over 100 queries; the
	// estimator must be stable to well under a decade per query.
	if math.Abs(l1-l2) > 1.5 {
		t.Errorf("estimates unstable across seeds: %v vs %v", l1, l2)
	}
}

func TestRatioEmptyRegion(t *testing.T) {
	h := []geom.Halfspace{{A: vec.Vector{1, 0, 0}, B: 2}} // x ≥ 2: impossible
	if _, err := RatioIn(domain.UnitBox(3), h, Options{}); err == nil {
		t.Error("expected ErrEmpty")
	}
}

// Property: telescoping and naive MC agree on regions big enough for the
// naive estimator to see.
func TestTelescopeMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 3 + r.Intn(2)
		var h []geom.Halfspace
		for c := 0; c < 2; c++ {
			a := make(vec.Vector, d)
			for j := range a {
				a[j] = r.NormFloat64()
			}
			// Tilt positive so the region keeps substantial volume.
			a[0] = math.Abs(a[0]) + 1
			h = append(h, geom.Halfspace{A: a, B: 0})
		}
		naive := DomainRatio(domain.UnitBox(d), h, 40000, seed+1)
		if naive < 0.05 {
			return true // too small for the naive oracle; skip
		}
		tele, err := RatioIn(domain.UnitBox(d), h, Options{Samples: 4000, Seed: seed + 2})
		if err != nil {
			return false
		}
		return math.Abs(tele-naive)/naive < 0.25
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(139))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: 2-d telescoping path is never taken (exact), and the exact
// area matches naive MC.
func TestExact2DMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var h []geom.Halfspace
		for c := 0; c < 2; c++ {
			h = append(h, geom.Halfspace{A: vec.Vector{r.NormFloat64(), r.NormFloat64()}, B: 0})
		}
		exact := exact2D(h)
		naive := DomainRatio(domain.UnitBox(2), h, 60000, seed+3)
		return math.Abs(exact-naive) < 0.02
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(149))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestLogRatio2D(t *testing.T) {
	got, err := LogRatioIn(domain.UnitBox(2), []geom.Halfspace{hs(1, -1)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-math.Log(0.5)) > 1e-9 {
		t.Errorf("LogRatioIn = %v, want log(0.5)", got)
	}
	got, err = LogRatioIn(domain.UnitBox(2), []geom.Halfspace{{A: vec.Vector{1, 0}, B: 2}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got, -1) {
		t.Errorf("empty 2-d region LogRatioIn = %v, want −Inf", got)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Samples <= 0 || o.BurnIn <= 0 || o.Seed == 0 {
		t.Errorf("defaults not applied: %+v", o)
	}
}
