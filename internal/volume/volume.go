// Package volume estimates the ratio of a GIR's volume to the volume of
// its query space — the sensitivity measure of the paper's Figure 14
// (equivalently, the LIK probability of [30]: the chance that a uniformly
// random query vector preserves the result). Both query-space domains are
// supported (RatioIn): the unit box [0,1]^d and the paper's Σw=1 simplex,
// where the ratio is taken in the simplex's relative (d−1)-dimensional
// measure — a uniformly random SUM-NORMALIZED preference vector.
//
// Both integrate in the domain's parameter space (below), where the ratio
// is computed exactly by segment/polygon clipping in one and two parameter
// dimensions (box d=2; simplex d=2 and d=3). In higher dimensions GIR volumes reach 10⁻¹⁵ (Figure 14 spans
// fifteen orders of magnitude), far below what naive uniform Monte-Carlo
// can resolve, so the estimator telescopes: with half-spaces h_1..h_m,
//
//	vol = vol(domain) · Π_j P(x ∈ h_j | x ∈ domain ∩ h_1..h_{j-1}),
//
// estimating each conditional acceptance probability with hit-and-run
// samples drawn from the previous region. Each factor is bounded away from
// zero far better than the product, which is what makes the tiny volumes
// estimable.
//
// The parameter space (Domain.Param*) is the box itself, and for the
// simplex drops the last coordinate (w_d = 1 − Σu): the affine map has
// constant Jacobian, so relative volumes — all a ratio needs — carry over
// exactly, and the hit-and-run walk runs full-dimensionally instead of on a
// measure-zero slice of ambient space.
package volume

import (
	"errors"
	"math"
	"math/rand"

	"github.com/girlib/gir/internal/domain"
	"github.com/girlib/gir/internal/geom"
	"github.com/girlib/gir/internal/vec"
)

// Options tunes the Monte-Carlo estimator.
type Options struct {
	// Samples per telescoping factor (default 2000).
	Samples int
	// BurnIn steps of the hit-and-run walk before sampling (default 64).
	BurnIn int
	// Seed for the deterministic RNG (default 1).
	Seed int64
	// Rand, when non-nil, supplies the random source directly and takes
	// precedence over Seed. A *rand.Rand is not safe for concurrent use:
	// share Options freely across goroutines only in seeded form (each
	// call then derives its own private source, so concurrent estimates
	// are both race-free and deterministic).
	Rand *rand.Rand
}

func (o Options) withDefaults() Options {
	if o.Samples <= 0 {
		o.Samples = 2000
	}
	if o.BurnIn <= 0 {
		o.BurnIn = 64
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// rng returns the injected source or a fresh, privately seeded one. Every
// estimate threads this single *rand.Rand through the whole telescoping
// walk; the package never touches the global math/rand source (which
// would race under concurrent estimation and defeat determinism).
func (o Options) rng() *rand.Rand {
	if o.Rand != nil {
		return o.Rand
	}
	return rand.New(rand.NewSource(o.Seed))
}

// ErrEmpty is returned when the region has no interior.
var ErrEmpty = errors.New("volume: region has empty interior")

// RatioIn returns vol(∩h_i ∩ domain) / vol(domain) in the domain's own
// measure (relative (d−1)-dimensional measure for the simplex). The
// half-spaces should NOT include the domain; it is added internally. The
// ratio is exact in one and two parameter dimensions (segment/polygon
// clipping) and a telescoping Monte-Carlo estimate above.
func RatioIn(dom domain.Domain, hs []geom.Halfspace, opt Options) (float64, error) {
	base, ph := paramProblem(dom, hs)
	switch dom.ParamDim() {
	case 1:
		return exactInterval(base, ph), nil
	case 2:
		return exactParam2D(base, ph), nil
	}
	return telescopeIn(base, ph, dom.ParamDim(), opt.withDefaults())
}

// LogRatioIn is ln(RatioIn), usable when the ratio underflows float64
// (beyond ~10⁻³⁰⁰, which Figure 14's d=8 anti-correlated settings
// approach). Only the telescoped path needs its own branch (summing the
// log factors avoids the underflow); the exact low-dimension cases
// delegate to RatioIn so the two entry points can never disagree on
// dispatch.
func LogRatioIn(dom domain.Domain, hs []geom.Halfspace, opt Options) (float64, error) {
	if dom.ParamDim() > 2 {
		base, ph := paramProblem(dom, hs)
		logs, err := telescopeFactorsIn(base, ph, dom.ParamDim(), opt.withDefaults())
		if err != nil {
			return 0, err
		}
		var sum float64
		for _, l := range logs {
			sum += l
		}
		return sum, nil
	}
	ratio, err := RatioIn(dom, hs, opt)
	if err != nil {
		return 0, err
	}
	if ratio == 0 {
		return math.Inf(-1), nil
	}
	return math.Log(ratio), nil
}

// paramProblem maps the region into the domain's parameter space.
func paramProblem(dom domain.Domain, hs []geom.Halfspace) (base, ph []geom.Halfspace) {
	base = dom.ParamBase()
	ph = make([]geom.Halfspace, len(hs))
	for i, h := range hs {
		ph[i] = dom.ParamHalfspace(h)
	}
	return base, ph
}

// exactInterval computes the 1-d ratio: both the base and the clipped
// region are intervals of the parameter line, resolved by line clipping.
func exactInterval(base, ph []geom.Halfspace) float64 {
	x := vec.Vector{0}
	u := vec.Vector{1}
	b0, b1 := geom.LineClip(base, x, u)
	if b0 >= b1 {
		return 0
	}
	r0, r1 := geom.LineClip(append(append([]geom.Halfspace{}, base...), ph...), x, u)
	if r0 >= r1 {
		return 0
	}
	return (r1 - r0) / (b1 - b0)
}

// exactParam2D computes the 2-d parameter-space ratio by exact polygon
// clipping: area(base ∩ region) / area(base). The base region of every
// supported domain lies in the unit square, which seeds the clip.
func exactParam2D(base, ph []geom.Halfspace) float64 {
	baseArea := geom.PolygonArea(geom.ClipToPolygon(base))
	if baseArea == 0 {
		return 0
	}
	clipped := geom.PolygonArea(geom.ClipToPolygon(append(append([]geom.Halfspace{}, base...), ph...)))
	return clipped / baseArea
}

// telescopeIn multiplies telescopeFactorsIn's factors.
func telescopeIn(base, hs []geom.Halfspace, d int, opt Options) (float64, error) {
	logs, err := telescopeFactorsIn(base, hs, d, opt)
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, l := range logs {
		sum += l
	}
	return math.Exp(sum), nil
}

// telescopeFactorsIn telescopes over an arbitrary bounded base region (a
// domain's parameter base): each factor is the conditional acceptance of
// one more half-space given the previous prefix.
func telescopeFactorsIn(base, hs []geom.Halfspace, d int, opt Options) ([]float64, error) {
	// An interior point of the FULL region is interior to every prefix
	// region, so one Chebyshev centre warm-starts every walk.
	all := append(append([]geom.Halfspace{}, hs...), base...)
	center, radius, ok := geom.ChebyshevCenter(all, d)
	if !ok || radius <= 0 {
		return nil, ErrEmpty
	}
	rng := opt.rng()
	logs := make([]float64, 0, len(hs))
	region := append([]geom.Halfspace{}, base...) // grows one half-space at a time
	for _, h := range hs {
		samples := opt.Samples
		// A first pass sizes the factor; very small factors get more
		// samples to keep the relative error of the product bounded.
		acc := hitAndRunAccept(region, h, center, rng, samples, opt.BurnIn)
		if acc*float64(samples) < 50 {
			extra := hitAndRunAccept(region, h, center, rng, samples*4, opt.BurnIn)
			acc = (acc + 4*extra) / 5
		}
		if acc == 0 {
			// The walk never entered h: the true factor is below ~1/samples.
			// Use a half-count to keep the product finite but tiny.
			acc = 0.5 / float64(samples*5)
		}
		logs = append(logs, math.Log(acc))
		region = append(region, h)
	}
	return logs, nil
}

// hitAndRunAccept runs a hit-and-run walk inside `region` and returns the
// fraction of samples that satisfy h.
func hitAndRunAccept(region []geom.Halfspace, h geom.Halfspace, start vec.Vector, rng *rand.Rand, samples, burnIn int) float64 {
	d := len(start)
	x := start.Clone()
	u := make(vec.Vector, d)
	hit := 0
	total := burnIn + samples
	for step := 0; step < total; step++ {
		// Random direction.
		var norm float64
		for {
			norm = 0
			for j := 0; j < d; j++ {
				u[j] = rng.NormFloat64()
				norm += u[j] * u[j]
			}
			if norm > 1e-18 {
				break
			}
		}
		tmin, tmax := geom.LineClip(region, x, u)
		if tmin > tmax {
			continue // numerically outside; keep the previous point
		}
		t := tmin + (tmax-tmin)*rng.Float64()
		for j := 0; j < d; j++ {
			x[j] += t * u[j]
		}
		if step >= burnIn && h.Contains(x, 0) {
			hit++
		}
	}
	return float64(hit) / float64(samples)
}

// DomainRatio estimates the ratio with plain uniform sampling — the naive
// estimator: uniform samples of the domain (Dirichlet sticks for the
// simplex) against the half-spaces. Cross-check and ablation baseline only
// (BenchmarkAblationVolume); it cannot resolve the tiny ratios RatioIn
// telescopes.
func DomainRatio(dom domain.Domain, hs []geom.Halfspace, samples int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	hit := 0
	for s := 0; s < samples; s++ {
		if geom.ContainsAll(hs, dom.Sample(rng), 0) {
			hit++
		}
	}
	return float64(hit) / float64(samples)
}
