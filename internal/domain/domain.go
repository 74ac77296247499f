// Package domain defines the query space a Global Immutable Region lives
// in. The paper computes GIRs over preference vectors; two conventions are
// common in the top-k literature and both are supported here behind one
// interface:
//
//   - UnitBox: the hyper-cube [0,1]^d — this library's historical default.
//     Every weight moves independently.
//   - Simplex: the sum-normalized space {w : Σ w_i = 1, w ≥ 0} — the
//     paper's convention. Preferences are relative, the region loses one
//     dimension, and volume ratios stay comparable to the paper's
//     sensitivity figures at higher d.
//
// A GIR is a polyhedral cone (half-spaces through the origin) clipped to
// the active domain, so every layer that clips, samples, optimizes over or
// labels the query space — geometry, GIR computation, cache membership,
// repair, volume measurement, visualization — takes its bounds from a
// Domain value instead of hard-coding the unit box. The UnitBox
// implementation reproduces the pre-Domain arithmetic operation for
// operation, so box-domain results are byte-identical to the historical
// behavior.
//
// # Scale invariance and the simplex equality
//
// Linear top-k ranking is invariant under positive scaling of the weight
// vector: every pairwise comparison is a half-space a·w ≥ 0 through the
// origin. The simplex membership test therefore treats the Σw = 1 equality
// with a small absolute tolerance (EqTol): a vector that sums to 1±1e-9
// ranks records exactly like its normalized image, so serving a cached
// result to it is sound as long as the cone constraints hold. This is what
// lets jittered-and-renormalized queries hit cached simplex regions.
package domain

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/girlib/gir/internal/geom"
	"github.com/girlib/gir/internal/lp"
	"github.com/girlib/gir/internal/vec"
)

// Kind discriminates the built-in domains (persistence stores it as one
// byte; keep values stable).
type Kind int8

// Built-in domain kinds.
const (
	KindBox     Kind = 0 // [0,1]^d
	KindSimplex Kind = 1 // Σw = 1, w ≥ 0
)

func (k Kind) String() string {
	switch k {
	case KindBox:
		return "box"
	case KindSimplex:
		return "simplex"
	}
	return fmt.Sprintf("domain.Kind(%d)", int8(k))
}

// EqTol is the absolute tolerance on the simplex sum equality. It sits
// far above float64 normalization error (~1e-16) and far below any
// deliberate violation; see the package comment for why a loose equality
// is sound for serving.
const EqTol = 1e-9

// Domain is one query space. Implementations are immutable values, safe
// to share between goroutines.
type Domain interface {
	// Kind identifies the domain family.
	Kind() Kind
	// Name is the CLI/persistence spelling ("box", "simplex").
	Name() string
	// Dim is the ambient dimensionality d (simplex regions are (d−1)-
	// dimensional subsets of it).
	Dim() int

	// Contains reports whether q lies in the domain within tol. The
	// simplex sum equality uses max(tol, EqTol).
	Contains(q vec.Vector, tol float64) bool
	// Normalize maps a nonnegative, nonzero vector onto the domain: the
	// box clamps coordinates to [0,1]; the simplex divides by the sum.
	Normalize(q vec.Vector) vec.Vector

	// Halfspaces is the domain's inequality H-representation in ambient
	// space, the half-spaces a region's cone is clipped by. The simplex
	// equality is represented as its two half-spaces.
	Halfspaces() []geom.Halfspace
	// MaximizeLinear maximizes c·x over domain ∩ {cons} on the caller's
	// solver (the Solution's X is the solver's, valid until its next
	// call). The domain guarantees the program is bounded, so a
	// non-Optimal status signals a numerical failure. No serving path
	// calls it: it is the LP reference tests hold the closed forms to.
	MaximizeLinear(s *lp.Solver, c vec.Vector, cons []lp.Constraint) lp.Solution

	// AxisBounds returns the domain's bounding interval per axis — the
	// range an inscribed axis-parallel box (viz.MAH, behind GIR.MAH) must
	// stay within. [0,1] for both built-ins: the simplex's bounding box is
	// the unit box.
	AxisBounds() (lo, hi float64)

	// Sample draws a uniform point of the domain (uniform over the
	// (d−1)-simplex for KindSimplex, via exponential stick lengths).
	Sample(rng *rand.Rand) vec.Vector

	// ParamBase and ParamHalfspace give the affine parameterization the
	// volume is measured in: an injective affine map from a full-dimensional
	// parameter region (described by ParamBase) onto the domain, with
	// ParamHalfspace carrying an ambient half-space into parameter space.
	// Relative volumes are preserved (the Jacobian is constant), which is
	// all a volume RATIO needs. The box parameterizes as itself; the
	// simplex drops the last coordinate (w_d = 1 − Σ u_j).
	ParamBase() []geom.Halfspace
	ParamHalfspace(h geom.Halfspace) geom.Halfspace

	// BoundaryLabel describes the domain boundary facet that binds when
	// weight i reaches its lower (upper=false) or upper (upper=true)
	// validity bound — the region-report label for bounds the domain,
	// not a result-perturbation constraint, is responsible for.
	BoundaryLabel(i int, upper bool) string
}

// UnitBox returns the [0,1]^d domain. Values for small d are cached, so
// per-call use on hot paths does not allocate.
func UnitBox(d int) Domain {
	if d >= 0 && d < len(boxCache) {
		return boxCache[d]
	}
	return box{d}
}

// Simplex returns the {Σw = 1, w ≥ 0} domain.
func Simplex(d int) Domain {
	if d >= 0 && d < len(simplexCache) {
		return simplexCache[d]
	}
	return simplex{d}
}

var (
	boxCache     [17]Domain
	simplexCache [17]Domain
)

func init() {
	for d := range boxCache {
		boxCache[d] = box{d}
		simplexCache[d] = simplex{d}
	}
}

// --- UnitBox ---------------------------------------------------------------

type box struct{ d int }

func (b box) Kind() Kind   { return KindBox }
func (b box) Name() string { return "box" }
func (b box) Dim() int     { return b.d }

// Contains mirrors the historical Region.Contains box test comparison for
// comparison (NaNs fail no rejection test, exactly as before).
func (b box) Contains(q vec.Vector, tol float64) bool {
	if len(q) != b.d {
		return false
	}
	for _, x := range q {
		if x < -tol || x > 1+tol {
			return false
		}
	}
	return true
}

func (b box) Normalize(q vec.Vector) vec.Vector {
	out := make(vec.Vector, len(q))
	for i, x := range q {
		out[i] = math.Min(1, math.Max(0, x))
	}
	return out
}

func (b box) Halfspaces() []geom.Halfspace { return geom.BoxHalfspaces(b.d) }

// MaximizeLinear is lp's box-clipped program on the caller's solver.
func (b box) MaximizeLinear(s *lp.Solver, c vec.Vector, cons []lp.Constraint) lp.Solution {
	return s.MaximizeOverBox(c, cons)
}

func (b box) AxisBounds() (lo, hi float64) { return 0, 1 }

func (b box) Sample(rng *rand.Rand) vec.Vector {
	q := make(vec.Vector, b.d)
	for i := range q {
		q[i] = rng.Float64()
	}
	return q
}

func (b box) ParamBase() []geom.Halfspace                    { return geom.BoxHalfspaces(b.d) }
func (b box) ParamHalfspace(h geom.Halfspace) geom.Halfspace { return h }

func (b box) BoundaryLabel(i int, upper bool) string {
	if upper {
		return fmt.Sprintf("query space boundary (w%d = 1)", i+1)
	}
	return fmt.Sprintf("query space boundary (w%d = 0)", i+1)
}

// --- Simplex ---------------------------------------------------------------

type simplex struct{ d int }

func (s simplex) Kind() Kind   { return KindSimplex }
func (s simplex) Name() string { return "simplex" }
func (s simplex) Dim() int     { return s.d }

func (s simplex) Contains(q vec.Vector, tol float64) bool {
	if len(q) != s.d {
		return false
	}
	sum := 0.0
	for _, x := range q {
		if x < -tol {
			return false
		}
		sum += x
	}
	eq := tol
	if eq < EqTol {
		eq = EqTol
	}
	return sum >= 1-eq && sum <= 1+eq
}

// Normalize divides by the sum of the positive weights; a vector with
// none maps to the uniform weight vector, the simplex's centre.
func (s simplex) Normalize(q vec.Vector) vec.Vector {
	out := make(vec.Vector, len(q))
	sum := 0.0
	for _, x := range q {
		if x > 0 {
			sum += x
		}
	}
	if sum <= 0 {
		for i := range out {
			out[i] = 1 / float64(s.d)
		}
		return out
	}
	for i, x := range q {
		if x > 0 {
			out[i] = x / sum
		}
	}
	return out
}

// Halfspaces represents the simplex as inequalities: w_i ≥ 0 plus the two
// halves of Σw = 1 (Σw ≥ 1 and −Σw ≥ −1).
func (s simplex) Halfspaces() []geom.Halfspace {
	out := make([]geom.Halfspace, 0, s.d+2)
	for i := 0; i < s.d; i++ {
		out = append(out, geom.Halfspace{A: vec.Basis(s.d, i), B: 0})
	}
	ones := make(vec.Vector, s.d)
	neg := make(vec.Vector, s.d)
	for i := range ones {
		ones[i], neg[i] = 1, -1
	}
	return append(out, geom.Halfspace{A: ones, B: 1}, geom.Halfspace{A: neg, B: -1})
}

// MaximizeLinear adds Σx = 1 to the caller's rows (x ≥ 0 is the solver's).
func (s simplex) MaximizeLinear(sv *lp.Solver, c vec.Vector, cons []lp.Constraint) lp.Solution {
	ones := make([]float64, s.d)
	for i := range ones {
		ones[i] = 1
	}
	all := make([]lp.Constraint, 0, 1+len(cons))
	all = append(all, lp.Constraint{Coef: ones, Op: lp.EQ, RHS: 1})
	return sv.Maximize(c, append(all, cons...))
}

func (s simplex) AxisBounds() (lo, hi float64) { return 0, 1 }

// Sample draws uniformly from the simplex via normalized exponential
// stick lengths (equivalently a flat Dirichlet).
func (s simplex) Sample(rng *rand.Rand) vec.Vector {
	q := make(vec.Vector, s.d)
	sum := 0.0
	for i := range q {
		q[i] = rng.ExpFloat64()
		sum += q[i]
	}
	for i := range q {
		q[i] /= sum
	}
	return q
}

// ParamBase describes the parameter region {u ≥ 0, Σu ≤ 1}: the last
// coordinate dropped, w = (u_1..u_{d-1}, 1 − Σu).
func (s simplex) ParamBase() []geom.Halfspace {
	pd := s.d - 1
	out := make([]geom.Halfspace, 0, pd+1)
	for i := 0; i < pd; i++ {
		out = append(out, geom.Halfspace{A: vec.Basis(pd, i), B: 0})
	}
	neg := make(vec.Vector, pd)
	for i := range neg {
		neg[i] = -1
	}
	return append(out, geom.Halfspace{A: neg, B: -1})
}

// ParamHalfspace substitutes w_d = 1 − Σu into a·w ≥ b:
// Σ_j (a_j − a_d)·u_j ≥ b − a_d.
func (s simplex) ParamHalfspace(h geom.Halfspace) geom.Halfspace {
	pd := s.d - 1
	ad := h.A[pd]
	a := make(vec.Vector, pd)
	for j := 0; j < pd; j++ {
		a[j] = h.A[j] - ad
	}
	return geom.Halfspace{A: a, B: h.B - ad}
}

func (s simplex) BoundaryLabel(i int, upper bool) string {
	if upper {
		return fmt.Sprintf("simplex vertex (w%d = 1, all other weights 0)", i+1)
	}
	return fmt.Sprintf("simplex boundary (w%d = 0)", i+1)
}
