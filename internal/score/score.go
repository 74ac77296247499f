// Package score defines the scoring functions of the paper: the default
// linear function S(p,q) = q·p and the broader monotone class
// S(p,q) = Σ w_i·g_i(p_i) of Section 7.2 (per-dimension monotone
// transforms), for which the SP algorithm still computes exact GIRs.
//
// Every function exposes Transform, mapping a record p to the vector
// g(p) = (g_1(p_1), …, g_d(p_d)) so that S(p,q) = q · g(p). All GIR
// machinery (half-spaces, hulls, maxscore bounds) then operates on
// transformed coordinates; for Linear the transform is the identity and is
// returned without copying.
package score

import (
	"fmt"
	"math"

	"github.com/girlib/gir/internal/vec"
)

// General is any scoring function that is monotone in the record
// attributes: raising an attribute (weights fixed) never lowers the score.
// Monotonicity is what makes R-tree maxscore bounds (top MBB corner) and
// skyline pruning valid, so BRS top-k and BBS skyline accept any General.
// Exact polytope GIRs additionally need the separable form captured by
// Function; for a General function the gir package offers an oracle-based
// approximate region instead (Section 7.2's closing remark).
type General interface {
	// Score returns S(p, q).
	Score(p, q vec.Vector) float64
	// MaxScore returns an upper bound of S(·,q) over the box [lo,hi]
	// (by monotonicity, S(hi, q) works).
	MaxScore(lo, hi, q vec.Vector) float64
	// Name identifies the function in experiment output.
	Name() string
}

// Function is a monotone scoring function of the separable form
// S(p,q) = q·g(p), with every g_i monotone increasing on [0,1]. This is
// the class for which GIRs are exact half-space intersections
// (Section 7.2).
type Function interface {
	General
	// Transform returns g(p). Implementations may return p itself when the
	// transform is the identity; callers must not mutate the result.
	Transform(p vec.Vector) vec.Vector
}

// LeafScorer is an optional bulk fast path a General may implement: score
// every record of a column-major leaf block (cols[j][i] = coordinate j of
// record i) into dst in one pass. Implementations must produce exactly the
// values the per-record Score loop would — callers treat the two paths as
// interchangeable, and result byte-identity depends on it. Functions
// without a profitable bulk form (Polynomial, Mixed, Leontief) simply
// don't implement it and are scored record by record.
type LeafScorer interface {
	ScoreLeaf(dst []float64, cols [][]float64, q vec.Vector)
}

// MultiLeafScorer is an optional block fast path a General may implement
// on top of LeafScorer: score every record of one column-major leaf block
// against a whole block of queries in one pass (dst[g][i] = the score of
// record i under query g). The per-query values must be bit-identical to
// what ScoreLeaf — and hence the per-record Score loop — would produce,
// so a fused multi-query traversal can hand any member's row to code that
// expects a solo traversal's scores. Linear implements it via
// vec.DotColumnsMulti; non-separable functions fall back to per-query
// scoring.
type MultiLeafScorer interface {
	LeafScorer
	ScoreLeafMulti(dst [][]float64, cols [][]float64, qs []vec.Vector)
}

// Leontief is a weighted-minimum scoring function S(p,q) = min_i(w_i·p_i)
// — monotone but NOT separable, so its immutable region is a general
// convex-ish set rather than a half-space intersection. It exists to
// exercise the oracle-based approximate region.
type Leontief struct{}

// Score implements General.
func (Leontief) Score(p, q vec.Vector) float64 {
	best := math.Inf(1)
	for i, x := range p {
		if v := q[i] * x; v < best {
			best = v
		}
	}
	return best
}

// MaxScore implements General.
func (f Leontief) MaxScore(_, hi, q vec.Vector) float64 { return f.Score(hi, q) }

// Name implements General.
func (Leontief) Name() string { return "Leontief" }

// Linear is the paper's default scoring function S(p,q) = q·p.
type Linear struct{}

// Transform implements Function (identity, no copy).
func (Linear) Transform(p vec.Vector) vec.Vector { return p }

// Score implements Function.
func (Linear) Score(p, q vec.Vector) float64 { return vec.Dot(q, p) }

// MaxScore implements Function.
func (Linear) MaxScore(_, hi, q vec.Vector) float64 { return vec.Dot(q, hi) }

// ScoreLeaf implements LeafScorer: dst[i] = q·p_i over the whole leaf,
// bit-identical to the per-record Score loop (vec.DotColumns accumulates
// dimensions in Dot's order).
func (Linear) ScoreLeaf(dst []float64, cols [][]float64, q vec.Vector) {
	vec.DotColumns(dst, q, cols)
}

// ScoreLeafMulti implements MultiLeafScorer: dst[g][i] = qs[g]·p_i for the
// whole queries×records tile, per-query bit-identical to ScoreLeaf.
func (Linear) ScoreLeafMulti(dst [][]float64, cols [][]float64, qs []vec.Vector) {
	vec.DotColumnsMulti(dst, qs, cols)
}

// Name implements Function.
func (Linear) Name() string { return "Linear" }

// Polynomial scores with per-dimension powers:
// S(p,q) = Σ w_i · p_i^Exponents[i]. With the paper's Figure 19 setting on
// 4-dimensional data, Exponents = [4,3,2,1].
type Polynomial struct {
	Exponents []float64
}

// NewPolynomial returns the paper's "Polynomial" function for dimension d:
// exponents d, d−1, …, 1.
func NewPolynomial(d int) Polynomial {
	e := make([]float64, d)
	for i := range e {
		e[i] = float64(d - i)
	}
	return Polynomial{Exponents: e}
}

// Transform implements Function.
func (f Polynomial) Transform(p vec.Vector) vec.Vector {
	g := make(vec.Vector, len(p))
	for i, x := range p {
		g[i] = math.Pow(x, f.Exponents[i])
	}
	return g
}

// Score implements Function.
func (f Polynomial) Score(p, q vec.Vector) float64 { return vec.Dot(q, f.Transform(p)) }

// MaxScore implements Function.
func (f Polynomial) MaxScore(_, hi, q vec.Vector) float64 { return vec.Dot(q, f.Transform(hi)) }

// Name implements Function.
func (f Polynomial) Name() string { return "Polynomial" }

// Mixed is the paper's second non-linear function for 4-dimensional data:
// S(p,q) = w1·p1² + w2·e^p2 + w3·log p3 + w4·√p4, generalized to any d by
// cycling through the four transforms. The logarithm is replaced by
// log1p (log(1+x)), which is monotone increasing and finite at 0 — the
// paper's log x diverges on normalized data with zero attributes
// (paper Section 7.2 defines the function; the substitution is ours).
type Mixed struct{}

func mixedTransform(i int, x float64) float64 {
	switch i % 4 {
	case 0:
		return x * x
	case 1:
		return math.Exp(x)
	case 2:
		return math.Log1p(x)
	default:
		return math.Sqrt(x)
	}
}

// Transform implements Function.
func (Mixed) Transform(p vec.Vector) vec.Vector {
	g := make(vec.Vector, len(p))
	for i, x := range p {
		g[i] = mixedTransform(i, x)
	}
	return g
}

// Score implements Function.
func (f Mixed) Score(p, q vec.Vector) float64 { return vec.Dot(q, f.Transform(p)) }

// MaxScore implements Function.
func (f Mixed) MaxScore(_, hi, q vec.Vector) float64 { return vec.Dot(q, f.Transform(hi)) }

// Name implements Function.
func (Mixed) Name() string { return "Mixed" }

// IsLinear reports whether f is the identity-transform linear function,
// which enables the CP and FP algorithms (they rely on convex-hull
// properties in the original data space; see Section 7.2).
func IsLinear(f General) bool {
	_, ok := f.(Linear)
	return ok
}

// ByName returns the function with the given name ("Linear", "Polynomial",
// "Mixed") for dimension d.
func ByName(name string, d int) (Function, error) {
	switch name {
	case "Linear", "linear", "":
		return Linear{}, nil
	case "Polynomial", "polynomial":
		return NewPolynomial(d), nil
	case "Mixed", "mixed":
		return Mixed{}, nil
	}
	return nil, fmt.Errorf("score: unknown function %q", name)
}
