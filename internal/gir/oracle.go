package gir

import (
	"math"
	"math/rand"

	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/skyline"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

// Oracle answers immutable-region membership for ANY monotone scoring
// function, including non-separable ones like score.Leontief, where the
// region is a general convex set with no half-space representation
// (Section 7.2's closing remark; the paper suggests Monte-Carlo style
// approximation for this class).
//
// The construction rests on the part of SP that survives full generality:
// for every monotone function, the only non-result records that can ever
// overtake a result record are the skyline SL of D\R. So the result is
// preserved at q' iff
//
//	S(p_i, q') ≥ S(p_{i+1}, q')  for i ∈ [1,k), and
//	S(p_k, q') ≥ S(p, q')        for every p ∈ SL,
//
// which Preserves evaluates directly in O(k + |SL|) per probe — an exact
// membership oracle over an unrepresentable region. LIRs come from
// bisection against the oracle, and the volume ratio from uniform
// sampling.
type Oracle struct {
	Query   vec.Vector
	Records []topk.Record // the top-k, in order
	SL      []topk.Record // skyline of D\R
	f       interface {
		Score(p, q vec.Vector) float64
	}
}

// BuildOracle computes the skyline of the non-result set (consuming the
// retained heap in res, like Compute) and returns the membership oracle.
func BuildOracle(tree *rtree.Tree, res *topk.Result) *Oracle {
	sl := skyline.OfNonResult(tree, res)
	return &Oracle{
		Query:   res.Query.Clone(),
		Records: res.Records,
		SL:      sl.Records,
		f:       res.Func,
	}
}

// Preserves reports whether the query vector q' keeps the top-k result
// unchanged — composition and order (Definition 1 evaluated directly).
func (o *Oracle) Preserves(q vec.Vector) bool {
	if len(q) != len(o.Query) {
		return false
	}
	scores := make([]float64, len(o.Records))
	for i, r := range o.Records {
		scores[i] = o.f.Score(r.Point, q)
		if i > 0 && scores[i] > scores[i-1] {
			return false
		}
	}
	kth := scores[len(scores)-1]
	for _, p := range o.SL {
		if o.f.Score(p.Point, q) > kth {
			return false
		}
	}
	return true
}

// PreservesSet is the order-insensitive variant (Definition 2): the
// result composition survives iff the worst result score still beats
// every skyline record.
func (o *Oracle) PreservesSet(q vec.Vector) bool {
	if len(q) != len(o.Query) {
		return false
	}
	worst := 0.0
	for i, r := range o.Records {
		s := o.f.Score(r.Point, q)
		if i == 0 || s < worst {
			worst = s
		}
	}
	for _, p := range o.SL {
		if o.f.Score(p.Point, q) > worst {
			return false
		}
	}
	return true
}

// LIR computes the validity interval of weight dim (others fixed at the
// query's values) by bisection against the oracle, to within tol. It is
// the interactive-projection bound of Section 7.3 generalized to
// functions without polytope GIRs.
func (o *Oracle) LIR(dim int, tol float64) (lo, hi float64) {
	if tol <= 0 {
		tol = 1e-6
	}
	probe := func(w float64) bool {
		q := o.Query.Clone()
		q[dim] = w
		return o.Preserves(q)
	}
	cur := o.Query[dim]
	// The preserved set restricted to a line through an interior point of
	// a convex region is an interval, so bisection is exact up to tol.
	bisect := func(inside, outside float64) float64 {
		for i := 0; i < 64 && math.Abs(outside-inside) > tol; i++ {
			mid := (inside + outside) / 2
			if probe(mid) {
				inside = mid
			} else {
				outside = mid
			}
		}
		return inside
	}
	lo, hi = cur, cur
	if probe(0) {
		lo = 0
	} else {
		lo = bisect(cur, 0)
	}
	if probe(1) {
		hi = 1
	} else {
		hi = bisect(cur, 1)
	}
	return lo, hi
}

// VolumeRatio estimates the preserved fraction of the query space by
// uniform sampling (the region has no H-representation to measure
// exactly). Suitable for the moderate dimensionalities where general scoring
// functions are used; returns the hit fraction.
func (o *Oracle) VolumeRatio(samples int, seed int64) float64 {
	if samples <= 0 {
		samples = 10000
	}
	rng := rand.New(rand.NewSource(seed))
	d := len(o.Query)
	q := make(vec.Vector, d)
	hits := 0
	for s := 0; s < samples; s++ {
		for j := 0; j < d; j++ {
			q[j] = rng.Float64()
		}
		if o.Preserves(q) {
			hits++
		}
	}
	return float64(hits) / float64(samples)
}
