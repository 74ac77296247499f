// Package viz implements the GIR visualization aids of Section 7.3:
//
//   - LIRs: the per-dimension "interactive projection" intervals — how far
//     a single weight may move (others fixed) without changing the result.
//     These equal the local immutable regions of Mouratidis & Pang [24]
//     and drive the slide-bar marks / radar-chart polygons of Figure 1.
//   - MAH: the maximum-volume axis-parallel hyper-rectangle that contains
//     the query vector and lies inside the GIR, giving weight bounds that
//     remain valid under simultaneous readjustment of all weights.
package viz

import (
	"math"

	"github.com/girlib/gir/internal/domain"
	"github.com/girlib/gir/internal/gir"
	"github.com/girlib/gir/internal/vec"
)

// Interval is a validity range for one query weight. LoConstraint and
// HiConstraint are indices into the region's constraint list identifying
// the result perturbation at each end (−1 when the query-space boundary
// is what binds; LoBoundary/HiBoundary then name the binding domain
// facet), so the UI can tell the user what the result becomes at each
// tipping point.
type Interval struct {
	Lo, Hi                     float64
	LoConstraint, HiConstraint int
	// LoBoundary and HiBoundary describe the domain facet binding at each
	// end; set only when the matching constraint index is −1.
	LoBoundary, HiBoundary string
}

// LIRs computes the interactive-projection interval of every weight at
// the query vector q (which must lie inside the region), in the region's
// query-space domain.
//
// In the unit box, dimension i solves in closed form how far q + t·e_i
// can move — the other weights fixed — before some bounding half-space
// (or the box) is violated.
//
// In the Σw=1 simplex an axis move leaves the domain immediately, so the
// slide is reinterpreted the way a sum-normalized UI rebalances: weight i
// moves along w(t) = (1−t)·q + t·e_i, shifting preference mass toward
// (t > 0) or away from (t < 0) attribute i while the other weights keep
// their relative proportions. Cone constraints stay linear in t, so the
// interval is still closed-form; the domain binds at w_i = 0 (all mass
// withdrawn) and w_i = 1 (the simplex vertex).
func LIRs(reg *gir.Region, q vec.Vector) []Interval {
	dom := reg.Space()
	if dom.Kind() == domain.KindSimplex {
		return simplexLIRs(reg, dom, q)
	}
	ivs := axisLIRs(reg, q)
	for i := range ivs {
		if ivs[i].LoConstraint < 0 {
			ivs[i].LoBoundary = dom.BoundaryLabel(i, false)
		}
		if ivs[i].HiConstraint < 0 {
			ivs[i].HiBoundary = dom.BoundaryLabel(i, true)
		}
	}
	return ivs
}

// axisLIRs is the historical box-domain computation. It is also what
// seeds MAH in every domain: the axis intervals describe the cone
// clipped to [0,1]^d, which is exactly the body an inscribed axis box
// must stay within.
func axisLIRs(reg *gir.Region, q vec.Vector) []Interval {
	d := reg.Dim
	axLo, axHi := reg.Space().AxisBounds()
	out := make([]Interval, d)
	for i := 0; i < d; i++ {
		lo, hi := axLo-q[i], axHi-q[i] // axis bounds on t
		loC, hiC := -1, -1
		for ci, c := range reg.Constraints {
			ai := c.Normal[i]
			slack := vec.Dot(c.Normal, q)
			switch {
			case math.Abs(ai) < 1e-15:
				// The constraint is insensitive to this weight.
			case ai > 0:
				if t := -slack / ai; t > lo {
					lo, loC = t, ci
				}
			default:
				if t := -slack / ai; t < hi {
					hi, hiC = t, ci
				}
			}
		}
		out[i] = Interval{Lo: q[i] + lo, Hi: q[i] + hi, LoConstraint: loC, HiConstraint: hiC}
	}
	return out
}

// simplexLIRs computes the rebalancing intervals described in LIRs: for
// weight i, w(t) = (1−t)·q + t·e_i with t ∈ [−q_i/(1−q_i), 1] from the
// domain (w_i = 0 and w_i = 1 respectively), tightened by the cone
// constraints a·w(t) = (1−t)·(a·q) + t·a_i ≥ 0. The reported interval is
// the induced range of w_i(t) = q_i + t·(1−q_i).
func simplexLIRs(reg *gir.Region, dom domain.Domain, q vec.Vector) []Interval {
	d := reg.Dim
	out := make([]Interval, d)
	for i := 0; i < d; i++ {
		if 1-q[i] < 1e-15 {
			// The query already sits at the vertex: no room either way.
			out[i] = Interval{Lo: q[i], Hi: q[i], LoConstraint: -1, HiConstraint: -1,
				LoBoundary: dom.BoundaryLabel(i, false), HiBoundary: dom.BoundaryLabel(i, true)}
			continue
		}
		tLo, tHi := -q[i]/(1-q[i]), 1.0
		loC, hiC := -1, -1
		for ci, c := range reg.Constraints {
			s := vec.Dot(c.Normal, q)
			deriv := c.Normal[i] - s // d/dt of (1−t)s + t·a_i
			switch {
			case math.Abs(deriv) < 1e-15:
				// The constraint's slack does not change along this slide.
			case deriv > 0:
				if t := -s / deriv; t > tLo {
					tLo, loC = t, ci
				}
			default:
				if t := s / (-deriv); t < tHi {
					tHi, hiC = t, ci
				}
			}
		}
		iv := Interval{
			Lo: q[i] + tLo*(1-q[i]), Hi: q[i] + tHi*(1-q[i]),
			LoConstraint: loC, HiConstraint: hiC,
		}
		if loC < 0 {
			iv.LoBoundary = dom.BoundaryLabel(i, false)
		}
		if hiC < 0 {
			iv.HiBoundary = dom.BoundaryLabel(i, true)
		}
		out[i] = iv
	}
	return out
}

// MAH computes a maximal axis-parallel hyper-rectangle [lo, hi] that
// contains q and lies inside the region (an instance of the bichromatic
// rectangle problem; the paper cites exact algorithms [2,16]). This
// implementation uses cyclic coordinate ascent on the concave objective
// Σ log(u_i − l_i): with all other coordinates fixed, the feasible range
// of (l_i, u_i) is an interval product computable in closed form, so each
// sweep is O(d·m). It converges to a rectangle that cannot be grown in any
// single dimension (and contains q by construction).
//
// The key fact making the constraint evaluation exact: a half-space
// a·x ≥ 0 contains the whole box [l,u] iff it contains the box's worst
// corner, which picks l_i where a_i > 0 and u_i where a_i < 0.
//
// The box is inscribed in the region's CONE clipped to [0,1]^d in every
// domain. For a simplex-domain region every point of [lo,hi] ∩ {Σw=1}
// then lies in cone ∩ simplex = region, so for the user the box bounds are
// the envelope of rebalanced weight settings that keep the result. It is
// user API (GIR.MAH) only: the cache holds no box.
func MAH(reg *gir.Region, q vec.Vector) (lo, hi vec.Vector) {
	d := reg.Dim
	// The result is one slab; the bisection's trial box (l, u) lives on
	// the stack for every practical d.
	out := make(vec.Vector, 2*d)
	lo, hi = out[:d:d], out[d:]
	var stack [2 * 16]float64
	buf := stack[:]
	if 2*d > len(buf) {
		buf = make([]float64, 2*d)
	}
	l, u := buf[:d], buf[d:2*d]
	// Phase 1 — balanced seed. Starting coordinate ascent from the
	// degenerate box [q,q] lets the first dimension consume all the slack
	// and leaves the rest at zero width (volume 0, a worthless local
	// optimum). Instead, binary-search the largest uniform scaling s of
	// the LIR box around q that keeps every worst corner feasible; that
	// box has positive volume whenever the region has interior around q.
	ivs := axisLIRs(reg, q)
	// feasibleAt builds the box scaled by s in (l, u) and tests it.
	feasibleAt := func(s float64) bool {
		for i := 0; i < d; i++ {
			l[i] = q[i] - s*(q[i]-ivs[i].Lo)
			u[i] = q[i] + s*(ivs[i].Hi-q[i])
		}
		for _, c := range reg.Constraints {
			worst := 0.0
			for i := 0; i < d; i++ {
				if c.Normal[i] > 0 {
					worst += c.Normal[i] * l[i]
				} else {
					worst += c.Normal[i] * u[i]
				}
			}
			if worst < 0 {
				return false
			}
		}
		return true
	}
	copy(lo, q)
	copy(hi, q)
	sLo, sHi := 0.0, 1.0
	if feasibleAt(1) {
		copy(lo, l)
		copy(hi, u)
	} else {
		for iter := 0; iter < 40; iter++ {
			mid := (sLo + sHi) / 2
			if feasibleAt(mid) {
				copy(lo, l)
				copy(hi, u)
				sLo = mid
			} else {
				sHi = mid
			}
		}
	}
	// Phase 2 — coordinate ascent. From a feasible box, maximizing one
	// dimension's extent given the others only ever expands (the current
	// bounds are feasible, so the new closed-form bounds contain them).
	axLo, axHi := reg.Space().AxisBounds()
	for sweep := 0; sweep < 40; sweep++ {
		changed := false
		for i := 0; i < d; i++ {
			// Feasible bounds for l_i and u_i given the other coordinates.
			newLo, newHi := axLo, axHi
			for _, c := range reg.Constraints {
				ai := c.Normal[i]
				if ai == 0 {
					continue
				}
				// Worst-corner contribution of the other dimensions.
				rest := 0.0
				for j := 0; j < d; j++ {
					if j == i {
						continue
					}
					aj := c.Normal[j]
					if aj > 0 {
						rest += aj * lo[j]
					} else {
						rest += aj * hi[j]
					}
				}
				if ai > 0 {
					// Need ai·l_i + rest ≥ 0 ⇒ l_i ≥ −rest/ai.
					if b := -rest / ai; b > newLo {
						newLo = b
					}
				} else {
					// Need ai·u_i + rest ≥ 0 ⇒ u_i ≤ rest/(−ai).
					if b := rest / (-ai); b < newHi {
						newHi = b
					}
				}
			}
			if newLo > q[i] {
				newLo = q[i] // must keep q inside
			}
			if newHi < q[i] {
				newHi = q[i]
			}
			if math.Abs(newLo-lo[i]) > 1e-12 || math.Abs(newHi-hi[i]) > 1e-12 {
				lo[i], hi[i] = newLo, newHi
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return lo, hi
}

// RadarBounds returns, for each axis of a radar chart (Figure 1(b)), the
// inner and outer tipping-point marks derived from the LIRs.
func RadarBounds(reg *gir.Region, q vec.Vector) (inner, outer vec.Vector) {
	ivs := LIRs(reg, q)
	inner = make(vec.Vector, len(ivs))
	outer = make(vec.Vector, len(ivs))
	for i, iv := range ivs {
		inner[i], outer[i] = iv.Lo, iv.Hi
	}
	return inner, outer
}
