// Package invalidate decides whether a dataset mutation can perturb a
// cached top-k result anywhere inside its Global Immutable Region — the
// fine-grained alternative to flushing a GIR-keyed cache on every write.
//
// The GIR is precisely a certificate of where a cached result stays valid,
// so it also tells us which mutations matter:
//
//   - Delete(id): within the region the result's composition is fixed, so
//     removing a record changes the result iff that record IS in the
//     result. Deleting a non-result record never invalidates the entry —
//     the result records are still present and still beat everything that
//     remains (the true GIR can only grow; the cached region stays a sound,
//     if no longer maximal, certificate).
//
//   - Insert(id, p): within the region the k-th result record p_k is fixed,
//     and under linear scoring its score at weight w is w·p_k. The new
//     record enters the top-k at weight w iff w·p > w·p_k. The entry is
//     therefore affected iff
//
//     max_{w ∈ R} w·(p − p_k)  >  0,
//
//     a linear program over the region's constraint cone clipped to the
//     region's query-space domain (internal/domain: the unit box or the
//     Σw=1 simplex) — exactly what Domain.MaximizeLinear solves.
//     Closed-form filters decide the common cases without an LP: if the
//     objective's domain-wide upper bound is nonpositive (for the box,
//     p componentwise dominated by p_k; for the simplex, max_j (p−p_k)_j
//     ≤ 0), no weight of the domain prefers p (keep); if the objective is
//     already positive at the region's own query vector or anywhere in
//     the entry's precomputed inscribed box intersected with the domain
//     (the MAH fast path), some weight in R prefers p (evict); if one
//     region constraint alone implies p_k·w ≥ p·w on the nonnegative
//     orthant (geom.ImpliedByOne), no weight of R prefers p (keep).
//
// Ties follow the results' total order, (score desc, id asc): a new
// record that ties p_k enters the top-k iff its id is smaller. So an
// insert whose id is smaller than p_k's is affecting when its margin can
// reach −Tol anywhere in the region but w = 0, and one whose id is larger
// only when the margin can exceed Tol. Rankings are scale-invariant, so
// the former is decided over region ∩ {Σw = 1} in either query space: in
// the box the margin is 0 at w = 0, which ranks nothing, and would evict
// every entry. Inside that tolerance decisions are conservative: any
// numerical doubt (LP non-optimal status, margins near the threshold)
// resolves toward "affected", so a kept entry is always safe to serve.
package invalidate

import (
	"math"
	"sync"

	"github.com/girlib/gir/internal/domain"
	"github.com/girlib/gir/internal/geom"
	gir "github.com/girlib/gir/internal/gir"
	"github.com/girlib/gir/internal/lp"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

// Tol is the margin below which a score difference is considered a tie.
// It sits above the LP solver's internal tolerance (1e-9) and far below
// any margin arising from data that is not engineered to tie.
const Tol = 1e-9

// DeleteAffects reports whether deleting record id invalidates the cached
// result recs: true iff the record is part of the result.
func DeleteAffects(recs []topk.Record, id int64) bool {
	for _, r := range recs {
		if r.ID == id {
			return true
		}
	}
	return false
}

// InsertAffects is InsertAffectsID for an insert that loses every tie, as
// one with an id above every result's does.
func InsertAffects(reg *gir.Region, recs []topk.Record, p vec.Vector, innerLo, innerHi vec.Vector) bool {
	return InsertAffectsID(reg, recs, math.MaxInt64, p, innerLo, innerHi)
}

// InsertAffectsID reports whether inserting record id with attributes p can
// change the top-|recs| result anywhere in reg. Four closed-form filters
// run before the LP, cheapest first: the domain-wide bound (keep), the
// region's own query (evict), the inscribed box (evict), and the
// implication certificate (keep): one region normal n with (p_k − p) − λn
// componentwise nonnegative for some λ ≥ 0 (geom.ImpliedByOne, the test
// Region.Shrink screens added half-spaces with). The certificate proves a
// margin of at most zero, which keeps only an insert that loses a tie.
// Each filter decides only its own direction; what they leave open falls
// through to the exact LP, on a pooled scratch.
func InsertAffectsID(reg *gir.Region, recs []topk.Record, id int64, p vec.Vector, innerLo, innerHi vec.Vector) bool {
	if reg == nil || len(recs) == 0 {
		return true // nothing to certify against: evict
	}
	kth := recs[len(recs)-1]
	pk := kth.Point
	if len(p) != len(pk) || len(p) != reg.Dim {
		return true // malformed input: evict rather than risk staleness
	}
	// The margin p must beat to enter: a tie is enough for a smaller id,
	// anywhere in the region but w = 0.
	thr, dom := Tol, reg.Space()
	winsTie := id < kth.ID
	if winsTie {
		thr, dom = -Tol, domain.Simplex(reg.Dim)
	}
	s := scratches.Get().(*scratch)
	defer scratches.Put(s)
	s.diff, s.keep = vec.Grown(s.diff, len(p)), vec.Grown(s.keep, len(p))
	diff := s.diff // p − p_k: the margin's objective
	for i := range p {
		diff[i] = p[i] - pk[i]
	}
	// Dominance filter: the domain-wide upper bound of w·diff caps the
	// margin everywhere in the region (R ⊆ domain). For the box this is
	// the classical componentwise-dominance test (Σ of positive diffs);
	// for the simplex it is max_j diff_j — exact over the whole domain.
	// Keep when even that cannot go positive.
	if dom.UpperBound(diff) <= thr {
		return false
	}
	// Query filter: the region's own query is inside it; a positive margin
	// there means the new record enters that very result. Evict.
	if vec.Dot(reg.Query, diff) > thr {
		return true
	}
	// Inscribed-box filter: maximize w·diff in closed form over
	// [innerLo, innerHi] ∩ domain. The box is inscribed in the region's
	// cone, so a positive margin there is a positive margin at a point of
	// region ∩ domain. Evict.
	if len(innerLo) == len(diff) && len(innerHi) == len(diff) {
		if inner, ok := dom.MaxOverBox(diff, innerLo, innerHi); ok && inner > thr {
			return true
		}
	}
	// Implication certificate: one region constraint alone proves the
	// margin nonpositive on region ⊆ nonnegative orthant. Keep, unless p
	// would win a tie.
	if !winsTie {
		for i, x := range diff {
			s.keep[i] = -x
		}
		for _, c := range reg.Constraints {
			if geom.ImpliedByOne(s.keep, c.Normal) {
				return false
			}
		}
	}
	// Exact decision: max w·(p − p_k) over the region's cone constraints
	// clipped to the domain. The region's query vector is feasible, so a
	// non-Optimal status is a numerical failure, resolved conservatively;
	// only a margin beyond the threshold signals an overtake.
	s.cons = s.cons[:0]
	for _, c := range reg.Constraints {
		s.cons = append(s.cons, lp.Constraint{Coef: c.Normal, Op: lp.GE, RHS: 0})
	}
	sol := dom.MaximizeLinear(&s.lp, diff, s.cons)
	clear(s.cons) // the pool must not keep the region's normals reachable
	if sol.Status != lp.Optimal {
		return true // numerical failure: evict conservatively
	}
	return sol.Objective > thr
}

// scratch is one InsertAffects call's workspace.
type scratch struct {
	diff, keep vec.Vector
	cons       []lp.Constraint
	lp         lp.Solver
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}
