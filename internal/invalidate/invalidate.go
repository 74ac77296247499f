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
//     therefore affected iff max w·(p − p_k) over region ∩ domain is
//     positive.
//
// The region is a cone on the nonnegative orthant, so that maximum is
// decided by its extreme rays (gir.Region.Rays), scaled to Σw = 1: they
// are the vertices of the region's Σw = 1 slice (Fukuda & Prodon, "Double
// description method revisited", 1996). The test is one dot product per
// ray, with no LP and no filter: evict iff some ray ĝ has ĝ·(p − p_k)
// above the threshold below.
//
// Ties follow the results' total order, (score desc, id asc): a new record
// that ties p_k enters the top-k iff its id is smaller. Rankings are
// scale-invariant, so that case is decided over region ∩ {Σw = 1} in
// either query space (in the box the margin is 0 at w = 0, which ranks
// nothing, and would evict every entry): the insert is affecting when some
// ray's margin exceeds −Tol, which is the maximum over that slice. One
// whose id is larger must beat p_k by more than Tol somewhere in
// region ∩ domain, and the rays evict it when some ray's margin exceeds
// Tol/d. That never keeps such an insert: a point w* of region ∩ domain is
// Σ μ_r ĝ_r with μ ≥ 0 and Σ μ_r = Σ w* ≤ d in either domain, so
// w*·(p − p_k) > Tol forces max_r ĝ_r·(p − p_k) > Tol/d.
//
// Before its rays, the test reads the entry's ray box (lo_j ≤ ĝ_j ≤ hi_j
// for every ray ĝ and coordinate j; cache.Entry pads it by 1e-9): with
// v = p − p_k, an insert whose bound Σ_j max(lo_j·v_j, hi_j·v_j) is at most
// the threshold is kept without reading a ray. The bound is at least every
// ray's margin after rounding too: each rounded ĝ_j·v_j is at most the
// rounded max, since rounding is monotone, both sums add their terms in the
// same order, and a rounded sum is monotone in each addend. Every product is
// rounded on its own (no fused multiply-add), so this holds on every
// architecture, and the verdicts are the rays' alone.
//
// The rays may span more than the region: a cone capped at its row or ray
// budget keeps a larger cone's rays, and the double description's
// tolerances keep rays just outside a hyperplane. A larger cone has a
// larger maximum, so its test only evicts more, and a kept entry is always
// safe to serve.
package invalidate

import (
	"math"

	gir "github.com/girlib/gir/internal/gir"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

// Tol is the margin below which a score difference is considered a tie.
// It sits far below any margin arising from data that is not engineered to
// tie.
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

// InsertAffectsRays reports whether inserting record id with attributes p
// can change the top-|recs| result anywhere in a region whose extreme rays,
// scaled to Σw = 1, are the row-major len(p)-wide rows of rays (see the
// package comment). box, when it has 2·len(p) values, is lo then hi, a box
// holding every ray, and is read first. A cache entry holds its region's
// rays and their box; this is the test a drain runs on them.
func InsertAffectsRays(box, rays []float64, recs []topk.Record, id int64, p vec.Vector) bool {
	d := len(p)
	if len(recs) == 0 || d == 0 || len(rays) == 0 || len(rays)%d != 0 {
		return true // nothing to certify against, or malformed: evict
	}
	kth := recs[len(recs)-1]
	pk := kth.Point
	if len(pk) != d {
		return true
	}
	thr := Tol / float64(d)
	if id < kth.ID { // a tie is enough, anywhere in the region but w = 0
		thr = -Tol
	}
	if len(box) == 2*d {
		lo, hi := box[:d], box[d:]
		var s float64
		for j, x := range p {
			v := x - pk[j]
			s += max(float64(lo[j]*v), float64(hi[j]*v))
		}
		if s <= thr {
			return false
		}
	}
	for g := rays; len(g) > 0; g = g[d:] {
		var s float64
		for j, x := range p {
			s += float64(g[j] * (x - pk[j]))
		}
		if s > thr {
			return true
		}
	}
	return false
}

// InsertAffects is InsertAffectsID for an insert that loses every tie, as
// one with an id above every result's does. The box arguments are ignored.
func InsertAffects(reg *gir.Region, recs []topk.Record, p vec.Vector, _, _ vec.Vector) bool {
	return InsertAffectsID(reg, recs, math.MaxInt64, p, nil, nil)
}

// InsertAffectsID is InsertAffectsRays on reg's rays, enumerated afresh on
// every call; a nil region or a p of another dimension evicts. The box
// arguments are ignored: they remain so existing callers still compile.
func InsertAffectsID(reg *gir.Region, recs []topk.Record, id int64, p vec.Vector, _, _ vec.Vector) bool {
	if reg == nil || len(p) != reg.Dim {
		return true
	}
	return InsertAffectsRays(nil, reg.Rays(), recs, id, p)
}
