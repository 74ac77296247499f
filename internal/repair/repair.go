// Package repair patches cached GIR entries in place of evicting them —
// the maintenance layer the paper's immutable-region formulation makes
// possible. internal/invalidate classifies which cached entries a dataset
// mutation can perturb; this package decides, for an affected entry,
// whether the perturbation is closed-form and, if so, derives the repaired
// entry: the post-mutation result plus a region that is provably sound for
// it. The next query inside the repaired region is then a cache hit
// instead of a full top-k + GIR recompute.
//
// The two closed-form cases (both linear scoring — the only family the
// cache stores):
//
//   - Insert(p) that perturbs the entry. At the entry's own query vector
//     w_q either p enters the result or it does not.
//
//     If w_q·p > w_q·p_k and an LP certifies that p never overtakes the
//     (k−1)-th result record anywhere in the region, p displaces exactly
//     the k-th record: the repaired result swaps p in for p_k, and the
//     region shrinks by the pairwise constraints (p_{k−1} − p)·w ≥ 0 and
//     (p − p_k)·w ≥ 0. Every other comparison the old region certified
//     carries over: non-result records stay below the old p_k, which now
//     stays below p.
//
//     If w_q·p < w_q·p_k, the result is unchanged where it is still
//     correct: the region shrinks by (p_k − p)·w ≥ 0, which is exactly the
//     constraint a from-scratch recompute would add, so the repaired
//     region is the true post-insert GIR.
//
//   - Delete(id) of a result record. The retained candidate set T (the
//     non-result records BRS encountered, stored in the entry at fill
//     time) supplies the replacement: the best candidate t* at w_q is
//     promoted to the k-th slot, and the region shrinks by (t* − t)·w ≥ 0
//     for every other candidate t and by (t* − hi_j)·w ≥ 0 for the top
//     corner hi_j of every R-tree subtree BRS never expanded. The corner
//     constraints are what make promotion sound against records the fill
//     never saw: a record under an unexpanded subtree scores at most
//     w·hi_j, so inside the shrunk region it cannot overtake t*.
//
// Everything else — p overtaking deeper result records, a delete with the
// candidate set exhausted, any added constraint cutting away the entry's
// own query point — falls back to eviction. Ties are conservative too: a
// margin within Tol of zero at w_q means the repaired order would hinge on
// an exact score tie, and the entry is evicted rather than repaired (see
// the tie limitation documented in internal/invalidate; repair must never
// widen that gap).
//
// Repaired regions are always sound but, for the swap and promote cases,
// no longer maximal (they retain constraints that kept the displaced
// record above records it no longer needs to dominate). The differential
// harness in the root package checks exactly this contract: result set and
// k-th score byte-equal to a fresh recompute, region a subset of the fresh
// one.
package repair

import (
	"sync"

	gir "github.com/girlib/gir/internal/gir"
	"github.com/girlib/gir/internal/invalidate"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

// Tol is the tie margin: any repaired ordering that would rest on a score
// difference within Tol at the entry's query vector is refused (evict).
// Shared with the invalidation classifier so the two layers agree on what
// a tie is.
const Tol = invalidate.Tol

// Entry is the slice of a cached entry the repair decision needs. Slices
// are read, never mutated: a successful repair returns fresh slices.
type Entry struct {
	Region  *gir.Region
	Records []topk.Record // the cached top-k, in score order at Region.Query
	Cand    []topk.Record // retained non-result candidates (T at fill time, maintained since)
	Bounds  []vec.Vector  // top corners of R-tree subtrees the fill never expanded

	// InnerLo and InnerHi are ignored: invalidation decides on Region's
	// rays. They remain so existing callers still compile.
	InnerLo, InnerHi vec.Vector
}

// Repaired is the patched entry a successful repair produces. Region is
// freshly derived (old constraints plus the new pairwise ones, reduced);
// Records and Cand are fresh slices.
type Repaired struct {
	Region  *gir.Region
	Records []topk.Record
	Cand    []topk.Record
}

// scoreAt evaluates the linear score with the exact code path BRS and the
// engine use, so repaired scores are byte-identical to recomputed ones.
func scoreAt(p, q vec.Vector) float64 { return score.Linear{}.Score(p, q) }

// Insert attempts to repair an entry perturbed by inserting record
// (id, p). The caller has already classified the entry as affected
// (invalidate.InsertAffectsID returned true); Insert decides whether the
// perturbation is the closed-form k-th-displacement case and returns the
// repaired entry, or (nil, false) meaning evict.
func Insert(e Entry, id int64, p vec.Vector) (*Repaired, bool) {
	reg := e.Region
	k := len(e.Records)
	if reg == nil || k == 0 || len(p) != reg.Dim {
		return nil, false
	}
	pk := e.Records[k-1]
	q := reg.Query
	pScore := scoreAt(p, q)
	margin := pScore - pk.Score
	if margin <= Tol && margin >= -Tol {
		// Exact tie at the query itself: the repaired order would be
		// arbitrary. Evict conservatively.
		return nil, false
	}

	if margin < 0 {
		// Keep case: p does not enter the result at w_q. Shrink to the part
		// of the region where the old result stays correct — exactly the
		// constraint a fresh recompute would derive for p.
		nreg := reg.Shrink([]gir.Constraint{pairwise(pk, topk.Record{ID: id, Point: p})})
		if !nreg.Contains(q, 0) {
			return nil, false
		}
		cand := append(append([]topk.Record(nil), e.Cand...),
			topk.Record{ID: id, Point: p, Score: pScore})
		return &Repaired{Region: nreg, Records: e.Records, Cand: cand}, true
	}

	// Swap case: p enters at w_q. Sound as a pure k-th displacement only if
	// p never overtakes the (k−1)-th record anywhere in the region — the
	// same decision procedure as invalidation, aimed one rank higher — and
	// only if p sits strictly between the (k−1)-th and k-th at the query
	// itself (a tie with the record above would leave the repaired order
	// resting on an exact tie: evict).
	if k >= 2 {
		if e.Records[k-2].Score-pScore <= Tol {
			return nil, false
		}
		if invalidate.InsertAffectsID(reg, e.Records[:k-1], id, p, e.InnerLo, e.InnerHi) {
			return nil, false
		}
	}
	newRec := topk.Record{ID: id, Point: p, Score: pScore}
	added := []gir.Constraint{pairwise(newRec, pk)}
	if k >= 2 {
		added = append(added, gir.Constraint{
			Normal: vec.Sub(e.Records[k-2].Point, p),
			Kind:   gir.Reorder,
			A:      e.Records[k-2].ID,
			B:      id,
		})
	}
	nreg := reg.Shrink(added)
	if !nreg.Contains(q, 0) {
		return nil, false
	}
	recs := append(append([]topk.Record(nil), e.Records[:k-1]...), newRec)
	cand := append(append([]topk.Record(nil), e.Cand...), pk)
	return &Repaired{Region: nreg, Records: recs, Cand: cand}, true
}

// Delete attempts to repair an entry whose result contains the deleted
// record id by promoting the best retained candidate into the freed slot.
// It returns (nil, false) — evict — when the candidate set is exhausted,
// when an unexpanded-subtree bound could hide a better record, when the
// promotion would rest on a tie, or when the shrunk region no longer
// contains the entry's query.
func Delete(e Entry, id int64) (*Repaired, bool) {
	reg := e.Region
	if reg == nil || len(e.Records) == 0 || len(e.Cand) == 0 {
		return nil, false
	}
	at := -1
	for i, r := range e.Records {
		if r.ID == id {
			at = i
			break
		}
	}
	if at < 0 {
		return nil, false // not a result record: nothing to repair
	}
	q := reg.Query

	// t* = the best candidate at the entry's own query vector. Scores are
	// recomputed here rather than trusted from fill time: candidates
	// absorbed from later inserts carry scores computed the same way, and
	// recomputing keeps the choice independent of bookkeeping history.
	best, second := -1, -1
	var bestScore, secondScore float64
	for i, c := range e.Cand {
		s := scoreAt(c.Point, q)
		if best < 0 || s > bestScore {
			second, secondScore = best, bestScore
			best, bestScore = i, s
		} else if second < 0 || s > secondScore {
			second, secondScore = i, s
		}
	}
	if second >= 0 && bestScore-secondScore <= Tol {
		return nil, false // promotion would hinge on a tie at w_q
	}
	tstar := e.Cand[best]
	tstar.Score = bestScore
	// The record that will sit directly above t* in the repaired result —
	// the last surviving result record — must beat it by more than the tie
	// margin at w_q, or the repaired order rests on an exact tie: evict.
	if len(e.Records) > 1 {
		above := e.Records[len(e.Records)-1]
		if at == len(e.Records)-1 {
			above = e.Records[len(e.Records)-2]
		}
		if above.Score-bestScore <= Tol {
			return nil, false
		}
	}

	// A subtree the fill never expanded can hold a record scoring up to
	// w·hi_j. If any such bound reaches t* at the query, a hidden record
	// may deserve the slot instead: evict. Otherwise the corner constraints
	// keep hidden records below t* across the whole shrunk region.
	sc := scratches.Get().(*scratch)
	defer scratches.Put(sc)
	sc.slab = vec.Grown(sc.slab, (len(e.Bounds)+len(e.Cand))*reg.Dim)[:0]
	sc.added = sc.added[:0]
	for _, hi := range e.Bounds {
		if len(hi) != reg.Dim {
			return nil, false
		}
		if bestScore-scoreAt(hi, q) <= Tol {
			return nil, false
		}
		// B −1: no single record, an unexpanded-subtree bound.
		sc.add(tstar.Point, hi, tstar.ID, -1)
	}
	cand := make([]topk.Record, 0, len(e.Cand)-1)
	for i, c := range e.Cand {
		if i == best {
			continue
		}
		cand = append(cand, c)
		sc.add(tstar.Point, c.Point, tstar.ID, c.ID)
	}
	nreg := reg.Shrink(sc.added)
	if !nreg.Contains(q, 0) {
		return nil, false
	}
	recs := make([]topk.Record, 0, len(e.Records))
	recs = append(recs, e.Records[:at]...)
	recs = append(recs, e.Records[at+1:]...)
	recs = append(recs, tstar)
	return &Repaired{Region: nreg, Records: recs, Cand: cand}, true
}

// pairwise builds the half-space keeping record a's score at or above
// record b's — the Replace constraint (g(a) − g(b))·w ≥ 0 under linear
// scoring.
func pairwise(a, b topk.Record) gir.Constraint {
	return gir.Constraint{
		Normal: vec.Sub(a.Point, b.Point),
		Kind:   gir.Replace,
		A:      a.ID,
		B:      b.ID,
	}
}

// scratch holds the half-spaces one Delete hands Region.Shrink — several
// hundred, of which a handful survive, copied by Shrink — their normals in
// one slab.
type scratch struct {
	slab  []float64
	added []gir.Constraint
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}

// add appends the Replace half-space (a − b)·w ≥ 0, unless the normal is
// componentwise nonnegative: that holds on every query space, and Shrink
// would drop it on sight.
func (sc *scratch) add(a, b vec.Vector, aID, bID int64) {
	at, cuts := len(sc.slab), false
	for i := range a {
		x := a[i] - b[i]
		sc.slab = append(sc.slab, x)
		cuts = cuts || x < 0
	}
	if !cuts {
		sc.slab = sc.slab[:at]
		return
	}
	sc.added = append(sc.added, gir.Constraint{Normal: sc.slab[at:len(sc.slab):len(sc.slab)], Kind: gir.Replace, A: aID, B: bID})
}
