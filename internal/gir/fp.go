package gir

import (
	"errors"
	"slices"

	"github.com/girlib/gir/internal/domain"
	"github.com/girlib/gir/internal/hull"
	"github.com/girlib/gir/internal/lp"
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

// phase1Pruner implements the footnote-7 optimization: an R-tree node is
// additionally prunable when, for every query vector inside the Phase-1
// cone (clipped to the query-space domain), even the node's MBB top corner
// cannot overtake p_k. Any constraint such a node could contribute is
// implied by the Phase-1 half-spaces, so dropping it leaves the region
// unchanged.
type phase1Pruner struct {
	cons []lp.Constraint // Phase-1 normals (≥ 0) plus the domain's rows
	pk   vec.Vector      // g(p_k)
	d    int
}

// newPhase1Pruner takes the Phase-1 normals as one row-major slab (the
// scratch's, copied: that one moves as Phase 2 appends to it).
func newPhase1Pruner(phase1 []float64, pk vec.Vector, dom domain.Domain) *phase1Pruner {
	d := dom.Dim()
	phase1 = slices.Clone(phase1)
	cons := make([]lp.Constraint, 0, len(phase1)/d+d)
	for i := 0; i+d <= len(phase1); i += d {
		cons = append(cons, lp.Constraint{Coef: phase1[i : i+d], Op: lp.GE, RHS: 0})
	}
	cons = append(cons, dom.LPConstraints()...)
	return &phase1Pruner{cons: cons, pk: pk, d: d}
}

// canAffect reports whether some record below the MBB corner hi can
// overtake p_k for some query vector inside the Phase-1 cone.
func (pp *phase1Pruner) canAffect(hi vec.Vector) bool {
	obj := vec.Sub(hi, pp.pk)
	sol := lp.Maximize(obj, pp.cons)
	// The feasible set contains the original query vector and the domain
	// keeps it bounded, so Optimal is the only expected status; be
	// conservative on anything else.
	if sol.Status != lp.Optimal {
		return true
	}
	return sol.Objective > 1e-12
}

// fpPhase implements Facet Pruning (Section 6): maintain only the convex-
// hull facets of {anchor} ∪ D\R that are incident to the anchor — one
// star per anchor, p_k alone for the GIR (Section 7.1 for the GIR*) —
// first over the in-memory set T (step 1), then refining against the
// R-tree through the retained BRS search heap (step 2). The records
// incident to the final facets — the critical records — are the only
// non-result records that can bound the region.
//
// The generic star structure covers every dimensionality d ≥ 2; for d = 2
// it degenerates exactly to the paper's two rotating facets (the star of a
// convex-polygon vertex always has two edges), so no separate 2-d code
// path is required for correctness. See BenchmarkAblationFP2D for the
// measured difference against a specialized angular-sort variant.
func (sc *scratch) fpPhase(tree *rtree.Tree, res *topk.Result, anchors []topk.Record, st *Stats, pruner *phase1Pruner) error {
	stars, err := sc.buildStars(tree, res, anchors, st)
	if errors.Is(err, hull.ErrDegenerate) {
		// The known records span a lower-dimensional flat; SP is always
		// applicable and exact, so degrade gracefully.
		sc.spPhase(tree, res, anchors, st)
		return nil
	}
	if err != nil {
		return err
	}

	// Step 2: refine against records still on disk, pruning heap entries
	// whose MBB lies below every facet of every star (and, with the
	// footnote-7 pruner, entries that cannot matter inside the Phase-1
	// cone). A fetched leaf goes to each star as one column-major block.
	prunable := func(lo, hi vec.Vector) bool {
		for i := range stars {
			if stars[i].MBBAboveAny(lo, hi) {
				return pruner != nil && !pruner.canAffect(hi)
			}
		}
		return true
	}
	d, h := sc.d, res.Heap
	for h.Len() > 0 {
		it := h.PopItem()
		if prunable(it.Rect.Lo, it.Rect.Hi) {
			st.NodesPruned++
			continue
		}
		blk := tree.ReadBlock(it.Child, &sc.blk)
		st.NodesRead++
		if blk.Leaf {
			for i := range stars {
				stars[i].AddBlock(blk.Cols, blk.RecIDs)
			}
			continue
		}
		for i, child := range blk.Children {
			if prunable(blk.Lo[i*d:(i+1)*d], blk.Hi[i*d:(i+1)*d]) {
				st.NodesPruned++
				continue
			}
			// The block is overwritten by the next read; the pushed entry
			// keeps its box in the scratch's arena.
			at := len(sc.rects)
			sc.rects = append(append(sc.rects, blk.Lo[i*d:(i+1)*d]...), blk.Hi[i*d:(i+1)*d]...)
			rect := rtree.Rect{Lo: sc.rects[at : at+d : at+d], Hi: sc.rects[at+d : at+2*d : at+2*d]}
			h.PushItem(topk.NodeItem{Key: res.Func.MaxScore(rect.Lo, rect.Hi, res.Query), Child: child, Rect: rect})
		}
	}

	for i := range stars {
		st.StarFacets += stars[i].NumFacets()
		ids, pts := stars[i].Critical()
		st.Critical += len(ids)
		for j, id := range ids {
			sc.add(Replace, anchors[i].ID, id, anchors[i].Point, pts[j])
		}
	}
	return nil
}

// buildStars runs FP's first step: seed each anchor's star with the
// paper's virtual axis-projection points plus the in-memory set T (using
// the max-per-dimension heuristic of Section 6.3.1, which the star's
// greedy extent selection subsumes). If an anchor plus seeds are
// degenerate, it pulls additional records from the search heap into T
// until a full-dimensional simplex exists.
func (sc *scratch) buildStars(tree *rtree.Tree, res *topk.Result, anchors []topk.Record, st *Stats) ([]hull.Star, error) {
	for len(sc.stars) < len(anchors) {
		sc.stars = append(sc.stars, hull.Star{})
	}
	stars := sc.stars[:len(anchors)]
	for {
		var err error
		for i, a := range anchors {
			sc.seeds, sc.seedIDs = hull.VirtualSeeds(sc.seeds[:0], sc.seedIDs[:0], &sc.virtual, a.Point)
			for _, rec := range res.T {
				sc.seeds = append(sc.seeds, rec.Point)
				sc.seedIDs = append(sc.seedIDs, rec.ID)
			}
			if err = stars[i].Reset(a.Point, sc.seeds, sc.seedIDs); err != nil {
				break
			}
		}
		if !errors.Is(err, hull.ErrDegenerate) || res.Heap.Len() == 0 {
			return stars, err
		}
		// Pull one more node's worth of records and retry. They join T so
		// that a later SP fallback (or any other consumer of the
		// encountered set) still sees them.
		blk := tree.ReadBlock(res.Heap.PopItem().Child, &sc.blk)
		st.NodesRead++
		for i := 0; i < blk.Count; i++ {
			if blk.Leaf {
				p := vec.Vector(blk.Point(i, make([]float64, sc.d)))
				res.T = append(res.T, topk.Record{ID: blk.RecIDs[i], Point: p, Score: res.Func.Score(p, res.Query)})
			} else {
				lo, hi := vec.Vector(blk.Lo[i*sc.d:(i+1)*sc.d]).Clone(), vec.Vector(blk.Hi[i*sc.d:(i+1)*sc.d]).Clone()
				res.Heap.PushItem(topk.NodeItem{Key: res.Func.MaxScore(lo, hi, res.Query), Child: blk.Children[i], Rect: rtree.Rect{Lo: lo, Hi: hi}})
			}
		}
	}
}
