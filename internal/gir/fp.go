package gir

import (
	"errors"

	"github.com/girlib/gir/internal/hull"
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

// fpPhase implements Facet Pruning (Section 6): maintain only the convex-
// hull facets of {anchor} ∪ D\R that are incident to the anchor — one
// star per anchor, p_k alone for the GIR (Section 7.1 for the GIR*) —
// first over the in-memory set T (step 1), then refining against the
// R-tree through the retained BRS search heap (step 2). The records
// incident to the final facets — the critical records — are the only
// non-result records that can bound the region.
//
// The star covers every dimensionality d ≥ 2; for d = 2 it degenerates
// exactly to the paper's two rotating facets (the star of a convex-polygon
// vertex always has two edges), so Section 6.2's angular sweep is not a
// separate path. It builds the same regions and is not slower: on a 2-core
// Xeon (IND, n = 20 000, k = 20) the star built a d = 2 GIR in 91–108 µs
// with 13 allocations against the sweep's 106–117 µs with 572.
//
// A GIR's Phase 1 already bounds the region by the cone P1, and footnote 7
// drops every record and node that cannot beat p_k anywhere in it: when P1
// is pointed (sc.screen), a T record joins the star's seeds, a heap entry
// is read and a critical record yields a constraint only if some extreme
// ray of P1 lets it (geom.Cone). A dropped record's half-space is implied
// by P1, so the region is the same set, and its minimal form the same
// bytes; only the work shrinks. A fill drops T's records and the heap's
// entries before FP starts: the traversal's tail built P1 and copied out
// only what it keeps (topk.ScreenedGroup, sc.tail), and the entries it
// left out count as pruned here, as they would have been on their pop.
// Otherwise FP screens T itself, and prunes heap entries as it pops them.
// A fetched leaf still goes to the star whole: screening its records as
// well leaves the star looser, and at small k, where P1 is wide, that
// costs page reads.
func (sc *scratch) fpPhase(tree *rtree.Tree, res *topk.Result, anchors []topk.Record, st *Stats) error {
	stars, err := sc.buildStars(tree, res, anchors, st)
	st.NodesPruned += res.DroppedNodes
	if errors.Is(err, hull.ErrDegenerate) {
		// Only numerics leave an anchor and its virtual seeds without a
		// simplex. SP is always applicable and exact, and seeds its
		// skyline from the sorted T, as compute sorts it for SP.
		topk.SortRecords(res.T)
		sc.spPhase(tree, res, anchors, st)
		return nil
	}
	if err != nil {
		return err
	}

	// Step 2: refine against records still on disk, pruning heap entries
	// whose MBB lies below every facet of every star or cannot beat p_k
	// anywhere in P1. A fetched leaf goes to each star as one column-major
	// block.
	prunable := func(lo, hi vec.Vector) bool {
		if sc.screen && !sc.cone.BoxMayBeat(lo, hi) {
			return true
		}
		for i := range stars {
			if stars[i].MBBAboveAny(lo, hi) {
				return false
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
		if sc.screen {
			// A leaf's records reach the star unscreened; a star vertex the
			// cone drops cannot bound the region, as Phase 1 implies its
			// half-space.
			sc.screenPoints(len(pts), func(j int) vec.Vector { return pts[j] })
		}
		for j, id := range ids {
			if !sc.screen || sc.keep[j] {
				st.Critical++
				sc.add(Replace, anchors[i].ID, id, anchors[i].Point, pts[j])
			}
		}
	}
	return nil
}

// buildStars runs FP's first step: seed each anchor's star with its
// virtual seeds (hull.VirtualSeeds, which with the anchor always span a
// full-dimensional simplex) plus the in-memory set T (using the
// max-per-dimension heuristic of Section 6.3.1, which the star's greedy
// extent selection subsumes), leaving out the T records the Phase-1
// screen drops. T arrives in traversal order, and only the seeds are
// sorted. A screened traversal copied out only the records the screen
// keeps (sc.tail); otherwise the screen moves them to T's front. Either
// way it sorts that run, which under the total record order is exactly
// the subsequence of the sorted T the screen keeps. It reads no page and
// counts nothing, but takes the tree and Stats as the phases do.
func (sc *scratch) buildStars(_ *rtree.Tree, res *topk.Result, anchors []topk.Record, _ *Stats) ([]hull.Star, error) {
	for len(sc.stars) < len(anchors) {
		sc.stars = append(sc.stars, hull.Star{})
	}
	stars := sc.stars[:len(anchors)]
	seeds := res.T
	if sc.screen && !sc.tail {
		sc.screenPoints(len(res.T), func(i int) vec.Vector { return res.T[i].Point })
		n := 0
		for i, kept := range sc.keep[:len(res.T)] {
			if kept {
				res.T[n], res.T[i] = res.T[i], res.T[n]
				n++
			}
		}
		seeds = res.T[:n]
	}
	topk.SortRecords(seeds)
	for i, a := range anchors {
		sc.seeds, sc.seedIDs = hull.VirtualSeeds(sc.seeds[:0], sc.seedIDs[:0], &sc.virtual, a.Point)
		for _, rec := range seeds {
			sc.seeds = append(sc.seeds, rec.Point)
			sc.seedIDs = append(sc.seedIDs, rec.ID)
		}
		if err := stars[i].Reset(a.Point, sc.seeds, sc.seedIDs); err != nil {
			return stars, err
		}
	}
	return stars, nil
}

// screenPoints sets sc.keep[i] for each of the n points at(i) that the
// Phase-1 cone lets beat p_k, screening them as one column-major block.
func (sc *scratch) screenPoints(n int, at func(int) vec.Vector) {
	d := sc.d
	sc.tbuf, sc.tcols = vec.Grown(sc.tbuf, d*n), vec.Grown(sc.tcols, d)
	for j := range sc.tcols {
		sc.tcols[j] = sc.tbuf[j*n : (j+1)*n]
	}
	for i := 0; i < n; i++ {
		for j, x := range at(i) {
			sc.tcols[j][i] = x
		}
	}
	sc.keep = vec.Grown(sc.keep, n)
	sc.cone.Screen(sc.keep, sc.tcols)
}
