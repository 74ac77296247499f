package gir

import (
	"errors"

	"github.com/girlib/gir/internal/hull"
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

// fpPhase implements Facet Pruning (Section 6): keep only what bounds the
// region at the anchor — first over the in-memory set T (step 1), then
// refining against the R-tree through the retained BRS search heap
// (step 2) — so the records it keeps, the critical records, are the only
// non-result records that can bound the region.
//
// The paper keeps the convex-hull facets incident to the anchor, its star,
// and footnote 7 prunes by the Phase-1 cone P1 as well. Both describe one
// object, the region's extreme rays: the star's facet normals span the
// normal cone at the anchor, and the region is P1 cut by it. So where P1
// is pointed (sc.pointed: a GIR with k − 1 ≥ d and rows of full rank),
// FP grows no star: it continues P1's rays (geom.Cone) as the region
// itself. The run of T that P1's rays keep, in record order, is cut in
// first, then each record of a fetched leaf that the current rays let beat
// p_k; a record is a Phase-2
// constraint only when it cuts, that is puts some ray strictly outside
// its half-space, and a heap entry is read only if its box may beat p_k
// on the current rays. A record that does not cut is implied by the
// records before it and Phase 1, so the region is the star's set and its
// minimal form the star's bytes, but where the star's region leaves the
// half-spaces of its virtual seeds (the cone also keeps the records that
// bound it only out there, off the query space) or lies in a hyperplane
// (no unique minimal form). finish's reduction finds the rays already
// there and only classifies. A cone that passes 64
// distinct rows or its ray budget stops cutting and keeps its rays, a
// larger cone: every record that beats p_k on one of them is kept, and
// the reduction goes to the membership programs.
//
// A fill's traversal already built P1 and copied out only the T records
// and heap entries it lets beat p_k (topk.ScreenedGroup); the entries it
// left out count as pruned here, as they would have been on their pop.
//
// The star stays where no pointed P1 exists: k ≤ d, rank-deficient
// Phase-1 rows, and the GIR*, one star per anchor of R⁻ (Section 7.1).
// It covers every dimensionality d ≥ 2; for d = 2 it degenerates exactly
// to the paper's two rotating facets (the star of a convex-polygon vertex
// always has two edges), so Section 6.2's angular sweep is not a separate
// path.
func (sc *scratch) fpPhase(tree *rtree.Tree, res *topk.Result, anchors []topk.Record, st *Stats) error {
	st.NodesPruned += res.DroppedNodes
	if !sc.pointed {
		return sc.starPhase(tree, res, anchors, st)
	}
	a := anchors[0]
	for _, rec := range sc.keptT(res) {
		sc.cutIn(a, rec.ID, rec.Point, st)
	}
	sc.refine(tree, res, st, nil, a)
	st.StarFacets = sc.cone.NumRays()
	return nil
}

// starPhase is FP on one star per anchor.
func (sc *scratch) starPhase(tree *rtree.Tree, res *topk.Result, anchors []topk.Record, st *Stats) error {
	stars, err := sc.buildStars(res, anchors)
	if errors.Is(err, hull.ErrDegenerate) {
		// Only numerics leave an anchor and its virtual seeds without a
		// simplex. SP is always applicable and exact, and seeds its
		// skyline from the sorted T, which buildStars sorted.
		sc.spPhase(tree, res, anchors, st)
		return nil
	}
	if err != nil {
		return err
	}
	sc.refine(tree, res, st, stars, topk.Record{})
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

// refine is FP's step 2: it pops the resumable heap and reads an entry
// only if its box may beat an anchor — above some facet of some star, or,
// with no stars, on some ray of the cone — pruning the rest, and feeds a
// fetched leaf to every star as one column-major block, or cuts the cone
// by each of its records the rays keep.
func (sc *scratch) refine(tree *rtree.Tree, res *topk.Result, st *Stats, stars []hull.Star, a topk.Record) {
	mayBeat := func(lo, hi vec.Vector) bool {
		if stars == nil {
			return sc.cone.BoxMayBeat(lo, hi)
		}
		for i := range stars {
			if stars[i].MBBAboveAny(lo, hi) {
				return true
			}
		}
		return false
	}
	d, h := sc.d, res.Heap
	for h.Len() > 0 {
		it := h.PopItem()
		if !mayBeat(it.Rect.Lo, it.Rect.Hi) {
			st.NodesPruned++
			continue
		}
		blk := tree.ReadBlock(it.Child, &sc.blk)
		st.NodesRead++
		if blk.Leaf {
			if stars == nil {
				sc.cutLeaf(blk, a, st)
			}
			for i := range stars {
				stars[i].AddBlock(blk.Cols, blk.RecIDs)
			}
			continue
		}
		for i, child := range blk.Children {
			if !mayBeat(blk.Lo[i*d:(i+1)*d], blk.Hi[i*d:(i+1)*d]) {
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
}

// keptT returns the run of T the cone's rays keep, screened as one
// column-major block and moved to T's front, sorted into the record
// order: under that total order it is exactly the subsequence of the
// sorted T the screen keeps, whether or not a screened tail already left
// the rest out, and only it is sorted.
func (sc *scratch) keptT(res *topk.Result) []topk.Record {
	n, d := len(res.T), sc.d
	sc.tbuf, sc.tcols = vec.Grown(sc.tbuf, d*n), vec.Grown(sc.tcols, d)
	for j := range sc.tcols {
		sc.tcols[j] = sc.tbuf[j*n : (j+1)*n]
	}
	for i, rec := range res.T {
		for j, x := range rec.Point {
			sc.tcols[j][i] = x
		}
	}
	sc.keep = vec.Grown(sc.keep, n)
	sc.cone.Screen(sc.keep, sc.tcols)
	kept := 0
	for i, k := range sc.keep {
		if k {
			res.T[kept], res.T[i] = res.T[i], res.T[kept]
			kept++
		}
	}
	topk.SortRecords(res.T[:kept])
	return res.T[:kept]
}

// cutLeaf cuts the cone by each record of the leaf its rays keep, in the
// leaf's order.
func (sc *scratch) cutLeaf(blk *rtree.NodeBlock, a topk.Record, st *Stats) {
	sc.keep, sc.point = vec.Grown(sc.keep, len(blk.RecIDs)), vec.Grown(sc.point, sc.d)
	sc.cone.Screen(sc.keep, blk.Cols)
	for i, kept := range sc.keep {
		if kept {
			for j, col := range blk.Cols {
				sc.point[j] = col[i]
			}
			sc.cutIn(a, blk.RecIDs[i], sc.point, st)
		}
	}
}

// cutIn cuts the cone by record x's half-space below anchor a and keeps
// it as a Phase-2 constraint only if it cut (geom.Cone.Cut).
func (sc *scratch) cutIn(a topk.Record, id int64, x vec.Vector, st *Stats) {
	n := len(sc.normals)
	sc.add(Replace, a.ID, id, a.Point, x)
	if !sc.cone.Cut(sc.normals[n:]) {
		sc.normals, sc.cons = sc.normals[:n], sc.cons[:len(sc.cons)-1]
		return
	}
	st.Critical++
}

// buildStars runs FP's first step on the star: seed each anchor's star
// with its virtual seeds (hull.VirtualSeeds, which with the anchor always
// span a full-dimensional simplex) plus the in-memory set T in the record
// order (using the max-per-dimension heuristic of Section 6.3.1, which
// the star's greedy extent selection subsumes). It sorts T, which
// arrives in traversal order.
func (sc *scratch) buildStars(res *topk.Result, anchors []topk.Record) ([]hull.Star, error) {
	for len(sc.stars) < len(anchors) {
		sc.stars = append(sc.stars, hull.Star{})
	}
	stars := sc.stars[:len(anchors)]
	topk.SortRecords(res.T)
	for i, a := range anchors {
		sc.seeds, sc.seedIDs = hull.VirtualSeeds(sc.seeds[:0], sc.seedIDs[:0], &sc.virtual, a.Point)
		for _, rec := range res.T {
			sc.seeds = append(sc.seeds, rec.Point)
			sc.seedIDs = append(sc.seedIDs, rec.ID)
		}
		if err := stars[i].Reset(a.Point, sc.seeds, sc.seedIDs); err != nil {
			return stars, err
		}
	}
	return stars, nil
}
