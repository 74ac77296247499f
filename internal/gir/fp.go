package gir

import (
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

// fpPhase implements Facet Pruning (Section 6): keep only what bounds the
// region at the anchors — first over the in-memory set T (step 1), then
// refining against the R-tree through the retained BRS search heap
// (step 2) — so the records it keeps, the critical records, are the only
// non-result records that can bound the region.
//
// The paper keeps the convex-hull facets incident to the anchor, its star,
// and footnote 7 prunes by the Phase-1 cone P1 as well. Both describe one
// object, the region's extreme rays: the star's facet normals span the
// normal cone at the anchor, and the region is P1 cut by it. Every query
// space lies in the nonnegative orthant O, so FP grows no star: it cuts the
// rays of O ∩ P1 (geom.Cone, pointed for every k) into the region itself.
// A GIR's cone is pinned to p_k; a GIR*'s (Section 7.1) starts from O
// alone and is pinned to R⁻, a record beating the lowest anchor on some
// ray, and each (anchor, record) half-space is cut in. The run of T that
// the rays keep, in record order, is cut in first, then each record of a
// fetched leaf that the current rays let beat an anchor; a record is a
// Phase-2 constraint only when it cuts, that is puts some ray strictly
// outside its half-space, and a heap entry is read only if its box may
// beat an anchor on the current rays. A record that does not cut is implied
// by the records before it, Phase 1 and O, so the region's minimal form on
// O is the one every method reduces to. finish's reduction finds the rays
// already there and only classifies. A cone that passes 64 distinct rows
// or its ray budget stops cutting and keeps its rays, a larger cone: every
// record that beats an anchor on one of them is kept, and the reduction
// goes to the membership programs.
//
// A fill's traversal already built the GIR's cone and copied out only the
// T records and heap entries it lets beat p_k (topk.ScreenedGroup); the
// entries it left out count as pruned here, as they would have been on
// their pop. For d = 2 the cone's two rays are the paper's two rotating
// facets, so Section 6.2's angular sweep is not a separate path.
func (sc *scratch) fpPhase(tree *rtree.Tree, res *topk.Result, anchors []topk.Record, st *Stats) {
	screened := sc.phase1Cone(res, anchors)
	st.NodesPruned += res.DroppedNodes
	for _, rec := range sc.keptT(res, screened) {
		sc.cutIn(anchors, rec.ID, rec.Point, st)
	}
	sc.refine(tree, res, anchors, st)
	st.StarFacets = sc.cone.NumRays()
}

// refine is FP's step 2: it pops the resumable heap and reads an entry
// only if its box may beat an anchor on some ray of the cone, pruning the
// rest, and cuts the cone by each record of a fetched leaf the rays keep.
func (sc *scratch) refine(tree *rtree.Tree, res *topk.Result, anchors []topk.Record, st *Stats) {
	d, h := sc.d, res.Heap
	for h.Len() > 0 {
		it := h.PopItem()
		if !sc.cone.BoxMayBeat(it.Rect.Hi) {
			st.NodesPruned++
			continue
		}
		blk := tree.ReadBlock(it.Child, &sc.blk)
		st.NodesRead++
		if blk.Leaf {
			sc.cutLeaf(blk, anchors, st)
			continue
		}
		for i, child := range blk.Children {
			if !sc.cone.BoxMayBeat(blk.Hi[i*d : (i+1)*d]) {
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
// sorted T the screen keeps, and only it is sorted. A T the traversal's
// tail already screened by this cone and these anchors (screened) is that
// run as it stands: the screen decides each point alone, so a second pass
// would keep all of it, and it is only sorted.
func (sc *scratch) keptT(res *topk.Result, screened bool) []topk.Record {
	if screened {
		topk.SortRecords(res.T)
		return res.T
	}
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
func (sc *scratch) cutLeaf(blk *rtree.NodeBlock, anchors []topk.Record, st *Stats) {
	sc.keep, sc.point = vec.Grown(sc.keep, len(blk.RecIDs)), vec.Grown(sc.point, sc.d)
	sc.cone.Screen(sc.keep, blk.Cols)
	for i, kept := range sc.keep {
		if kept {
			for j, col := range blk.Cols {
				sc.point[j] = col[i]
			}
			sc.cutIn(anchors, blk.RecIDs[i], sc.point, st)
		}
	}
}

// cutIn cuts the cone by record x's half-space below each anchor in turn,
// keeps as a Phase-2 constraint each one that cut (geom.Cone.Cut), and
// counts x as critical if one did.
func (sc *scratch) cutIn(anchors []topk.Record, id int64, x vec.Vector, st *Stats) {
	critical := false
	for _, a := range anchors {
		n := len(sc.normals)
		sc.add(Replace, a.ID, id, a.Point, x)
		if sc.cone.Cut(sc.normals[n:]) {
			critical = true
			continue
		}
		sc.normals, sc.cons = sc.normals[:n], sc.cons[:len(sc.cons)-1]
	}
	if critical {
		st.Critical++
	}
}
