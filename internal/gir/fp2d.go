package gir

import (
	"math"

	"github.com/girlib/gir/internal/hull"
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

// fp2dPhase is the paper's specialized two-dimensional FP (Section 6.2).
// In 2-d the star of p_k always has exactly two facets — the clockwise and
// anticlockwise bounds of the rotating sweeping line — so instead of
// simplex bookkeeping the first step is a single angular scan over T, and
// the second step refines two line segments against the R-tree.
//
// Angles are measured inside the open half-plane {v : q·v < 0}, where
// every direction p − p_k lives (every non-result record scores below
// p_k). The minimum and maximum angles are the two hull neighbours of
// p_k, i.e. the interim critical records.
func (sc *scratch) fp2dPhase(tree *rtree.Tree, res *topk.Result, st *Stats) {
	pk := res.Kth()
	q := res.Query

	// The reference direction is −q (the centre of the admissible
	// half-plane); angle(v) ∈ (−π/2, π/2) within it.
	ref := vec.Normalize(vec.Scale(-1, q))
	angle := func(v vec.Vector) float64 {
		dot := ref[0]*v[0] + ref[1]*v[1]
		cross := ref[0]*v[1] - ref[1]*v[0]
		return math.Atan2(cross, dot)
	}

	type candidate struct {
		rec   topk.Record
		ang   float64
		valid bool
	}
	// Virtual sentinels: the axis projections of p_k (footnote 6); they
	// bound the sweep when T leaves a side empty and are never emitted as
	// constraints.
	var cw, acw candidate
	consider := func(rec topk.Record, virtual bool) {
		v := vec.Sub(rec.Point, pk.Point)
		if v[0] == 0 && v[1] == 0 {
			return
		}
		// Records dominated by p_k can never overtake it; they are also
		// never extreme beyond the sentinels, but skipping them mirrors
		// the paper's first step.
		if !virtual && v[0] <= 0 && v[1] <= 0 {
			return
		}
		a := angle(v)
		if !cw.valid || a < cw.ang {
			cw = candidate{rec, a, true}
		}
		if !acw.valid || a > acw.ang {
			acw = candidate{rec, a, true}
		}
	}
	vpts, vids := hull.VirtualSeeds(pk.Point)
	for i, p := range vpts {
		consider(topk.Record{ID: vids[i], Point: p}, true)
	}
	for _, rec := range res.T {
		consider(rec, false)
	}
	if !cw.valid || !acw.valid {
		// p_k sits on the query-space origin corner; no rotation bound
		// exists and the phase contributes nothing.
		return
	}

	// facetLine builds the outward line through p_k and the candidate:
	// outward normal n with n·p_k = offset, oriented so that the opposite
	// candidate (and hence the hull interior) lies below.
	facetLine := func(c, other candidate) (n vec.Vector, off float64) {
		dir := vec.Sub(c.rec.Point, pk.Point)
		n = vec.Vector{-dir[1], dir[0]} // a normal of the segment
		off = vec.Dot(n, pk.Point)
		if vec.Dot(n, other.rec.Point) > off {
			n, off = vec.Scale(-1, n), -off
		}
		return n, off
	}

	// Step 2: pop the retained heap; prune entries below both facets.
	h := res.Heap
	for h.Len() > 0 {
		it := h.PopItem()
		nCW, oCW := facetLine(cw, acw)
		nACW, oACW := facetLine(acw, cw)
		if maxOverBox2(nCW, it.Rect.Lo, it.Rect.Hi) <= oCW+hull.Tol &&
			maxOverBox2(nACW, it.Rect.Lo, it.Rect.Hi) <= oACW+hull.Tol {
			st.NodesPruned++
			continue
		}
		node := tree.ReadNode(it.Child)
		st.NodesRead++
		for _, e := range node.Entries {
			if node.Leaf {
				rec := topk.Record{ID: e.RecID, Point: e.Point()}
				v := vec.Sub(rec.Point, pk.Point)
				if (v[0] == 0 && v[1] == 0) || (v[0] <= 0 && v[1] <= 0) {
					continue
				}
				a := angle(v)
				if a < cw.ang {
					cw = candidate{rec, a, true}
				}
				if a > acw.ang {
					acw = candidate{rec, a, true}
				}
			} else {
				key := res.Func.MaxScore(e.Rect.Lo, e.Rect.Hi, res.Query)
				h.PushItem(topk.NodeItem{Key: key, Child: e.Child, Rect: e.Rect})
			}
		}
	}

	st.StarFacets = 2
	for _, c := range []candidate{cw, acw} {
		if c.rec.ID < 0 {
			continue // virtual sentinel: implied by the query-space box
		}
		st.Critical++
		sc.add(Replace, pk.ID, c.rec.ID, pk.Point, c.rec.Point)
	}
}

// maxOverBox2 is the 2-d beneath-and-beyond bound.
func maxOverBox2(n, lo, hi vec.Vector) float64 {
	var s float64
	for i, ni := range n {
		if ni > 0 {
			s += ni * hi[i]
		} else {
			s += ni * lo[i]
		}
	}
	return s
}
