package gir

import (
	"github.com/girlib/gir/internal/hull"
	"github.com/girlib/gir/internal/skyline"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

// resultMinus applies the two result-pruning rules of Section 7.1: drop
// result records that (i) lie strictly inside the convex hull of R, or
// (ii) dominate at least one other result record.
func resultMinus(res *topk.Result) []topk.Record {
	recs := res.Records
	g := sepFunc(res).Transform
	keep := make([]bool, len(recs))
	for i := range keep {
		keep[i] = true
	}
	// (ii) dominators are prunable: any non-result record must overtake the
	// dominated result record first.
	for i, a := range recs {
		for j, b := range recs {
			if i != j && skyline.Dominates(a.Point, b.Point) {
				keep[i] = false
				break
			}
		}
	}
	// (i) hull-interior records are prunable (convexity: some hull-vertex
	// result record scores below them for every query vector). The hull is
	// taken in transformed (g-)space where scores are linear.
	if len(recs) > len(res.Query)+1 {
		pts := make([]vec.Vector, len(recs))
		for i, r := range recs {
			pts[i] = g(r.Point)
		}
		if h, err := hull.Build(pts); err == nil {
			onHull := map[int]bool{}
			for _, v := range h.VertexIndices() {
				onHull[v] = true
			}
			for i := range recs {
				if !onHull[i] {
					keep[i] = false
				}
			}
		}
		// Degenerate hulls keep everything — a correct superset.
	}
	var out []topk.Record
	for i, r := range recs {
		if keep[i] {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		// Mutual domination chains cannot empty R⁻ (dominance is acyclic),
		// but guard against numerically odd inputs.
		out = []topk.Record{res.Kth()}
	}
	return out
}
