package gir

import (
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/topk"
)

// computeOnStar is Compute with FP's Phase 2 on the star even where the
// Phase-1 cone is pointed, where Compute cuts the cone: the reference
// TestConeFPMatchesStar holds the cone path to. Phase 1, the hand-over
// of a screened tail's cone and finish are Compute's.
func computeOnStar(tree *rtree.Tree, res *topk.Result) (*Region, *Stats, error) {
	d := tree.Dim()
	st := &Stats{Method: FP.String(), TSize: len(res.T) + res.DroppedT, NodesPruned: res.DroppedNodes}
	sc := new(scratch)
	sc.reset(d, sepFunc(res).Transform)
	sc.phase1(res)
	sc.phase1Cone(res, res.Kth().Point)
	if err := sc.starPhase(tree, res, res.Records[len(res.Records)-1:], st); err != nil {
		return nil, nil, err
	}
	st.RawConstraints = len(sc.cons)
	cons, query := sc.finish(res.Query, false)
	st.Constraints = len(cons)
	return &Region{Dim: d, Query: query, Constraints: cons, OrderSensitive: true, Domain: Options{}.domainOrBox(d)}, st, nil
}
