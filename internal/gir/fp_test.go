package gir

import (
	"math/rand"
	"testing"

	"github.com/girlib/gir/internal/pager"
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

// TestFPSeedsFallBackToWholeT builds a GIR whose apex lies on a face of
// the box, p_k = (0.5, 0.5, 0): its third axis has no virtual seed, so the
// seeds span the plane x₃ = 0 unless a T record leaves it, and the
// Phase-1 cone (every pair of weights within a factor 1.25) screens out
// every T record. The star must then re-seed from the whole of T — no
// page read, no SP fallback — and build the region SP builds (here Phase
// 1's six half-spaces alone).
func TestFPSeedsFallBackToWholeT(t *testing.T) {
	const d, k = 3, 7
	// p_i − p_{i+1} walks every row of {q : 0.8 ≤ q_i/q_j ≤ 1.25}, each
	// 0.02 ahead of the next at q = (1,1,1)/3.
	pts := []vec.Vector{
		{0.54, 0.54, 0.04}, {0.54, 0.44, 0.12}, {0.54, 0.52, 0.02}, {0.44, 0.52, 0.1},
		{0.52, 0.52, 0}, {0.6, 0.42, 0}, {0.5, 0.5, 0},
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 400; i++ {
		pts = append(pts, vec.Vector{0.2 * r.Float64(), 0.2 * r.Float64(), 0.2 * r.Float64()})
	}
	tree := rtree.BulkLoad(pager.NewMemStore(), d, pts, nil)
	q := vec.Vector{1.0 / 3, 1.0 / 3, 1.0 / 3}

	res := topk.BRS(tree, score.Linear{}, q, k)
	apex := res.Records[k-1]
	if !vec.Equal(apex.Point, pts[k-1], 0) || len(res.T) < d || res.Heap.Len() == 0 {
		t.Fatalf("fixture: apex %v, |T| = %d, %d heap entries; want p_k = %v, |T| ≥ %d and a heap to read", apex.Point, len(res.T), res.Heap.Len(), pts[k-1], d)
	}
	sc := new(scratch)
	sc.reset(d, score.Linear{}.Transform)
	sc.phase1(res)
	if sc.screen = sc.phase1Cone(apex.Point); !sc.screen {
		t.Fatal("fixture: the Phase-1 cone is not pointed")
	}
	sc.screenPoints(len(res.T), func(i int) vec.Vector { return res.T[i].Point })
	for i, keep := range sc.keep {
		if keep {
			t.Fatalf("fixture: the screen keeps T record %v", res.T[i].Point)
		}
	}
	var st Stats
	if _, err := sc.buildStars(tree, res, res.Records[k-1:], &st); err != nil || st.NodesRead != 0 {
		t.Fatalf("seeding read %d nodes (err %v); the whole of T spans the space and needs none", st.NodesRead, err)
	}

	fp, fst, err := Compute(tree, topk.BRS(tree, score.Linear{}, q, k), Options{Method: FP})
	if err != nil || fst.Method != "FP" || fst.SkylineSize != 0 || fst.StarFacets < d {
		t.Fatalf("FP: err %v, stats %+v; want a star and no SP fallback", err, fst)
	}
	sp, _, err := Compute(tree, topk.BRS(tree, score.Linear{}, q, k), Options{Method: SP})
	if err != nil {
		t.Fatal(err)
	}
	if len(fp.Constraints) != len(sp.Constraints) {
		t.Fatalf("FP kept %d constraints, SP %d", len(fp.Constraints), len(sp.Constraints))
	}
	for _, p := range append(insideSamples(r, sp, 50), q) {
		if !fp.Contains(p, 1e-9) {
			t.Fatalf("FP's region misses %v, inside SP's", p)
		}
	}
	for i := 0; i < 200; i++ {
		p := vec.Vector{r.Float64(), r.Float64(), r.Float64()}
		if fp.Contains(p, 1e-9) != sp.Contains(p, 1e-9) && minAbsSlack(sp, p) > 1e-6 {
			t.Fatalf("FP and SP disagree at %v", p)
		}
	}
}
