package gir

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"slices"
	"testing"

	"github.com/girlib/gir/internal/datagen"
	"github.com/girlib/gir/internal/domain"
	"github.com/girlib/gir/internal/geom"
	"github.com/girlib/gir/internal/pager"
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

// TestFPSeedsFallBackToWholeT builds a GIR whose apex lies on a face of
// the box, p_k = (0.5, 0.5, 0), and whose Phase-1 cone (every pair of
// weights within a factor 1.25) screens out every T record. A star seeded
// from the apex's projections would have had no simplex there, and fallen
// back to the whole of T or to SP; the cone on the orthant needs no seed:
// no T record cuts it, and FP builds SP's region, here Phase 1's six
// half-spaces alone, byte for byte.
func TestFPSeedsFallBackToWholeT(t *testing.T) {
	const d, k = 3, 7
	tree, pts, q := boxFaceFixture()

	res := topk.BRS(tree, score.Linear{}, q, k)
	apex := res.Records[k-1]
	if !vec.Equal(apex.Point, pts[k-1], 0) || len(res.T) < d {
		t.Fatalf("fixture: apex %v, |T| = %d; want p_k = %v and |T| ≥ %d", apex.Point, len(res.T), pts[k-1], d)
	}
	sc := new(scratch)
	sc.reset(d, score.Linear{}.Transform)
	sc.phase1(res)
	sc.phase1Cone(res, res.Records[k-1:])
	for _, rec := range res.T {
		if screenKeeps(&sc.cone, rec.Point) {
			t.Fatalf("fixture: the screen keeps T record %v", rec.Point)
		}
	}

	fp, fst, err := Compute(tree, topk.BRS(tree, score.Linear{}, q, k), Options{Method: FP})
	if err != nil || fst.Method != "FP" || fst.SkylineSize != 0 || fst.StarFacets < d || fst.RawConstraints-(k-1) != fst.Critical {
		t.Fatalf("FP: err %v, stats %+v; want the cone's rays and the records that cut it", err, fst)
	}
	for _, c := range fp.Constraints {
		if c.Kind == Replace && slices.ContainsFunc(res.T, func(rec topk.Record) bool { return rec.ID == c.B }) {
			t.Fatalf("T record %d, which the screen drops, bounds FP's region", c.B)
		}
	}
	sp, _, err := Compute(tree, topk.BRS(tree, score.Linear{}, q, k), Options{Method: SP})
	if err != nil {
		t.Fatal(err)
	}
	a, b := sha256.New(), sha256.New()
	hashRegion(a, fp)
	hashRegion(b, sp)
	if !bytes.Equal(a.Sum(nil), b.Sum(nil)) {
		t.Fatalf("FP's region differs from SP's:\n%v\n%v", fp.Constraints, sp.Constraints)
	}
}

// screenKeeps reports whether the cone's screen keeps point x.
func screenKeeps(c *geom.Cone, x vec.Vector) bool {
	cols := make([][]float64, len(x))
	for j := range cols {
		cols[j] = []float64{x[j]}
	}
	keep := []bool{false}
	c.Screen(keep, cols)
	return keep[0]
}

// TestScreenedFillRereadsWholeT is TestFPSeedsFallBackToWholeT on a fill's
// path: the traversal's tail screens T by the Phase-1 cone and keeps none
// of it. The build must not need the whole of T back: it must cut the
// cone it takes over (its rays in StarFacets), give the region and Stats
// the build from BRS's whole T gives, and leave the Result without the
// scratch's cone.
func TestScreenedFillRereadsWholeT(t *testing.T) {
	const d, k = 3, 7
	tree, _, q := boxFaceFixture()
	gs := topk.AcquireGroupScratch(tree)
	defer gs.Release()
	res, _ := topk.ScreenedGroup(gs, tree, score.Linear{}, []vec.Vector{q}, []int{k})
	if res[0].Cone == nil || len(res[0].T) != 0 || res[0].DroppedT < d {
		t.Fatalf("fixture: the tail kept %d T records and dropped %d (cone %v); want it to keep none", len(res[0].T), res[0].DroppedT, res[0].Cone != nil)
	}
	got, gst, err := Compute(tree, res[0], Options{Method: FP})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Cone != nil {
		t.Error("the Result still holds the scratch's cone after the build")
	}
	want, wst, err := Compute(tree, topk.BRS(tree, score.Linear{}, q, k), Options{Method: FP})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*Stats{wst, gst} {
		if st.Method != "FP" || st.SkylineSize != 0 || st.StarFacets < d {
			t.Fatalf("FP stats %+v; want the cone's rays", *st)
		}
	}
	if *gst != *wst {
		t.Fatalf("stats %+v, the whole-T build's %+v", *gst, *wst)
	}
	a, b := sha256.New(), sha256.New()
	hashRegion(a, got)
	hashRegion(b, want)
	if !bytes.Equal(a.Sum(nil), b.Sum(nil)) {
		t.Fatalf("the screened build's region differs from the whole-T build's:\n%v\n%v", got.Constraints, want.Constraints)
	}
}

// boxFaceFixture is TestFPSeedsFallBackToWholeT's tree (k = 7 at q, d = 3),
// its points and query.
func boxFaceFixture() (*rtree.Tree, []vec.Vector, vec.Vector) {
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
	return rtree.BulkLoad(pager.NewMemStore(), 3, pts, nil), pts, vec.Vector{1.0 / 3, 1.0 / 3, 1.0 / 3}
}

// TestFPSeedsAreKeptSortedT holds what FP's first step takes from T, now
// that BRS hands T over in traversal order: the records of the screen's
// kept run in the record order, for every k, k ≤ d among them. From BRS's
// whole T and from a fill's screened tail alike, the records that cut the
// cone, and so the Phase-2 constraints step 1 emits, are those a fresh
// cone cut by that run in order keeps. So FP reads T in the order the
// sorted T gives it, and its regions do not depend on the traversal's
// order. It runs box and simplex queries over continuous (IND, d = 4) and
// tied (a five-step grid, d = 3) data.
func TestFPSeedsAreKeptSortedT(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	ind, err := datagen.Generate(datagen.IND, 4000, 4, 39)
	if err != nil {
		t.Fatal(err)
	}
	grid := make([]vec.Vector, 4000)
	for i := range grid {
		grid[i] = vec.Vector{float64(r.Intn(5)) / 4, float64(r.Intn(5)) / 4, float64(r.Intn(5)) / 4}
	}
	// stepOne runs the first step alone (an empty heap leaves step 2
	// nothing to read) and returns the records whose constraints it
	// emitted.
	stepOne := func(res *topk.Result) []int64 {
		sc := new(scratch)
		sc.reset(len(res.Query), score.Linear{}.Transform)
		sc.phase1(res)
		res.Heap = new(topk.NodeHeap)
		sc.fpPhase(nil, res, res.Records[len(res.Records)-1:], new(Stats))
		var got []int64
		for _, c := range sc.cons[len(res.Records)-1:] {
			got = append(got, c.B)
		}
		return got
	}
	small, cut := 0, 0
	for _, pts := range [][]vec.Vector{ind, grid} {
		d := len(pts[0])
		tree := rtree.BulkLoad(pager.NewMemStore(), d, pts, nil)
		for _, dom := range []domain.Domain{domain.UnitBox(d), domain.Simplex(d)} {
			for qi := 0; qi < 40; qi++ {
				q := dom.Normalize(dom.Sample(r))
				k := 1 + r.Intn(30)
				res := topk.BRS(tree, score.Linear{}, q, k)
				sorted := slices.Clone(res.T)
				topk.SortRecords(sorted)
				apex := res.Kth()

				sc := new(scratch)
				sc.reset(d, score.Linear{}.Transform)
				sc.phase1(res)
				sc.phase1Cone(res, res.Records[k-1:])
				var want []int64
				var fresh geom.Cone
				fresh.Reset(d, sc.rows, apex.Point)
				for _, rec := range sorted {
					if screenKeeps(&sc.cone, rec.Point) && fresh.Cut(vec.Sub(apex.Point, rec.Point)) {
						want = append(want, rec.ID)
					}
				}
				if got := stepOne(res); !slices.Equal(got, want) {
					t.Fatalf("d=%d %v q%d k=%d: whole T cut the cone by %v, want the kept run's %v", d, dom.Kind(), qi, k, got, want)
				}
				gs := topk.AcquireGroupScratch(tree)
				tail, _ := topk.ScreenedGroup(gs, tree, score.Linear{}, []vec.Vector{q}, []int{k})
				got := stepOne(tail[0])
				gs.Release()
				if !slices.Equal(got, want) {
					t.Fatalf("d=%d %v q%d k=%d: the screened tail cut the cone by %v, want the kept run's %v", d, dom.Kind(), qi, k, got, want)
				}
				if k <= d {
					small++
				}
				if len(want) > 0 {
					cut++
				}
			}
		}
	}
	if small == 0 || cut == 0 {
		t.Fatalf("%d builds at k ≤ d and %d with a T record that cuts; the test needs both", small, cut)
	}
	t.Logf("%d builds at k ≤ d, %d with a T record that cuts", small, cut)
}
