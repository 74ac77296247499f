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
// weights within a factor 1.25) screens out every T record. The apex's
// projection on its third axis would be the origin, in the plane x₃ = 0
// with the other two, so a star seeded from projections alone would have
// to fall back to the whole of T, or to SP, to span the space. The
// virtual seed p_k − e₃ must span it instead: a star given no T record
// takes its d virtual seeds as its simplex. The cone is pointed, so FP
// builds on it, not on a star: no T record cuts it, and FP builds, with
// no SP fallback, the region SP builds (here Phase 1's six half-spaces
// alone).
func TestFPSeedsFallBackToWholeT(t *testing.T) {
	const d, k = 3, 7
	tree, pts, q, r := boxFaceFixture()

	res := topk.BRS(tree, score.Linear{}, q, k)
	apex := res.Records[k-1]
	if !vec.Equal(apex.Point, pts[k-1], 0) || len(res.T) < d {
		t.Fatalf("fixture: apex %v, |T| = %d; want p_k = %v and |T| ≥ %d", apex.Point, len(res.T), pts[k-1], d)
	}
	sc := new(scratch)
	sc.reset(d, score.Linear{}.Transform)
	sc.phase1(res)
	if !sc.phase1Cone(res, apex.Point) {
		t.Fatal("fixture: the Phase-1 cone is not pointed")
	}
	for _, rec := range res.T {
		if screenKeeps(&sc.cone, rec.Point) {
			t.Fatalf("fixture: the screen keeps T record %v", rec.Point)
		}
	}
	if _, err := sc.buildStars(&topk.Result{}, res.Records[k-1:]); err != nil {
		t.Fatalf("seeding from the virtual simplex: %v", err)
	}
	if len(sc.seedIDs) != d {
		t.Fatalf("the star took %d seeds (ids %v); want its %d virtual seeds alone", len(sc.seedIDs), sc.seedIDs, d)
	}

	fp, fst, err := Compute(tree, topk.BRS(tree, score.Linear{}, q, k), Options{Method: FP})
	if err != nil || fst.Method != "FP" || fst.SkylineSize != 0 || fst.StarFacets < d || fst.RawConstraints-(k-1) != fst.Critical {
		t.Fatalf("FP: err %v, stats %+v; want the cone's rays and no SP fallback", err, fst)
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
// of it. The build must not need the whole of T back: with no rerun of
// the traversal it must build FP on the cone (its rays in StarFacets),
// with no SP fallback, give the region and Stats the build from BRS's
// whole T gives, and leave the Result without the scratch's cone.
func TestScreenedFillRereadsWholeT(t *testing.T) {
	const d, k = 3, 7
	tree, _, q, _ := boxFaceFixture()
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
			t.Fatalf("FP stats %+v; want the cone's rays and no SP fallback", *st)
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
// its points, query and the random source the test goes on with.
func boxFaceFixture() (*rtree.Tree, []vec.Vector, vec.Vector, *rand.Rand) {
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
	return rtree.BulkLoad(pager.NewMemStore(), 3, pts, nil), pts, vec.Vector{1.0 / 3, 1.0 / 3, 1.0 / 3}, r
}

// TestFPSeedsAreKeptSortedT holds what each FP path seeds its first step
// from, now that BRS hands T over in traversal order. The star, which
// runs where the Phase-1 cone is not pointed (k − 1 < d here), takes the
// whole of T in the record order as its real seeds. The cone, where it is
// pointed, is cut by the records of the screen's kept run in the record
// order: from BRS's whole T and from a fill's screened tail alike, the
// records that cut it, and so the Phase-2 constraints step 1 emits, are
// those a fresh Phase-1 cone cut by that run in order keeps. So FP reads
// T in the order the sorted T gave it before, and its regions stay the
// same bytes. It runs box and simplex queries over continuous (IND, d = 4)
// and tied (a five-step grid, d = 3) data.
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
	ids := func(recs []topk.Record) []int64 {
		out := make([]int64, len(recs))
		for i, rec := range recs {
			out[i] = rec.ID
		}
		return out
	}
	// stepOne runs the cone path's first step alone (an empty heap leaves
	// step 2 nothing to read) and returns the records whose constraints it
	// emitted.
	stepOne := func(res *topk.Result) []int64 {
		sc := new(scratch)
		sc.reset(len(res.Query), score.Linear{}.Transform)
		sc.phase1(res)
		if sc.pointed = sc.phase1Cone(res, res.Kth().Point); !sc.pointed {
			t.Fatal("the cone is not pointed")
		}
		res.Heap = new(topk.NodeHeap)
		if err := sc.fpPhase(nil, res, res.Records[len(res.Records)-1:], new(Stats)); err != nil {
			t.Fatal(err)
		}
		var got []int64
		for _, c := range sc.cons[len(res.Records)-1:] {
			got = append(got, c.B)
		}
		return got
	}
	cone, star := 0, 0
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
				if !sc.phase1Cone(res, apex.Point) {
					star++
					if _, err := sc.buildStars(res, res.Records[k-1:]); err != nil {
						t.Fatal(err)
					}
					var got []int64
					for _, id := range sc.seedIDs {
						if id >= 0 { // the virtual seeds have negative ids
							got = append(got, id)
						}
					}
					if !slices.Equal(got, ids(sorted)) {
						t.Fatalf("d=%d %v q%d k=%d: the star's seeds %v, want the sorted T %v", d, dom.Kind(), qi, k, got, ids(sorted))
					}
					continue
				}
				cone++
				var want []int64
				var fresh geom.Cone
				fresh.Reset(sc.rows, apex.Point)
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
			}
		}
	}
	if cone == 0 || star == 0 {
		t.Fatalf("%d cone and %d star seedings; the test needs both", cone, star)
	}
	t.Logf("%d cone seedings, %d star seedings", cone, star)
}
