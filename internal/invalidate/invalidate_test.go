package invalidate

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/girlib/gir/internal/cache"
	"github.com/girlib/gir/internal/domain"
	"github.com/girlib/gir/internal/geom"
	gir "github.com/girlib/gir/internal/gir"
	"github.com/girlib/gir/internal/lp"
	"github.com/girlib/gir/internal/pager"
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
	"github.com/girlib/gir/internal/viz"
)

// fixture is a dataset with one computed region + its result records.
type fixture struct {
	reg  *gir.Region
	recs []topk.Record
	lo   vec.Vector // MAH of reg
	hi   vec.Vector
}

func makeFixture(t *testing.T, r *rand.Rand, n, d, k int) *fixture {
	t.Helper()
	pts := make([]vec.Vector, n)
	for i := range pts {
		pts[i] = make(vec.Vector, d)
		for j := range pts[i] {
			pts[i][j] = r.Float64()
		}
	}
	q := make(vec.Vector, d)
	for j := range q {
		q[j] = 0.15 + 0.7*r.Float64()
	}
	tree := rtree.BulkLoad(pager.NewMemStore(), d, pts, nil)
	res := topk.BRS(tree, score.Linear{}, q, k)
	reg, _, err := gir.Compute(tree, res, gir.Options{Method: gir.FP})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := viz.MAH(reg, reg.Query)
	return &fixture{reg: reg, recs: res.Records, lo: lo, hi: hi}
}

// sampleRegion draws count weight vectors inside the region: the query,
// MAH corners/interiors, and accepted jittered queries.
func (fx *fixture) sampleRegion(r *rand.Rand, count int) []vec.Vector {
	d := fx.reg.Dim
	out := []vec.Vector{fx.reg.Query.Clone()}
	for len(out) < count {
		w := make(vec.Vector, d)
		if r.Intn(2) == 0 { // uniform in the MAH box — inside by construction
			for j := range w {
				w[j] = fx.lo[j] + (fx.hi[j]-fx.lo[j])*r.Float64()
			}
		} else { // jittered query, rejection-sampled
			for j := range w {
				w[j] = fx.reg.Query[j] + 0.05*r.NormFloat64()
			}
			if !fx.reg.Contains(w, 0) {
				continue
			}
		}
		out = append(out, w)
	}
	return out
}

func TestDeleteAffects(t *testing.T) {
	recs := []topk.Record{{ID: 3}, {ID: 7}, {ID: 11}}
	if !DeleteAffects(recs, 7) {
		t.Error("deleting a result record must affect the entry")
	}
	if DeleteAffects(recs, 8) {
		t.Error("deleting a non-result record must not affect the entry")
	}
	if DeleteAffects(nil, 8) {
		t.Error("empty result affected")
	}
}

func TestInsertAffectsExtremes(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	fx := makeFixture(t, r, 400, 3, 5)
	d := fx.reg.Dim

	// A record at the top corner outscores everything for any nonzero
	// nonnegative weight vector.
	top := make(vec.Vector, d)
	for j := range top {
		top[j] = 0.999
	}
	if !InsertAffects(fx.reg, fx.recs, top, fx.lo, fx.hi) {
		t.Error("dominating insert not flagged")
	}

	// A record at the bottom corner is dominated by the k-th record and can
	// never enter.
	bottom := make(vec.Vector, d)
	for j := range bottom {
		bottom[j] = 0.0001
	}
	if InsertAffects(fx.reg, fx.recs, bottom, fx.lo, fx.hi) {
		t.Error("dominated insert flagged")
	}

	// A duplicate of the k-th record ties it everywhere: it enters the
	// top-k iff its id is smaller, as (score desc, id asc) ranks ties.
	pk := fx.recs[len(fx.recs)-1]
	kth := pk.Point.Clone()
	if InsertAffects(fx.reg, fx.recs, kth, fx.lo, fx.hi) {
		t.Error("exact duplicate of the k-th record with a larger id flagged")
	}
	if !InsertAffectsID(fx.reg, fx.recs, pk.ID-1, kth, fx.lo, fx.hi) {
		t.Error("exact duplicate of the k-th record with a smaller id not flagged")
	}
	// The origin ties p_k only at w = 0, which the box region contains but
	// which ranks nothing: a smaller id does not let it in.
	if InsertAffectsID(fx.reg, fx.recs, pk.ID-1, make(vec.Vector, d), fx.lo, fx.hi) {
		t.Error("the origin with a smaller id flagged")
	}

	// Degenerate inputs must evict conservatively.
	if !InsertAffects(nil, fx.recs, top, nil, nil) {
		t.Error("nil region must be conservative")
	}
	if !InsertAffects(fx.reg, nil, top, nil, nil) {
		t.Error("empty records must be conservative")
	}
	if !InsertAffects(fx.reg, fx.recs, top[:d-1], nil, nil) {
		t.Error("dimension mismatch must be conservative")
	}
}

// TestInsertAffectsComplete is the safety property eviction correctness
// rests on: whenever some weight vector in the region admits the new
// record into the top-k (with a real margin), InsertAffects must say so.
// The converse (conservative false positives) is allowed and not asserted.
func TestInsertAffectsComplete(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		fx := makeFixture(t, r, 300, 2+trial%3, 3+trial%4)
		d := fx.reg.Dim
		pk := fx.recs[len(fx.recs)-1].Point
		samples := fx.sampleRegion(r, 60)
		for cand := 0; cand < 40; cand++ {
			p := make(vec.Vector, d)
			for j := range p {
				p[j] = r.Float64()
			}
			affected := InsertAffects(fx.reg, fx.recs, p, fx.lo, fx.hi)
			if affected {
				continue
			}
			for _, w := range samples {
				if vec.Dot(w, p)-vec.Dot(w, pk) > 1e-7 {
					t.Fatalf("trial %d: insert %v admitted at w=%v (margin %g) but InsertAffects said unaffected",
						trial, p, w, vec.Dot(w, p)-vec.Dot(w, pk))
				}
			}
		}
	}
}

// TestInsertAffectsRaysMatchLP holds the rays' verdict to the residual LP
// it replaced, Domain.MaximizeLinear over the region's constraints, in both
// query spaces at d = 2…6, on four kinds of region: FP regions on random
// data, near-degenerate ones (records on a line through p_k, so several
// rows share a direction, every third off it by 1e-13), FP regions on tied
// 1/4-grid data, and raw FP constraint sets past 64 rows, whose rays a
// capped cone gives. The rays must never keep an insert whose LP margin
// exceeds Tol; an insert that wins the id tie is decided over
// region ∩ {Σw = 1}, as the rays decide it. It logs how many inserts the
// rays evict that the LP keeps: the cost of deciding on the rays.
func TestInsertAffectsRaysMatchLP(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	kinds := []string{"random", "collinear", "grid", "capped"}
	verdicts, evictions := make(map[string]int), make(map[string]int)
	extra := make(map[string]int) // the rays evict, the LP keeps
	for _, kind := range kinds {
		for d := 2; d <= 6; d++ {
			for _, space := range []func(int) domain.Domain{domain.UnitBox, domain.Simplex} {
				dom := space(d)
				for trial := 0; trial < lpRegions; trial++ {
					reg, recs := lpRegion(t, r, kind, dom)
					rays := reg.Rays()
					cons := make([]lp.Constraint, len(reg.Constraints))
					for i, c := range reg.Constraints {
						cons[i] = lp.Constraint{Coef: c.Normal, Op: lp.GE, RHS: 0}
					}
					kth := recs[len(recs)-1]
					for ins := 0; ins < 20; ins++ {
						p := lpInsert(r, kind, kth.Point)
						for _, id := range []int64{kth.ID - 1, kth.ID + 1} {
							winsTie := id < kth.ID
							lpDom, thr := dom, Tol
							if winsTie {
								lpDom, thr = domain.Simplex(d), -Tol
							}
							sol := lpDom.MaximizeLinear(new(lp.Solver), vec.Sub(p, kth.Point), cons)
							if sol.Status != lp.Optimal {
								t.Fatalf("%s d=%d %s: LP status %v", kind, d, dom.Name(), sol.Status)
							}
							got := InsertAffectsRays(nil, rays, recs, id, p)
							if !got && sol.Objective > Tol {
								t.Fatalf("%s d=%d %s (wins tie %v): the rays keep insert %v, the LP's margin is %g",
									kind, d, dom.Name(), winsTie, p, sol.Objective)
							}
							if got != InsertAffectsID(reg, recs, id, p, nil, nil) {
								t.Fatalf("%s d=%d %s: the region wrapper disagrees with the entry's test", kind, d, dom.Name())
							}
							verdicts[kind]++
							if got {
								evictions[kind]++
								if sol.Objective <= thr {
									extra[kind]++
								}
							}
						}
					}
				}
			}
		}
	}
	for _, kind := range kinds {
		t.Logf("%s: %d verdicts, %d evictions, %d of them inserts the LP keeps", kind, verdicts[kind], evictions[kind], extra[kind])
	}
}

// TestInsertAffectsBoxMatchesRays holds the drain's ray-box test to the
// rays alone over TestInsertAffectsRaysMatchLP's corpus (the same seed and
// draws): with the entry's box first the verdicts are the box-less loop's,
// every one. A box built without the last ray must change some verdict,
// so the corpus reaches inserts the box alone would keep wrongly.
func TestInsertAffectsBoxMatchesRays(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	verdicts, boxKeeps, shortBoxWrong := 0, 0, 0
	for _, kind := range []string{"random", "collinear", "grid", "capped"} {
		for d := 2; d <= 6; d++ {
			for _, space := range []func(int) domain.Domain{domain.UnitBox, domain.Simplex} {
				dom := space(d)
				for trial := 0; trial < lpRegions; trial++ {
					reg, recs := lpRegion(t, r, kind, dom)
					e := cache.NewEntry(reg, recs)
					rays := e.Rays
					if box := rayBox(rays, d); !slices.Equal(box, e.Box()) {
						t.Fatalf("%s d=%d %s: entry box %v, want %v", kind, d, dom.Name(), e.Box(), box)
					}
					var short []float64
					if len(rays) > d {
						short = rayBox(rays[:len(rays)-d], d)
					}
					kth := recs[len(recs)-1]
					for ins := 0; ins < 20; ins++ {
						p := lpInsert(r, kind, kth.Point)
						for _, id := range []int64{kth.ID - 1, kth.ID + 1} {
							want := InsertAffectsRays(nil, rays, recs, id, p)
							if got := InsertAffectsRays(e.Box(), rays, recs, id, p); got != want {
								t.Fatalf("%s d=%d %s: with the box %v, the rays alone %v (insert %v, id %d)", kind, d, dom.Name(), got, want, p, id)
							}
							verdicts++
							if !want && !boxBeats(e.Box(), kth.Point, p, id < kth.ID) {
								boxKeeps++
							}
							if short != nil && InsertAffectsRays(short, rays, recs, id, p) != want {
								shortBoxWrong++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d verdicts, %d kept by the box alone; a box without the last ray changed %d", verdicts, boxKeeps, shortBoxWrong)
	if boxKeeps == 0 || shortBoxWrong == 0 {
		t.Fatalf("the box kept %d inserts and a box without the last ray changed %d verdicts; both must be > 0", boxKeeps, shortBoxWrong)
	}
}

// rayBox is the rays' bounding box, lo then hi, padded by 1e-9 as a cache
// entry pads it.
func rayBox(rays []float64, d int) []float64 {
	box := make([]float64, 2*d)
	for j := 0; j < d; j++ {
		lo, hi := rays[j], rays[j]
		for i := j; i < len(rays); i += d {
			lo, hi = min(lo, rays[i]), max(hi, rays[i])
		}
		box[j], box[d+j] = lo-1e-9, hi+1e-9
	}
	return box
}

// boxBeats reports whether the box bound of p over p_k passes the
// threshold, i.e. whether the box alone leaves the verdict to the rays.
func boxBeats(box []float64, pk, p vec.Vector, winsTie bool) bool {
	d := len(p)
	thr := Tol / float64(d)
	if winsTie {
		thr = -Tol
	}
	var s float64
	for j, x := range p {
		v := x - pk[j]
		s += max(box[j]*v, box[d+j]*v)
	}
	return s > thr
}

// lpRegions is how many regions TestInsertAffectsRaysMatchLP draws per
// kind, dimension and space; race_test.go lowers it.
var lpRegions = 2

// lpRegion builds one region of the given kind in dom, with its result.
func lpRegion(t *testing.T, r *rand.Rand, kind string, dom domain.Domain) (*gir.Region, []topk.Record) {
	t.Helper()
	d := dom.Dim()
	n, k := 200, 2+r.Intn(8)
	if kind == "capped" {
		n, k = 400, 70
	}
	coord := r.Float64
	if kind == "grid" {
		coord = func() float64 { return float64(r.Intn(5)) / 4 }
	}
	pts := make([]vec.Vector, n)
	for i := range pts {
		pts[i] = make(vec.Vector, d)
		for j := range pts[i] {
			pts[i][j] = coord()
		}
	}
	q := make(vec.Vector, d)
	for j := range q {
		q[j] = 0.15 + 0.7*r.Float64()
	}
	q = dom.Normalize(q)
	res := topk.BRS(rtree.BulkLoad(pager.NewMemStore(), d, pts, nil), score.Linear{}, q, k)
	if kind == "collinear" {
		// Records on a line through p_k, below it at q, so every one of
		// their rows has the line's direction; every third is off it by
		// 1e-13.
		pk := res.Records[k-1].Point
		v := make(vec.Vector, d)
		for j := range v {
			v[j] = r.NormFloat64()
		}
		if vec.Dot(q, v) < 0 {
			v = vec.Scale(-1, v)
		}
		for i := 1; i <= 8; i++ {
			x := vec.Sub(pk, vec.Scale(0.01*float64(i), v))
			if i%3 == 0 {
				x[0] += 1e-13
			}
			pts = append(pts, x)
		}
		res = topk.BRS(rtree.BulkLoad(pager.NewMemStore(), d, pts, nil), score.Linear{}, q, k)
	}
	reg, _, err := gir.Compute(rtree.BulkLoad(pager.NewMemStore(), d, pts, nil), res, gir.Options{Method: gir.FP, Domain: dom, SkipReduce: kind == "capped"})
	if err != nil {
		t.Fatal(err)
	}
	if kind == "capped" && len(reg.Constraints) <= geom.MaxConeRows {
		t.Fatalf("a raw region of %d rows does not pass the cone's row cap", len(reg.Constraints))
	}
	return reg, res.Records
}

// lpInsert draws an insert for a region of the given kind: uniform, on the
// grid for grid data, and now and then p_k itself or p_k nudged.
func lpInsert(r *rand.Rand, kind string, pk vec.Vector) vec.Vector {
	p := make(vec.Vector, len(pk))
	switch r.Intn(6) {
	case 0:
		copy(p, pk)
	case 1:
		for j := range p {
			p[j] = pk[j] + 0.02*r.NormFloat64()
		}
	default:
		for j := range p {
			if p[j] = r.Float64(); kind == "grid" {
				p[j] = float64(r.Intn(5)) / 4
			}
		}
	}
	return p
}
