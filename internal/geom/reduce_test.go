package geom_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/girlib/gir/internal/datagen"
	"github.com/girlib/gir/internal/geom"
	"github.com/girlib/gir/internal/gir"
	"github.com/girlib/gir/internal/pager"
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

// rowSet is one region's raw rows, the first phase1 of them FP's Phase 1.
type rowSet struct {
	rows   []vec.Vector
	phase1 int
}

// fpRowSets returns FP's raw GIR rows (SkipReduce) for every query and k
// over n records of kind at dimension d, queries drawn uniform in
// [lo, hi]^d.
func fpRowSets(tb testing.TB, kind datagen.Kind, n, d int, ks []int, queries int, lo, hi float64, seed int64) []rowSet {
	return rowSets(tb, gir.FP, kind, n, d, ks, queries, lo, hi, seed)
}

// rowSets is fpRowSets for any method.
func rowSets(tb testing.TB, m gir.Method, kind datagen.Kind, n, d int, ks []int, queries int, lo, hi float64, seed int64) []rowSet {
	var out []rowSet
	eachRegion(tb, kind, n, d, ks, queries, lo, hi, seed, func(tree *rtree.Tree, q vec.Vector, k int) {
		reg, _, err := gir.Compute(tree, topk.BRS(tree, score.Linear{}, q, k), gir.Options{Method: m, SkipReduce: true})
		if err != nil {
			tb.Fatal(err)
		}
		s := rowSet{rows: make([]vec.Vector, len(reg.Constraints))}
		for i, c := range reg.Constraints {
			s.rows[i] = c.Normal
			if c.Kind == gir.Reorder {
				s.phase1++
			}
		}
		out = append(out, s)
	})
	return out
}

// shrinkRowSets returns the rows Region.Shrink reduces when a record is
// inserted just below p_k: FP's minimal region, then the one added row
// g(p_k) − g(x) that still cuts it (geom.ConeCuts), x a small random step
// from p_k that scores below it at the query.
func shrinkRowSets(tb testing.TB, kind datagen.Kind, n, d int, ks []int, queries int, seed int64) []rowSet {
	var out []rowSet
	rng := rand.New(rand.NewSource(seed))
	eachRegion(tb, kind, n, d, ks, queries, 0.05, 1, seed, func(tree *rtree.Tree, q vec.Vector, k int) {
		res := topk.BRS(tree, score.Linear{}, q, k)
		reg, _, err := gir.Compute(tree, res, gir.Options{Method: gir.FP})
		if err != nil {
			tb.Fatal(err)
		}
		rows := make([]vec.Vector, len(reg.Constraints))
		for i, c := range reg.Constraints {
			rows[i] = c.Normal
		}
		for try := 0; try < 20; try++ {
			a := vec.Scale(1e-3, unitRandom(rng, d)) // g(p_k) − g(x) for x = p_k − a
			if vec.Dot(a, q) < 0 {
				a = vec.Scale(-1, a)
			}
			if len(geom.ConeCuts(rows, []vec.Vector{a}, q, 1e-12)) == 1 {
				out = append(out, rowSet{rows: append(rows, a), phase1: len(rows)})
				return
			}
		}
	})
	return out
}

// eachRegion calls f for every query and k over n records of kind at
// dimension d, queries drawn uniform in [lo, hi]^d.
func eachRegion(tb testing.TB, kind datagen.Kind, n, d int, ks []int, queries int, lo, hi float64, seed int64, f func(*rtree.Tree, vec.Vector, int)) {
	pts, err := datagen.Generate(kind, n, d, seed)
	if err != nil {
		tb.Fatal(err)
	}
	tree := rtree.BulkLoad(pager.NewMemStore(), d, pts, nil)
	rng := rand.New(rand.NewSource(seed))
	for qi := 0; qi < queries; qi++ {
		q := make(vec.Vector, d)
		for j := range q {
			q[j] = lo + (hi-lo)*rng.Float64()
		}
		for _, k := range ks {
			f(tree, q, k)
		}
	}
}

// fillRowSets is the row sets of the benchmark's fill: IND, n = 200 000,
// d = 4, k 5–20, queries in [0.15, 0.85]^4.
func fillRowSets(tb testing.TB, queries int) []rowSet {
	return fpRowSets(tb, datagen.IND, 200000, 4, []int{5, 10, 15, 20}, queries, 0.15, 0.85, 4)
}

// continued reduces a row set the way a GIR build does: the Phase-1 rows
// through Reset first, as FP's screen runs them, then the rest. The apex
// pins only the screen, so any point will do.
func continued(c *geom.Cone, s rowSet) ([]int, bool) {
	c.Reset(s.rows[:s.phase1], s.rows[0])
	return geom.ReduceConeRays(c, s.rows, 1e-12)
}

// pointedCone returns m random rows whose cone holds q0 in its interior.
func pointedCone(rng *rand.Rand, q0 vec.Vector, m int) []vec.Vector {
	rows := make([]vec.Vector, m)
	for i := range rows {
		a := make(vec.Vector, len(q0))
		for j := range a {
			a[j] = rng.NormFloat64()
		}
		vec.AXPY((0.05+rng.Float64()-vec.Dot(a, q0))/vec.Dot(q0, q0), q0, a)
		rows[i] = a
	}
	return rows
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func unitRandom(rng *rand.Rand, d int) vec.Vector {
	u := make(vec.Vector, d)
	for j := range u {
		u[j] = rng.NormFloat64()
	}
	return vec.Scale(1/vec.Norm(u), u)
}

// TestReduceConeMatchesLP holds ReduceCone, whichever path decides, to the
// membership programs alone, index for index: on random pointed cones, on
// the shapes where the rays' margins are thin or the cone is not pointed
// or not full-dimensional, and on FP's raw rows; each both from scratch
// and continuing the rays of a prefix, as a GIR build continues those of
// its Phase 1.
func TestReduceConeMatchesLP(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	var cases, decided int
	check := func(name string, s rowSet) bool {
		t.Helper()
		want := geom.ReduceConeLP(s.rows, 1e-12)
		if got := geom.ReduceCone(s.rows, 1e-12); !slices.Equal(got, want) {
			t.Errorf("%s: ReduceCone = %v, the membership programs keep %v", name, got, want)
		}
		fresh, ok := geom.ReduceConeRays(nil, s.rows, 1e-12)
		if !slices.Equal(fresh, want) {
			t.Errorf("%s: the rays from scratch keep %v, the membership programs %v", name, fresh, want)
		}
		cont, contOK := continued(new(geom.Cone), s)
		if !slices.Equal(cont, want) {
			t.Errorf("%s: the rays of the first %d rows, continued, keep %v, the membership programs %v", name, s.phase1, cont, want)
		}
		cases += 2
		decided += btoi(ok) + btoi(contOK)
		return ok || contOK
	}
	halves := func(rows []vec.Vector) rowSet { return rowSet{rows, (len(rows) + 1) / 2} }
	for d := 2; d <= 6; d++ {
		q0 := make(vec.Vector, d)
		for j := range q0 {
			q0[j] = 0.1 + rng.Float64()
		}
		base := func() []vec.Vector { return pointedCone(rng, q0, d+rng.Intn(3*d+4)) }
		raysDecided := 0
		for i := 0; i < 40; i++ {
			if check(fmt.Sprintf("d=%d random %d", d, i), halves(base())) {
				raysDecided++
			}
		}
		// A row no longer than a coarser tol is zero to the programs,
		// though not to the cone's own filter: the rays must stand aside.
		short := append(base(), vec.Scale(1e-9, unitRandom(rng, d)))
		if got, want := geom.ReduceCone(short, 1e-6), geom.ReduceConeLP(short, 1e-6); !slices.Equal(got, want) {
			t.Errorf("d=%d: at tol 1e-6 ReduceCone keeps %v, the membership programs %v", d, got, want)
		}
		if raysDecided == 0 {
			t.Errorf("d=%d: the rays decided none of 40 random pointed cones", d)
		}
		for _, eps := range []float64{1e-8, 1e-9, 1e-10, 1e-11} {
			rows := base()
			i := rng.Intn(len(rows))
			twin := vec.Add(vec.Scale(1/vec.Norm(rows[i]), rows[i]), vec.Scale(eps, unitRandom(rng, d)))
			check(fmt.Sprintf("d=%d near-parallel %g after", d, eps), halves(append(slices.Clone(rows), twin)))
			check(fmt.Sprintf("d=%d near-parallel %g before", d, eps), halves(append([]vec.Vector{twin}, rows...)))
		}
		// A row through one extreme ray: a positive combination of the
		// rows on it, pushed off the ray by ±δ.
		rows := base()
		var c geom.Cone
		for r := range c.Enumerate(rows) {
			g, on := c.Ray(r)
			var a vec.Vector = make(vec.Vector, d)
			for i := range rows {
				if on&(1<<i) != 0 {
					vec.AXPY(0.5+rng.Float64(), vec.Scale(1/vec.Norm(rows[i]), rows[i]), a)
				}
			}
			for _, delta := range []float64{0, 1e-10, -1e-10, 1e-9, -1e-9, 1e-8, -1e-8, 1e-7, -1e-7} {
				through := vec.Add(vec.Scale(1/vec.Norm(a), a), vec.Scale(delta, g))
				check(fmt.Sprintf("d=%d through ray %d δ=%g", d, r, delta), rowSet{append(slices.Clone(rows), through), len(rows)})
			}
		}
		check(fmt.Sprintf("d=%d fewer than d rows", d), halves(pointedCone(rng, q0, 1+rng.Intn(d-1))))
		line := base() // every row orthogonal to the last axis
		for _, a := range line {
			a[d-1] = 0
		}
		check(fmt.Sprintf("d=%d lineality", d), halves(line))
		flat := base()
		check(fmt.Sprintf("d=%d a and −a", d), rowSet{append(flat, vec.Scale(-2, flat[rng.Intn(len(flat))])), len(flat)})
		zero := pointedCone(rng, q0, d) // and minus a positive combination of them
		sum := make(vec.Vector, d)
		for _, a := range zero {
			vec.AXPY(-0.5-rng.Float64(), a, sum)
		}
		check(fmt.Sprintf("d=%d the cone {0}", d), rowSet{append(zero, sum), d})
		check(fmt.Sprintf("d=%d more than 64 rows", d), halves(pointedCone(rng, q0, 65+rng.Intn(20))))
	}

	// A thin facet — (1, 1, −ε) shaves the orthant's edge e₃ — and a twin
	// of it tilted by t about its ray (0, ε, 1): the twin lies within
	// coneSide of both of the facet's rays without being a duplicate.
	for _, eps := range []float64{1e-3, 1e-5, 1e-6, 1e-7, 1e-8} {
		check(fmt.Sprintf("thin facet ε=%g", eps), rowSet{[]vec.Vector{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, -eps}}, 3})
	}
	for _, eps := range []float64{1e-3, 1e-5} {
		for _, tilt := range []float64{1e-6, 1e-5, 1e-4} {
			a, g1 := vec.Vector{1, 1, -eps}, vec.Vector{0, eps, 1}
			w := vec.Vector{a[1]*g1[2] - a[2]*g1[1], a[2]*g1[0] - a[0]*g1[2], a[0]*g1[1] - a[1]*g1[0]}
			twin := vec.Add(vec.Scale(1/vec.Norm(a), a), vec.Scale(tilt/vec.Norm(w), w))
			rows := []vec.Vector{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, a, twin}
			check(fmt.Sprintf("thin facet ε=%g, twin tilted %g", eps, tilt), rowSet{rows, 4})
			check(fmt.Sprintf("thin facet ε=%g, twin tilted %g first", eps, tilt), rowSet{append([]vec.Vector{twin}, rows[:4]...), 4})
		}
	}

	for _, kind := range []datagen.Kind{datagen.IND, datagen.ANTI, datagen.COR} {
		for d := 2; d <= 6; d++ {
			for i, s := range fpRowSets(t, kind, 3000, d, []int{5, 10, 20, 50}, 4, 0.05, 1, int64(d)) {
				check(fmt.Sprintf("%s d=%d FP set %d", kind, d, i), s)
			}
		}
	}
	t.Logf("the rays decided %d of %d reductions", decided, cases)

	var fallbacks int
	sets := fillRowSets(t, 500)
	for _, s := range sets {
		if _, ok := continued(new(geom.Cone), s); !ok {
			fallbacks++
		}
	}
	t.Logf("fill shape: %d of %d row sets fell back to the membership programs", fallbacks, len(sets))
}

// BenchmarkReduce is the reduction's ledger line. fill is FP's raw rows
// at the fill's shape, reduced by the membership programs alone (lp), by
// the rays from scratch (rays), and by the rays continued from FP's screen
// (phase1 is that screen's Reset alone, continued the Reset and the
// reduction, so the reduction's own cost in a fill is their difference).
// The d4 and d5 shapes are the row sets that reach a double description
// of their own, over IND, n = 20 000: FP's where k − 1 < d leaves its
// Phase-1 cone unpointed, CP's, and Region.Shrink's (an FP region and one
// row that cuts it). Their rays arm starts the double description at any
// d, so lp against rays is what sets maxFreshDim.
func BenchmarkReduce(b *testing.B) {
	var c geom.Cone
	lp := func(s rowSet) ([]int, bool) { return geom.ReduceConeLP(s.rows, 1e-12), true }
	rays := func(s rowSet) ([]int, bool) { return geom.ReduceConeRays(nil, s.rows, 1e-12) }
	type arm struct {
		name   string
		reduce func(rowSet) ([]int, bool)
	}
	both := []arm{{"lp", lp}, {"rays", rays}}
	fp := func(d int) func() []rowSet {
		return func() []rowSet {
			return fpRowSets(b, datagen.IND, 20000, d, []int{2, 3, 4, 5}[:d-1], 25, 0.15, 0.85, int64(d))
		}
	}
	shrink := func(d int) func() []rowSet {
		return func() []rowSet { return shrinkRowSets(b, datagen.IND, 20000, d, []int{5, 10, 20}, 40, int64(d)) }
	}
	shapes := []struct {
		name string
		sets func() []rowSet
		arms []arm
	}{
		{"fill", func() []rowSet { return fillRowSets(b, 100) }, []arm{
			{"lp", lp}, {"rays", rays},
			{"phase1", func(s rowSet) ([]int, bool) { c.Reset(s.rows[:s.phase1], s.rows[0]); return nil, true }},
			{"continued", func(s rowSet) ([]int, bool) { return continued(&c, s) }},
		}},
		{"d4fp", fp(4), both},
		{"d4shrink", shrink(4), both},
		{"d5fp", fp(5), both},
		{"d5cp", func() []rowSet {
			return rowSets(b, gir.CP, datagen.IND, 20000, 5, []int{5, 10, 20}, 10, 0.15, 0.85, 5)
		}, both},
		{"d5shrink", shrink(5), both},
	}
	for _, shape := range shapes {
		b.Run(shape.name, func(b *testing.B) {
			sets := shape.sets()
			for _, arm := range shape.arms {
				b.Run(arm.name, func(b *testing.B) {
					var raw, kept, fallbacks int
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						s := sets[i%len(sets)]
						keep, ok := arm.reduce(s)
						raw += len(s.rows)
						kept += len(keep)
						if !ok {
							fallbacks++
						}
					}
					b.ReportMetric(float64(raw)/float64(b.N), "raw/op")
					b.ReportMetric(float64(kept)/float64(b.N), "kept/op")
					b.ReportMetric(float64(fallbacks)/float64(b.N), "fallbacks/op")
				})
			}
		})
	}
}
