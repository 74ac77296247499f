package gir_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	gir "github.com/girlib/gir"
)

// Example demonstrates the full pipeline on a small deterministic
// dataset: top-k query, GIR computation with FP, and the membership test
// that powers result caching.
func Example() {
	// Forty records on a deterministic grid-ish layout.
	r := rand.New(rand.NewSource(42))
	points := make([][]float64, 40)
	for i := range points {
		points[i] = []float64{r.Float64(), r.Float64()}
	}
	ds, err := gir.NewDataset(points)
	if err != nil {
		panic(err)
	}

	q := []float64{0.6, 0.4}
	res, _ := ds.TopK(q, 3)
	fmt.Printf("top-3 ids: %d %d %d\n", res.Records[0].ID, res.Records[1].ID, res.Records[2].ID)

	g, _ := ds.ComputeGIR(res, gir.FP)
	fmt.Printf("query inside own GIR: %v\n", g.Contains(q))
	fmt.Printf("constraints: %d\n", len(g.Constraints()))

	// A tiny nudge stays inside; a flipped preference does not.
	fmt.Printf("nudged query preserved: %v\n", g.Contains([]float64{0.61, 0.41}))
	fmt.Printf("flipped query preserved: %v\n", g.Contains([]float64{0.05, 0.95}))

	// Output:
	// top-3 ids: 9 16 18
	// query inside own GIR: true
	// constraints: 2
	// nudged query preserved: true
	// flipped query preserved: false
}

// ExampleGIR_LIRs is the paper's restaurant scenario (Section 1, Figure 1):
// a user ranks restaurants by four rated factors with her own weights, and
// the result's GIR yields the interface artifacts: a slide-bar range per
// weight with the result change at each end (the LIRs), the radar chart's
// tipping points, and bounds all weights may move within at once (MAH).
func ExampleGIR_LIRs() {
	factors := []string{"food", "ambience", "value", "service"}
	// 500 restaurants whose ratings correlate mildly: good kitchens tend
	// to have good service.
	r := rand.New(rand.NewSource(5))
	restaurants := make([][]float64, 500)
	for i := range restaurants {
		base := 0.2 + 0.6*r.Float64()
		restaurants[i] = make([]float64, len(factors))
		for j := range factors {
			restaurants[i][j] = math.Min(1, math.Max(0.01, base+0.25*r.NormFloat64()))
		}
	}
	ds, err := gir.NewDataset(restaurants)
	if err != nil {
		panic(err)
	}

	// The paper's weights: 60, 50, 60, 70 on a 0–100 scale.
	q := []float64{0.60, 0.50, 0.60, 0.70}
	res, _ := ds.TopK(q, 5)
	for i, rec := range res.Records {
		fmt.Printf("%d. restaurant %d (score %.3f)\n", i+1, rec.ID, rec.Score)
	}
	g, _ := ds.ComputeGIR(res, gir.FP)

	fmt.Println("slide bars:")
	for i, iv := range g.LIRs() {
		fmt.Printf("  %-8s [%2.0f, %2.0f] around %2.0f\n", factors[i], 100*iv.Lo, 100*iv.Hi, 100*q[i])
		fmt.Printf("    at %2.0f: %s\n", 100*iv.Lo, iv.LoPerturbation)
		fmt.Printf("    at %2.0f: %s\n", 100*iv.Hi, iv.HiPerturbation)
	}
	inner, outer := g.RadarBounds()
	fmt.Printf("radar: inner %.0f, outer %.0f\n", scale(inner, 100), scale(outer, 100))
	lo, hi := g.MAH()
	fmt.Printf("all at once: from %.0f to %.0f\n", scale(lo, 100), scale(hi, 100))

	// Output:
	// 1. restaurant 402 (score 2.349)
	// 2. restaurant 61 (score 2.283)
	// 3. restaurant 70 (score 2.186)
	// 4. restaurant 88 (score 2.163)
	// 5. restaurant 165 (score 2.141)
	// slide bars:
	//   food     [41, 84] around 60
	//     at 41: record 66 overtakes result record 165
	//     at 84: record 102 overtakes result record 165
	//   ambience [26, 62] around 50
	//     at 26: record 92 overtakes result record 165
	//     at 62: records 88 and 165 swap positions
	//   value    [46, 100] around 60
	//     at 46: record 102 overtakes result record 165
	//     at 100: query space boundary (w3 = 1)
	//   service  [55, 85] around 70
	//     at 55: records 88 and 165 swap positions
	//     at 85: record 80 overtakes result record 165
	// radar: inner [41 26 46 55], outer [84 62 100 85]
	// all at once: from [45 42 55 65] to [68 57 100 75]
}

// ExampleCache replays sessions of users nudging one weight at a time, the
// workload of the paper's caching application (Section 1), through an
// Engine and the GIR-keyed Cache it owns. A query inside a cached result's
// GIR is answered from the cache, exactly, without touching the index;
// asking for more records than were cached is a partial hit, computed in
// full and cached in turn. Every miss pays its traversal plus a one-time
// GIR build.
func ExampleCache() {
	const n, d, k = 2000, 4, 10
	r := rand.New(rand.NewSource(3))
	points := make([][]float64, n)
	for i := range points {
		points[i] = make([]float64, d)
		for j := range points[i] {
			points[i][j] = r.Float64()
		}
	}
	ds, err := gir.NewDataset(points)
	if err != nil {
		panic(err)
	}

	// Each session starts at a fresh weight vector, nudges one weight per
	// step, and ends by asking for k more records.
	sessions := func(visit func(q []float64, k int)) {
		r := rand.New(rand.NewSource(7))
		for s := 0; s < 10; s++ {
			q := make([]float64, d)
			for j := range q {
				q[j] = 0.15 + 0.7*r.Float64()
			}
			for step := 0; step < 8; step++ {
				visit(q, k)
				j := r.Intn(d)
				q[j] = math.Min(1, math.Max(0.01, q[j]+0.015*r.NormFloat64()))
			}
			visit(q, 2*k)
		}
	}

	ds.ResetIOStats()
	sessions(func(q []float64, k int) { ds.TopK(q, k) })
	without := ds.IOStats().PageReads

	e := gir.NewEngine(ds, gir.EngineOptions{CacheCapacity: 64})
	defer e.Close()
	ds.ResetIOStats()
	sessions(func(q []float64, k int) { e.TopK(q, k) })
	with := ds.IOStats().PageReads
	st := e.Stats()
	fmt.Printf("%d hits, %d partial hits, %d misses, %d entries\n", st.CacheHits, st.PartialHits, st.Misses, e.Cache().Len())
	fmt.Printf("page reads: %d without the cache, %d with it (GIR builds included)\n", without, with)

	// Output:
	// 48 hits, 5 partial hits, 37 misses, 42 entries
	// page reads: 478 without the cache, 427 with it (GIR builds included)
}

// ExampleGIR_Constraints walks a query around its GIR (Sections 3.2 and
// 7.3). Moves that stay inside leave the result unchanged, and stepping
// just across one bounding half-space causes exactly the change its
// description names.
func ExampleGIR_Constraints() {
	const n, d, k = 1000, 3, 6
	r := rand.New(rand.NewSource(32))
	points := make([][]float64, n)
	for i := range points {
		points[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
	}
	ds, err := gir.NewDataset(points)
	if err != nil {
		panic(err)
	}
	q := []float64{0.55, 0.70, 0.40}
	res, _ := ds.TopK(q, k)
	want := resultIDs(res.Records)
	g, _ := ds.ComputeGIR(res, gir.FP)
	fmt.Printf("top-%d %v, %d bounding half-spaces\n", k, want, len(g.Constraints()))

	for moved := 0; moved < 3; {
		p := []float64{q[0] + 0.1*r.NormFloat64(), q[1] + 0.1*r.NormFloat64(), q[2] + 0.1*r.NormFloat64()}
		if !inUnitBox(p) || !g.Contains(p) {
			continue
		}
		moved++
		fresh, _ := ds.TopK(p, k)
		fmt.Printf("moved to %.2f: unchanged %v\n", p, slices.Equal(resultIDs(fresh.Records), want))
	}

	for i, c := range g.Constraints() {
		p, ok := crossing(g, i, q)
		if !ok {
			fmt.Printf("%s: no straight step crosses it alone\n", c.Description)
			continue
		}
		fresh, _ := ds.TopK(p, k)
		status := "CONFIRMED"
		if !slices.Equal(resultIDs(fresh.Records), perturb(want, c)) {
			status = "not confirmed"
		}
		fmt.Printf("%s: %s\n", c.Description, status)
	}

	// Output:
	// top-6 [359 629 328 89 386 342], 5 bounding half-spaces
	// moved to [0.54 0.82 0.39]: unchanged true
	// moved to [0.47 0.77 0.41]: unchanged true
	// moved to [0.56 0.92 0.47]: unchanged true
	// records 328 and 89 swap positions: CONFIRMED
	// records 89 and 386 swap positions: CONFIRMED
	// records 386 and 342 swap positions: CONFIRMED
	// record 186 overtakes result record 342: CONFIRMED
	// record 436 overtakes result record 342: CONFIRMED
}

// ExampleGIR_VolumeRatio scores a result's robustness, the sensitivity
// measure of the paper's Figure 14: the share of all weight vectors that
// keep the result. In the Σw=1 query space at d = 3 the ratio is exact.
// A longer result has more order to keep, so its GIR nests inside the
// shorter results' and its ratio falls; the order-insensitive GIR* is
// never smaller than the GIR.
func ExampleGIR_VolumeRatio() {
	r := rand.New(rand.NewSource(1))
	points := make([][]float64, 5000)
	for i := range points {
		points[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
	}
	ds, err := gir.NewDatasetInSpace(points, gir.SpaceSimplex)
	if err != nil {
		panic(err)
	}
	q := gir.SpaceSimplex.Normalize([]float64{0.5, 0.3, 0.2})
	ratio := func(k int, star bool) float64 {
		res, _ := ds.TopK(q, k) // a result powers one GIR computation
		compute := ds.ComputeGIR
		if star {
			compute = ds.ComputeGIRStar
		}
		g, _ := compute(res, gir.FP)
		v, _ := g.VolumeRatio(gir.VolumeOptions{})
		return v
	}
	fmt.Println("k   GIR       GIR*")
	for _, k := range []int{1, 2, 5, 10, 20, 50} {
		fmt.Printf("%-3d %-9.3g %.3g\n", k, ratio(k, false), ratio(k, true))
	}

	// Output:
	// k   GIR       GIR*
	// 1   0.0915    0.0915
	// 2   0.0471    0.127
	// 5   0.00113   0.0232
	// 10  5.72e-05  0.00924
	// 20  1.56e-05  0.00287
	// 50  2.45e-06  0.00396
}

func scale(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = f * x
	}
	return out
}

func inUnitBox(p []float64) bool {
	for _, x := range p {
		if x <= 0 || x > 1 {
			return false
		}
	}
	return true
}

// crossing steps from q just across the boundary of g's i-th constraint;
// ok is false when that step leaves the box or crosses another constraint.
func crossing(g *gir.GIR, i int, q []float64) (p []float64, ok bool) {
	cons := g.Constraints()
	n := cons[i].Normal
	t := dot(n, q) / dot(n, n) * (1 + 1e-6)
	p = make([]float64, len(q))
	for j := range q {
		p[j] = q[j] - t*n[j]
	}
	for j, c := range cons {
		if j != i && dot(c.Normal, p) < 0 {
			return nil, false
		}
	}
	return p, inUnitBox(p)
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// perturb applies the result change of Section 3.2 that crossing c causes:
// a reorder swaps c.A and c.B, a replace puts outsider c.B in place of the
// k-th record c.A.
func perturb(res []int64, c gir.Constraint) []int64 {
	out := slices.Clone(res)
	i := slices.Index(out, c.A)
	if c.Kind == "reorder" {
		out[i], out[i+1] = out[i+1], out[i]
	} else {
		out[i] = c.B
	}
	return out
}
