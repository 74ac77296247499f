package gir_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	gir "github.com/girlib/gir"
)

func randomPoints(r *rand.Rand, n, d int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, d)
		for j := range pts[i] {
			pts[i][j] = r.Float64()
		}
	}
	return pts
}

func TestEndToEnd(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ds, err := gir.NewDataset(randomPoints(r, 500, 3))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 500 || ds.Dim() != 3 {
		t.Fatalf("Len=%d Dim=%d", ds.Len(), ds.Dim())
	}
	q := []float64{0.6, 0.5, 0.7}
	res, err := ds.TopK(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 10 {
		t.Fatalf("%d records", len(res.Records))
	}
	for i := 1; i < 10; i++ {
		if res.Records[i].Score > res.Records[i-1].Score {
			t.Fatal("records out of order")
		}
	}
	g, err := ds.ComputeGIR(res, gir.FP)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Contains(q) {
		t.Error("GIR does not contain its own query")
	}
	if !g.OrderSensitive() {
		t.Error("ComputeGIR produced an order-insensitive region")
	}
	if g.Stats.Method != "FP" {
		t.Errorf("method = %q", g.Stats.Method)
	}
	// Visualization accessors.
	ivs := g.LIRs()
	if len(ivs) != 3 {
		t.Fatalf("%d LIRs", len(ivs))
	}
	for i, iv := range ivs {
		if iv.Lo > q[i] || iv.Hi < q[i] {
			t.Errorf("LIR %d = [%v,%v] excludes weight %v", i, iv.Lo, iv.Hi, q[i])
		}
		if iv.LoPerturbation == "" || iv.HiPerturbation == "" {
			t.Error("missing perturbation description")
		}
	}
	lo, hi := g.MAH()
	for i := range lo {
		if lo[i] > q[i] || hi[i] < q[i] {
			t.Errorf("MAH excludes the query in dimension %d", i)
		}
	}
	inner, outer := g.RadarBounds()
	if len(inner) != 3 || len(outer) != 3 {
		t.Error("radar bounds have wrong dimension")
	}
	ratio, err := g.VolumeRatio(gir.VolumeOptions{Samples: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if ratio <= 0 || ratio > 1 {
		t.Errorf("volume ratio = %v", ratio)
	}
	if g.String() == "" {
		t.Error("empty String()")
	}
}

func TestResultConsumedOnce(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	ds, _ := gir.NewDataset(randomPoints(r, 200, 2))
	res, _ := ds.TopK([]float64{0.5, 0.5}, 5)
	if _, err := ds.ComputeGIR(res, gir.FP); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.ComputeGIR(res, gir.SP); err == nil {
		t.Error("reusing a consumed TopKResult must fail")
	}
}

// TestAllMethodsAgreeOnMembership cross-validates the methods through the
// public API: explicit ComputeGIR calls against the exhaustive baseline,
// and — at the repository benchmark's shape — the region a zero-value
// engine caches (an FP fill) against ComputeGIR with SP.
func TestAllMethodsAgreeOnMembership(t *testing.T) {
	t.Run("explicit", func(t *testing.T) {
		r := rand.New(rand.NewSource(3))
		ds, _ := gir.NewDataset(randomPoints(r, 300, 3))
		q := []float64{0.4, 0.8, 0.3}
		regions := map[gir.Method]*gir.GIR{}
		for _, m := range []gir.Method{gir.SP, gir.CP, gir.FP, gir.Exhaustive} {
			res, _ := ds.TopK(q, 8)
			g, err := ds.ComputeGIR(res, m)
			if err != nil {
				t.Fatalf("%v: %v", m, err)
			}
			regions[m] = g
		}
		for trial := 0; trial < 300; trial++ {
			p := []float64{r.Float64(), r.Float64(), r.Float64()}
			want := regions[gir.Exhaustive].Contains(p)
			for m, g := range regions {
				if g.Contains(p) != want {
					t.Fatalf("%v disagrees with Exhaustive at %v", m, p)
				}
			}
		}
	})
	for _, space := range []gir.Space{gir.SpaceBox, gir.SpaceSimplex} {
		for d := 2; d <= 5; d++ {
			t.Run(fmt.Sprintf("engine/%v/d=%d", space, d), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(40 + d)))
				engineFillMatchesSP(t, r, randomPoints(r, 20000, d), space, 8)
			})
		}
	}
	// Every record in the coordinate hyperplane x_d = 0: p_k has no
	// virtual seed on that axis and no record leaves the flat, so FP finds
	// no full-dimensional simplex and the fill is its SP fallback.
	t.Run("engine/flat", func(t *testing.T) {
		r := rand.New(rand.NewSource(46))
		pts := randomPoints(r, 2000, 4)
		for _, p := range pts {
			p[3] = 0
		}
		engineFillMatchesSP(t, r, pts, gir.SpaceBox, 4)
		ds, _ := gir.NewDataset(pts)
		res, _ := ds.TopK([]float64{0.5, 0.4, 0.6, 0.3}, 10)
		g, err := ds.ComputeGIR(res, gir.FP)
		if err != nil {
			t.Fatal(err)
		}
		if g.Stats.StarFacets != 0 || g.Stats.SkylineSize == 0 {
			t.Fatalf("FP on the flat dataset did not fall back to SP: %+v", g.Stats)
		}
	})
}

// engineFillMatchesSP fills a zero-value engine's cache with random
// queries (k in 5..20) and holds every fill to ComputeGIR with SP: the
// cached region has the same minimal (kind, A, B) constraints, and hits
// served from it are byte-identical to Dataset.TopK.
func engineFillMatchesSP(t *testing.T, r *rand.Rand, pts [][]float64, space gir.Space, queries int) {
	ds, err := gir.NewDatasetInSpace(pts, space)
	if err != nil {
		t.Fatal(err)
	}
	e := gir.NewEngine(ds, gir.EngineOptions{})
	defer e.Close()
	pairs := func(g *gir.GIR) []string {
		var out []string
		for _, c := range g.Constraints() {
			out = append(out, fmt.Sprintf("%s %d>%d", c.Kind, c.A, c.B))
		}
		sort.Strings(out)
		return out
	}
	for i := 0; i < queries; i++ {
		q := make([]float64, ds.Dim())
		for j := range q {
			q[j] = 0.15 + 0.7*r.Float64()
		}
		q = space.Normalize(q)
		k := 5 + r.Intn(16)
		// Each query is a fill, even where an earlier query's region
		// covers it (at d = 2 regions are wide).
		e.Cache().Clear()
		if res := e.TopK(q, k); res.Err != nil || res.CacheHit {
			t.Fatalf("query %d: err=%v hit=%v, want a fill", i, res.Err, res.CacheHit)
		}
		var cached *gir.GIR
		for _, g := range e.CachedGIRs() {
			if slices.Equal(g.Query(), q) {
				cached = g
			}
		}
		if cached == nil {
			t.Fatalf("query %d: the fill cached nothing", i)
		}
		res, err := ds.TopK(q, k)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := ds.ComputeGIR(res, gir.SP)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := pairs(cached), pairs(sp); !slices.Equal(got, want) {
			t.Fatalf("query %d (k=%d): cached region %v, SP region %v", i, k, got, want)
		}
		// Nearby vectors inside the region are hits, and a hit is the
		// fresh answer bit for bit.
		hits := 0
		for trial := 0; trial < 20; trial++ {
			q2 := make([]float64, len(q))
			for j := range q2 {
				q2[j] = q[j] * (1 + 0.002*r.NormFloat64())
			}
			q2 = space.Normalize(q2)
			if !cached.Contains(q2) {
				continue
			}
			got := e.TopK(q2, k)
			want, err := ds.TopK(q2, k)
			if got.Err != nil || err != nil || !got.CacheHit {
				t.Fatalf("query %d: in-region vector not served from the cache (err=%v/%v, hit=%v)", i, got.Err, err, got.CacheHit)
			}
			hits++
			for j, w := range want.Records {
				g := got.Records[j]
				if g.ID != w.ID || math.Float64bits(g.Score) != math.Float64bits(w.Score) || !slices.Equal(g.Attrs, w.Attrs) {
					t.Fatalf("query %d rank %d: hit served %+v, TopK %+v", i, j, g, w)
				}
			}
		}
		if hits == 0 {
			t.Logf("query %d: no jittered vector fell inside the region", i)
		}
	}
}

func TestGIRStarAPI(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	ds, _ := gir.NewDataset(randomPoints(r, 300, 3))
	q := []float64{0.5, 0.6, 0.4}
	res, _ := ds.TopK(q, 6)
	star, err := ds.ComputeGIRStar(res, gir.FP)
	if err != nil {
		t.Fatal(err)
	}
	if star.OrderSensitive() {
		t.Error("GIR* marked order-sensitive")
	}
	if !star.Contains(q) {
		t.Error("GIR* excludes its query")
	}
	// GIR ⊆ GIR*.
	res2, _ := ds.TopK(q, 6)
	g, err := ds.ComputeGIR(res2, gir.FP)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		p := []float64{r.Float64(), r.Float64(), r.Float64()}
		if g.Contains(p) && !star.Contains(p) {
			t.Fatalf("point %v in GIR but not GIR*", p)
		}
	}
}

func TestNonLinearScoring(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	ds, _ := gir.NewDataset(randomPoints(r, 250, 4))
	q := []float64{0.7, 0.3, 0.5, 0.6}
	for _, s := range []gir.Scoring{gir.Polynomial, gir.Mixed} {
		res, err := ds.TopKFunc(q, 5, s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ds.ComputeGIR(res, gir.SP); err != nil {
			t.Errorf("SP with scoring %d: %v", s, err)
		}
		res2, _ := ds.TopKFunc(q, 5, s)
		if _, err := ds.ComputeGIR(res2, gir.FP); err == nil {
			t.Errorf("FP accepted non-linear scoring %d", s)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	if _, err := gir.NewDataset(nil); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := gir.NewDataset([][]float64{{0.5}}); err == nil {
		t.Error("1-d dataset accepted")
	}
	if _, err := gir.NewDataset([][]float64{{0.5, 1.5}}); err == nil {
		t.Error("out-of-range coordinate accepted")
	}
	if _, err := gir.NewDataset([][]float64{{0.5, 0.5}, {0.1}}); err == nil {
		t.Error("ragged dataset accepted")
	}
	r := rand.New(rand.NewSource(6))
	ds, _ := gir.NewDataset(randomPoints(r, 50, 2))
	if _, err := ds.TopK([]float64{0.5}, 5); err == nil {
		t.Error("wrong-dimension query accepted")
	}
	if _, err := ds.TopK([]float64{0.5, -0.1}, 5); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := ds.TopK([]float64{0.5, 0.5}, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := ds.TopK([]float64{0.5, 0.5}, 51); err == nil {
		t.Error("k>n accepted")
	}
}

func TestInsertDelete(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ds, _ := gir.NewDataset(randomPoints(r, 100, 2))
	p := []float64{1, 1} // dominates every uniform draw from [0,1)²
	if err := ds.Insert(1000, p); err != nil {
		t.Fatal(err)
	}
	res, _ := ds.TopK([]float64{0.5, 0.5}, 1)
	if res.Records[0].ID != 1000 {
		t.Errorf("dominating insert is not top-1 (got %d)", res.Records[0].ID)
	}
	if ok, err := ds.Delete(1000, p); err != nil || !ok {
		t.Errorf("Delete failed: %v, %v", ok, err)
	}
	if ok, err := ds.Delete(1000, p); err != nil {
		t.Error(err)
	} else if ok {
		t.Error("double Delete succeeded")
	}
	res2, _ := ds.TopK([]float64{0.5, 0.5}, 1)
	if res2.Records[0].ID == 1000 {
		t.Error("deleted record still returned")
	}
}

func TestIOStatsAndLatency(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	ds, _ := gir.NewDataset(randomPoints(r, 5000, 3))
	ds.ResetIOStats()
	res, _ := ds.TopK([]float64{0.5, 0.5, 0.5}, 10)
	_ = res
	s := ds.IOStats()
	if s.PageReads == 0 {
		t.Error("top-k performed no reads")
	}
	if want := time.Duration(s.PageReads) * 100 * time.Microsecond; s.IOTime != want {
		t.Errorf("IOTime %v inconsistent with %d reads at 100µs", s.IOTime, s.PageReads)
	}
}

// TestCacheAPI pins what an Engine's cache serves: a hit, an exact prefix
// for a smaller k, a partial hit for a larger one, and — the rescoring fix
// — a jittered vector inside the GIR served the records scored for it, bit
// for bit what TopK computes, not the filling query's scores.
func TestCacheAPI(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	ds, _ := gir.NewDataset(randomPoints(r, 400, 3))
	e := gir.NewEngine(ds, gir.EngineOptions{CacheCapacity: 8})
	defer e.Close()
	q := []float64{0.5, 0.6, 0.7}
	res, _ := ds.TopK(q, 10)
	recs := res.Records
	g, err := ds.ComputeGIR(res, gir.FP)
	if err != nil {
		t.Fatal(err)
	}
	if fill := e.TopK(q, 10); fill.Err != nil || fill.CacheHit {
		t.Fatalf("cold engine: err %v, hit %v", fill.Err, fill.CacheHit)
	}
	hit := e.TopK(q, 10)
	if !hit.CacheHit || len(hit.Records) != 10 {
		t.Fatalf("lookup: %+v", hit)
	}
	for i := range recs {
		if hit.Records[i].ID != recs[i].ID {
			t.Fatal("cached order differs")
		}
	}
	// Smaller k: exact prefix.
	if hit3 := e.TopK(q, 3); !hit3.CacheHit || len(hit3.Records) != 3 {
		t.Fatal("prefix lookup failed")
	}
	// Larger k: partial, computed in full.
	if hit20 := e.TopK(q, 20); hit20.CacheHit || !hit20.PartialHit || len(hit20.Records) != 20 {
		t.Fatal("partial lookup failed")
	}
	if hits, partial, _ := e.Cache().Stats(); hits != 2 || partial != 1 {
		t.Errorf("stats: hits=%d partial=%d", hits, partial)
	}

	q2 := []float64{0.5, 0.6, 0.7001}
	if !g.Contains(q2) {
		t.Fatal("jittered vector left the GIR")
	}
	hit2 := e.TopK(q2, 10)
	if !hit2.CacheHit {
		t.Fatal("jittered lookup inside the GIR missed")
	}
	fresh, err := ds.TopK(q2, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range fresh.Records {
		if got := hit2.Records[i]; got.ID != w.ID || got.Score != w.Score {
			t.Fatalf("rank %d: served id %d score %x, TopK id %d score %x", i, got.ID, got.Score, w.ID, w.Score)
		}
	}
	if hit2.Records[0].Score == recs[0].Score {
		t.Fatal("jitter left the top score unchanged: the check cannot tell the two apart")
	}
}

// The headline claim, end to end: every query vector inside the GIR gives
// the same ranked answer.
func TestCachedAnswersMatchFreshOnes(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	ds, _ := gir.NewDataset(randomPoints(r, 600, 3))
	q := []float64{0.55, 0.45, 0.65}
	res, _ := ds.TopK(q, 8)
	g, err := ds.ComputeGIR(res, gir.FP)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for trial := 0; trial < 4000 && checked < 25; trial++ {
		p := []float64{r.Float64(), r.Float64(), r.Float64()}
		if !g.Contains(p) || p[0] == 0 || p[1] == 0 || p[2] == 0 {
			continue
		}
		checked++
		fresh, err := ds.TopK(p, 8)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fresh.Records {
			if fresh.Records[i].ID != res.Records[i].ID {
				t.Fatalf("result differs at rank %d for in-GIR vector %v", i, p)
			}
		}
	}
	if checked == 0 {
		t.Skip("GIR too small for rejection sampling; covered by internal tests")
	}
}

// TestGIRNestsInK holds the property Figure 14(b)'s shape rests on: a
// longer result keeps more order, so for K < K′ the order-sensitive GIR of
// the top-K′ lies inside the GIR of the top-K. In the d = 4 box it checks
// sampled members of GIR(K′); in the d = 3 simplex, where VolumeRatio is
// exact, it checks that the ratio never rises with k.
func TestGIRNestsInK(t *testing.T) {
	t.Run("box d=4", func(t *testing.T) {
		r := rand.New(rand.NewSource(4))
		ds, err := gir.NewDataset(randomPoints(r, 5000, 4))
		if err != nil {
			t.Fatal(err)
		}
		q := []float64{0.8, 0.6, 0.3, 0.7}
		regionOf := func(k int) *gir.GIR {
			res, err := ds.TopK(q, k)
			if err != nil {
				t.Fatal(err)
			}
			g, err := ds.ComputeGIR(res, gir.FP)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		for _, pair := range [][2]int{{5, 10}, {20, 50}, {50, 100}} {
			outer, inner := regionOf(pair[0]), regionOf(pair[1])
			accepted, beyond := 0, 0
			for _, sigma := range []float64{1e-2, 1e-3, 1e-4} {
				for i := 0; i < 2000; i++ {
					p := make([]float64, len(q))
					for j := range p {
						p[j] = q[j] + sigma*r.NormFloat64()
					}
					inOuter := outer.Contains(p)
					if !inOuter {
						beyond++
					}
					if !inner.Contains(p) {
						continue
					}
					accepted++
					if !inOuter {
						t.Fatalf("%v is in GIR(top-%d) but not in GIR(top-%d)", p, pair[1], pair[0])
					}
				}
			}
			// The samples must both land in GIR(K′) and reach past GIR(K).
			if accepted < 100 || beyond == 0 {
				t.Fatalf("K=%d K′=%d: %d samples inside GIR(K′), %d outside GIR(K)", pair[0], pair[1], accepted, beyond)
			}
		}
	})
	t.Run("simplex d=3", func(t *testing.T) {
		r := rand.New(rand.NewSource(1))
		ds, err := gir.NewDatasetInSpace(randomPoints(r, 5000, 3), gir.SpaceSimplex)
		if err != nil {
			t.Fatal(err)
		}
		q := gir.SpaceSimplex.Normalize([]float64{0.5, 0.3, 0.2})
		ratio := func(k int, star bool) float64 {
			res, err := ds.TopK(q, k)
			if err != nil {
				t.Fatal(err)
			}
			compute := ds.ComputeGIR
			if star {
				compute = ds.ComputeGIRStar
			}
			g, err := compute(res, gir.FP)
			if err != nil {
				t.Fatal(err)
			}
			v, err := g.VolumeRatio(gir.VolumeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		prev := 1.0
		for _, k := range []int{1, 2, 3, 5, 8, 13, 20, 30, 50} {
			v, star := ratio(k, false), ratio(k, true)
			if v > prev {
				t.Errorf("VolumeRatio rises from %g to %g at k=%d", prev, v, k)
			}
			if star < v {
				t.Errorf("k=%d: GIR* ratio %g below GIR ratio %g", k, star, v)
			}
			prev = v
		}
	})
}

// TestLogVolumeRatio holds LogVolumeRatio to VolumeRatio at the same
// options: the natural log of the exact ratio where the ratio is exact (box
// d = 2, simplex d = 3), and, in the d = 4 box, the log of the same
// telescoped product, so that exponentiating it gives VolumeRatio bit for
// bit.
func TestLogVolumeRatio(t *testing.T) {
	opt := gir.VolumeOptions{Samples: 500, Seed: 3}
	for _, tc := range []struct {
		space gir.Space
		q     []float64
		exact bool
	}{
		{gir.SpaceBox, []float64{0.6, 0.4}, true},
		{gir.SpaceSimplex, []float64{0.5, 0.3, 0.2}, true},
		{gir.SpaceBox, []float64{0.8, 0.6, 0.3, 0.7}, false},
	} {
		t.Run(fmt.Sprintf("%v/d=%d", tc.space, len(tc.q)), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(len(tc.q))))
			ds, err := gir.NewDatasetInSpace(randomPoints(r, 2000, len(tc.q)), tc.space)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ds.TopK(tc.space.Normalize(tc.q), 5)
			if err != nil {
				t.Fatal(err)
			}
			g, err := ds.ComputeGIR(res, gir.FP)
			if err != nil {
				t.Fatal(err)
			}
			ratio, err := g.VolumeRatio(opt)
			if err != nil {
				t.Fatal(err)
			}
			logRatio, err := g.LogVolumeRatio(opt)
			if err != nil {
				t.Fatal(err)
			}
			if !(ratio > 0 && ratio < 1) {
				t.Fatalf("VolumeRatio = %g, want a proper share of the space", ratio)
			}
			if tc.exact && logRatio != math.Log(ratio) {
				t.Errorf("LogVolumeRatio = %v, want ln(VolumeRatio) = %v", logRatio, math.Log(ratio))
			}
			if !tc.exact && math.Float64bits(math.Exp(logRatio)) != math.Float64bits(ratio) {
				t.Errorf("exp(LogVolumeRatio) = %v, want VolumeRatio = %v bit for bit", math.Exp(logRatio), ratio)
			}
		})
	}
}
