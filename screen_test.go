package gir

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/girlib/gir/internal/datagen"
	girint "github.com/girlib/gir/internal/gir"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

// TestScreenedFillMatchesTwoStep holds a cache fill, whose traversal
// screens T and the heap by the Phase-1 cone in its tail
// (topk.ScreenedGroup), byte-equal to the two-step Dataset.TopK +
// ComputeGIR(FP), which retains both whole: the regions (query, normals as
// float bits, kinds, ids) and the build's Stats, on IND, COR and ANTI data,
// continuous and tied (rounded to a 1/8 grid), at d = 2…6 and
// k ∈ {1, 2, d, d+1, 10, 30}. Fills run solo and as fused groups of
// jittered near-repeats through answerGroup, the engine's one fill path,
// which hands back each build's Stats, and through an Engine's cached
// BatchTopK, whose fused members' regions are read back from the cache.
// Every tail screens, k ≤ d among them: the orthant's cone is pointed for
// every k, and the test counts the solo fills at k ≤ d whose tail left a
// T record or a heap node out.
func TestScreenedFillMatchesTwoStep(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	fills, fused, cached, small, screenedSmall := 0, 0, 0, 0, 0
	for _, kind := range []datagen.Kind{datagen.IND, datagen.COR, datagen.ANTI} {
		for d := 2; d <= 6; d++ {
			for _, tied := range []bool{false, true} {
				name := fmt.Sprintf("%s/d=%d/tied=%v", kind, d, tied)
				ds := screenDataset(t, kind, d, tied)
				twoStep := func(q []float64, k int) *GIR {
					t.Helper()
					res, err := ds.TopK(q, k)
					if err != nil {
						t.Fatalf("%s k=%d: %v", name, k, err)
					}
					g, err := ds.ComputeGIR(res, FP)
					if err != nil {
						t.Fatalf("%s k=%d: %v", name, k, err)
					}
					return g
				}
				check := func(qs []vec.Vector, ks []int) {
					t.Helper()
					answers, _ := ds.answerGroup(qs, ks, true)
					for i, a := range answers {
						if a.err != nil || a.girErr != nil {
							t.Fatalf("%s k=%d: %v %v", name, ks[i], a.err, a.girErr)
						}
						if msg := sameFill(a.g, twoStep(qs[i], ks[i])); msg != "" {
							t.Fatalf("%s q=%v k=%d: %s", name, qs[i], ks[i], msg)
						}
					}
				}
				ks := []int{1, 2, d, d + 1, 10, 30}
				for qi := 0; qi < screenQueries; qi++ {
					q := datagen.Query(d, int64(1000*d+qi))
					for _, k := range ks {
						check([]vec.Vector{q}, []int{k})
						fills++
						if k <= d {
							small++
							if screened(ds, q, k) {
								screenedSmall++
							}
						}
					}
					// One fused group: a near-repeat of q per k, so the
					// group's members screen with cones of their own.
					qs := make([]vec.Vector, len(ks))
					for i := range qs {
						qs[i] = jitter(r, q)
					}
					check(qs, append([]int(nil), ks...))
					fused += len(ks)
				}

				e := NewEngine(ds, EngineOptions{Workers: 2, CacheCapacity: 4096})
				var batch []Query
				for qi := 0; qi < screenQueries; qi++ {
					q := datagen.Query(d, int64(5000*d+qi))
					for _, k := range ks {
						for j := 0; j < 3; j++ {
							batch = append(batch, Query{Vector: jitter(r, q), K: k})
						}
					}
				}
				for _, res := range e.BatchTopK(batch) {
					if res.Err != nil {
						t.Fatalf("%s: %v", name, res.Err)
					}
				}
				for _, entry := range e.cache.inner.Entries() {
					want := twoStep(entry.Region.Query, entry.K)
					if msg := sameRegion(entry.Region, want.region); msg != "" {
						t.Fatalf("%s cached q=%v k=%d: %s", name, entry.Region.Query, entry.K, msg)
					}
					cached++
				}
				e.Close()
			}
		}
	}
	if e := 3 * 5 * 2 * screenQueries * 6; fills != e || fused != e || cached == 0 || screenedSmall == 0 {
		t.Fatalf("%d solo fills, %d fused, %d cached regions, %d tails at k ≤ d that screened; want %d, %d and some of each", fills, fused, cached, screenedSmall, e, e)
	}
	t.Logf("%d solo and %d fused fills and %d cached regions equal the two-step path's; %d of the %d solo tails at k ≤ d screened",
		fills, fused, cached, screenedSmall, small)
}

// screened reports whether the screened tail of a fill at (q, k) left a T
// record or a heap node out.
func screened(ds *Dataset, q vec.Vector, k int) bool {
	sn := ds.pinSnap()
	defer sn.release()
	gs := topk.AcquireGroupScratch(sn.tree)
	defer gs.Release()
	res, _ := topk.ScreenedGroup(gs, sn.tree, score.Linear{}, []vec.Vector{q}, []int{k})
	return res[0].DroppedT+res[0].DroppedNodes > 0
}

// screenQueries is how many query vectors each arm of
// TestScreenedFillMatchesTwoStep draws per cell; alloc_race_test.go lowers
// it for the race build, where every build costs several times as much.
var screenQueries = 3

// screenDataset is n = 500 records of kind in d dimensions; tied rounds
// every coordinate to a 1/8 grid, so exact ties in score are the rule.
func screenDataset(t *testing.T, kind datagen.Kind, d int, tied bool) *Dataset {
	t.Helper()
	pts, err := datagen.Generate(kind, 500, d, int64(10*d+1))
	if err != nil {
		t.Fatal(err)
	}
	raw := make([][]float64, len(pts))
	for i, p := range pts {
		raw[i] = p
		if tied {
			for j, x := range p {
				p[j] = math.Round(x*8) / 8
			}
		}
	}
	ds, err := NewDataset(raw)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// jitter returns q with every weight moved by a relative 1e-5 at most, a
// near-repeat that fuses with q (topk.FuseCosine).
func jitter(r *rand.Rand, q vec.Vector) vec.Vector {
	out := make(vec.Vector, len(q))
	for j, w := range q {
		out[j] = w * (1 + 1e-5*(2*r.Float64()-1))
	}
	return out
}

// sameFill compares a fill's GIR with the two-step one, region and Stats,
// and says how they differ.
func sameFill(got, want *GIR) string {
	if msg := sameRegion(got.region, want.region); msg != "" {
		return msg
	}
	if g, w := *got.build, *want.build; g != w {
		return fmt.Sprintf("stats %+v, the two-step build's %+v", g, w)
	}
	gs, ws := got.Stats, want.Stats
	gs.Elapsed, ws.Elapsed = 0, 0
	if gs != ws {
		return fmt.Sprintf("ComputeStats %+v, the two-step build's %+v", gs, ws)
	}
	return ""
}

// sameRegion compares two regions bit for bit: query, and each
// constraint's normal, kind and record ids, in order.
func sameRegion(got, want *girint.Region) string {
	bits := func(v vec.Vector) []uint64 {
		out := make([]uint64, len(v))
		for i, x := range v {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	if fmt.Sprint(bits(got.Query)) != fmt.Sprint(bits(want.Query)) {
		return fmt.Sprintf("query %v, want %v", got.Query, want.Query)
	}
	if len(got.Constraints) != len(want.Constraints) {
		return fmt.Sprintf("%d constraints, want %d", len(got.Constraints), len(want.Constraints))
	}
	for i, c := range got.Constraints {
		w := want.Constraints[i]
		if c.Kind != w.Kind || c.A != w.A || c.B != w.B || fmt.Sprint(bits(c.Normal)) != fmt.Sprint(bits(w.Normal)) {
			return fmt.Sprintf("constraint %d is %v %d/%d %v, want %v %d/%d %v", i, c.Kind, c.A, c.B, c.Normal, w.Kind, w.A, w.B, w.Normal)
		}
	}
	return ""
}
