package gir

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"github.com/girlib/gir/internal/datagen"
	"github.com/girlib/gir/internal/pager"
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

// fpRegionsGolden is the SHA-256 of the regions TestFPRegionsGolden
// builds — each one's query and its constraints in order (normal bits,
// kind, A, B). A change to FP or the reduction that should leave regions
// untouched must leave it as it is.
const fpRegionsGolden = "240a940982755da32c5628228e4bd26974d13d8f5edc31fca4f1e7e85a04c8b2"

// fpStatsGolden is the SHA-256 of the same builds' Stats, every one of
// which is a deterministic count. A change to how FP gets to a region (what
// it reads, prunes or cuts its cone by) moves it without moving the
// regions.
const fpStatsGolden = "94d05ba8e5562cff6a907a6d9e8ea14799fd01d33038f43317a4669d3b6fecb8"

// TestFPRegionsGolden pins FP's regions byte for byte, and separately the
// counts that describe how it built them: GIR builds on IND, ANTI and COR
// data at d = 2…6 and k = 1, 5, 10, 20, 50 (and GIR* builds at k = 5):
// from k = 1, where the cone starts as the orthant alone, to past 50
// Phase-1 rows. Every GIR is built twice, from BRS's whole T
// and heap and from a fill's screened tail (topk.ScreenedGroup), and both
// sets of builds must hash to the same regions and the same Stats: the
// records and nodes the tail leaves out still count in TSize and
// NodesPruned.
func TestFPRegionsGolden(t *testing.T) {
	whole := [2]hash.Hash{sha256.New(), sha256.New()} // regions, stats
	screened := [2]hash.Hash{sha256.New(), sha256.New()}
	builds, girReads := 0, 0
	for _, kind := range []datagen.Kind{datagen.IND, datagen.ANTI, datagen.COR} {
		for d := 2; d <= 6; d++ {
			pts, err := datagen.Generate(kind, 3000, d, int64(d))
			if err != nil {
				t.Fatal(err)
			}
			tree := rtree.BulkLoad(pager.NewMemStore(), d, pts, nil)
			for qi := 0; qi < 6; qi++ {
				q := datagen.Query(d, int64(100*d+qi))
				for _, k := range []int{1, 5, 10, 20, 50} {
					build := func(compute func(*rtree.Tree, *topk.Result, Options) (*Region, *Stats, error), res *topk.Result, into ...[2]hash.Hash) {
						reg, st, err := compute(tree, res, Options{Method: FP})
						if err != nil {
							t.Fatalf("%s d=%d q%d k=%d: %v", kind, d, qi, k, err)
						}
						for _, h := range into {
							hashRegion(h[0], reg)
							hashStats(h[1], st)
						}
						if reg.OrderSensitive && into[0] == whole {
							girReads += st.NodesRead
						}
					}
					build(Compute, topk.BRS(tree, score.Linear{}, q, k), whole)
					gs := topk.AcquireGroupScratch(tree)
					res, _ := topk.ScreenedGroup(gs, tree, score.Linear{}, []vec.Vector{q}, []int{k})
					build(Compute, res[0], screened)
					if res[0].Cone != nil {
						t.Fatalf("%s d=%d q%d k=%d: the Result still holds the scratch's cone after its build", kind, d, qi, k)
					}
					gs.Release()
					builds++
					// A GIR* cuts by one half-space per record of R⁻ and
					// candidate, so it stays at one k and d ≤ 5 to keep the
					// test to a few seconds. No traversal screens for it.
					if k == 5 && d <= 5 {
						build(ComputeStar, topk.BRS(tree, score.Linear{}, q, k), whole, screened)
						builds++
					}
				}
			}
		}
	}
	for i, want := range []string{fpRegionsGolden, fpStatsGolden} {
		what := [2]string{"regions", "builds' stats"}[i]
		if got := hex.EncodeToString(whole[i].Sum(nil)); got != want {
			t.Errorf("%d FP %s hash to %s, want %s", builds, what, got, want)
		}
		if got := hex.EncodeToString(screened[i].Sum(nil)); got != want {
			t.Errorf("%d FP %s from the screened tail hash to %s, want %s", builds, what, got, want)
		}
	}
	t.Logf("%d builds each way; the GIR builds read %d nodes", builds, girReads)
}

func hashRegion(h hash.Hash, reg *Region) {
	var buf []byte
	for _, x := range reg.Query {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	for _, c := range reg.Constraints {
		for _, x := range c.Normal {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
		}
		buf = append(buf, byte(c.Kind))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c.A))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c.B))
	}
	h.Write(buf)
}

func hashStats(h hash.Hash, st *Stats) {
	buf := []byte(st.Method)
	for _, n := range []int{st.TSize, st.SkylineSize, st.HullVertices, st.StarFacets, st.Critical, st.RMinus,
		st.NodesRead, st.NodesPruned, st.RawConstraints, st.Constraints} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	}
	h.Write(buf)
}
