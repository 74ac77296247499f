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
)

// fpRegionsGolden is the SHA-256 of the regions TestFPRegionsGolden
// builds — each one's query and its constraints in order (normal bits,
// kind, A, B). A change to FP or the star that should leave regions
// untouched must leave it as it is.
const fpRegionsGolden = "abab4e59e8feab9aecbac2021136a48a6a1bd6b2297637de7ca8d995a707e36a"

// fpStatsGolden is the SHA-256 of the same builds' Stats, every one of
// which is a deterministic count. A change to how FP gets to a region (what
// it reads, prunes or keeps on its star) moves it without moving the
// regions.
const fpStatsGolden = "a61d8f025528ccb5ade643b105e060e00ddb7d630a2e31170d61fdfb283ce15a"

// TestFPRegionsGolden pins FP's regions byte for byte, and separately the
// counts that describe how it built them: GIR builds on IND, ANTI and COR
// data at d = 2…6 and k = 1, 5, 10, 20, 50 (and GIR* builds at k = 5).
// k = 10 and 50 are there because at k − 1 < d the Phase-1 cone has no
// extreme ray to screen with.
func TestFPRegionsGolden(t *testing.T) {
	regions, stats := sha256.New(), sha256.New()
	builds := 0
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
					build := func(compute func(*rtree.Tree, *topk.Result, Options) (*Region, *Stats, error)) {
						reg, st, err := compute(tree, topk.BRS(tree, score.Linear{}, q, k), Options{Method: FP})
						if err != nil {
							t.Fatalf("%s d=%d q%d k=%d: %v", kind, d, qi, k, err)
						}
						hashRegion(regions, reg)
						hashStats(stats, st)
						builds++
					}
					build(Compute)
					// A GIR* keeps one star per record of R⁻, so it stays at
					// one k and d ≤ 5 to keep the test to a few seconds.
					if k == 5 && d <= 5 {
						build(ComputeStar)
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(regions.Sum(nil)); got != fpRegionsGolden {
		t.Errorf("%d FP regions hash to %s, want %s", builds, got, fpRegionsGolden)
	}
	if got := hex.EncodeToString(stats.Sum(nil)); got != fpStatsGolden {
		t.Errorf("%d FP builds' stats hash to %s, want %s", builds, got, fpStatsGolden)
	}
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
