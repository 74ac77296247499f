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

// fpRegionsGolden is the SHA-256 of every region TestFPRegionsGolden
// builds. A change to FP or the star that should leave regions untouched
// must leave it as it is.
const fpRegionsGolden = "8590fd6546e07be7967d0b637f1e913823492a8fda0381ece7961cbe185aa8d0"

// TestFPRegionsGolden pins FP's regions byte for byte: GIR builds on IND,
// ANTI and COR data at d = 2…6 and k = 1, 5, 20 (and GIR* builds at
// k = 5), hashed over each region's query, its constraints in order
// (normal bits, kind, A, B) and the build's Stats, every one of which is a
// deterministic count.
func TestFPRegionsGolden(t *testing.T) {
	h := sha256.New()
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
				for _, k := range []int{1, 5, 20} {
					build := func(compute func(*rtree.Tree, *topk.Result, Options) (*Region, *Stats, error)) {
						reg, st, err := compute(tree, topk.BRS(tree, score.Linear{}, q, k), Options{Method: FP})
						if err != nil {
							t.Fatalf("%s d=%d q%d k=%d: %v", kind, d, qi, k, err)
						}
						hashRegion(h, reg, st)
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
	got := hex.EncodeToString(h.Sum(nil))
	if got != fpRegionsGolden {
		t.Errorf("%d FP builds hash to %s, want %s", builds, got, fpRegionsGolden)
	}
}

func hashRegion(h hash.Hash, reg *Region, st *Stats) {
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
	buf = append(buf, st.Method...)
	for _, n := range []int{st.TSize, st.SkylineSize, st.HullVertices, st.StarFacets, st.Critical, st.RMinus,
		st.NodesRead, st.NodesPruned, st.RawConstraints, st.Constraints} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	}
	h.Write(buf)
}
