package geom_test

import (
	"fmt"
	"testing"

	"github.com/girlib/gir/internal/datagen"
	"github.com/girlib/gir/internal/geom"
	"github.com/girlib/gir/internal/pager"
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

// BenchmarkConeScreen is the screen's ledger line: one Cone.Screen of a
// real T block — the non-result records BRS met, column-major — by its
// Phase-1 cone P1 pinned to p_k, the block a fill's tail screens. It runs
// BenchmarkFill's shapes (IND, n = 100 000; d = 4 at k = 20 and k = 5,
// d = 6 at k = 20) over 40 queries, and reports the time per record
// screened, the records per block, P1's rays and the share kept.
func BenchmarkConeScreen(b *testing.B) {
	for _, shape := range []struct{ d, k int }{{4, 20}, {4, 5}, {6, 20}} {
		b.Run(fmt.Sprintf("d=%d/k=%d", shape.d, shape.k), func(b *testing.B) {
			blocks := screenBlocks(b, shape.d, shape.k, 40)
			var recs, kept, rays int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := &blocks[i%len(blocks)]
				s.cone.Screen(s.keep, s.cols)
				recs, kept, rays = recs+len(s.keep), kept+s.kept, rays+s.cone.NumRays()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(recs), "ns/record")
			b.ReportMetric(float64(recs)/float64(b.N), "records/op")
			b.ReportMetric(float64(rays)/float64(b.N), "rays/op")
			b.ReportMetric(float64(kept)/float64(recs), "kept/record")
		})
	}
}

// screenBlock is one query's T block, the cone that screens it and how
// many of its records the screen keeps.
type screenBlock struct {
	cone geom.Cone
	cols [][]float64
	keep []bool
	kept int
}

// screenBlocks returns, for each of the queries, BRS's T at k as one
// column-major block and its Phase-1 cone: the rows p_i − p_{i+1} of the
// result in rank order, pinned to p_k.
func screenBlocks(tb testing.TB, d, k, queries int) []screenBlock {
	pts, err := datagen.Generate(datagen.IND, 100000, d, 1)
	if err != nil {
		tb.Fatal(err)
	}
	tree := rtree.BulkLoad(pager.NewMemStore(), d, pts, nil)
	out := make([]screenBlock, queries)
	for qi := range out {
		res := topk.BRS(tree, score.Linear{}, datagen.Query(d, int64(1000+qi)), k)
		rows := make([]vec.Vector, k-1)
		for i := range rows {
			rows[i] = vec.Sub(res.Records[i].Point, res.Records[i+1].Point)
		}
		s := &out[qi]
		s.cone.Reset(d, rows, res.Kth().Point)
		s.cols, s.keep = make([][]float64, d), make([]bool, len(res.T))
		for j := range s.cols {
			s.cols[j] = make([]float64, len(res.T))
			for i, rec := range res.T {
				s.cols[j][i] = rec.Point[j]
			}
		}
		s.cone.Screen(s.keep, s.cols)
		for _, k := range s.keep {
			if k {
				s.kept++
			}
		}
	}
	return out
}
