package hull

import (
	"slices"
	"testing"

	"github.com/girlib/gir/internal/datagen"
	"github.com/girlib/gir/internal/pager"
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

// BenchmarkStarAddBlock is FP's star kernel alone, at its worst case: a
// d = 4 star seeded with the virtual seeds and the whole of BRS's T, and
// fed the leaves of a 200 000-record tree that a star-only step 2 would
// read, a block per leaf, in its pop order. A fill no longer runs this
// shape — FP seeds only the T records the Phase-1 cone keeps and reads
// only the nodes it keeps, so at k = 20 a fill feeds the star a few
// records and well under a leaf — but the kernel's cost per record is
// what this measures. One op is one query's Reset and AddBlocks, cycling
// over eight top-20 queries. leaves/op is the leaves fed; skipped% is the
// share of (facet, leaf) screens the box skip saves, counted on each
// leaf's first screen.
func BenchmarkStarAddBlock(b *testing.B) {
	const n, d, k = 200000, 4, 20
	pts, err := datagen.Generate(datagen.IND, n, d, 1)
	if err != nil {
		b.Fatal(err)
	}
	tree := rtree.BulkLoad(pager.NewMemStore(), d, pts, nil)
	type leaf struct {
		cols [][]float64
		ids  []int64
	}
	type fill struct {
		apex    vec.Vector
		seeds   []vec.Vector
		seedIDs []int64
		leaves  []leaf
	}
	fills := make([]fill, 8)
	var star Star
	var blk rtree.NodeBlock
	for qi := range fills {
		res := topk.BRS(tree, score.Linear{}, datagen.Query(d, int64(100+qi)), k)
		f := &fills[qi]
		f.apex = res.Kth().Point
		var slab []float64
		f.seeds, f.seedIDs = VirtualSeeds(nil, nil, &slab, f.apex)
		for _, rec := range res.T {
			f.seeds, f.seedIDs = append(f.seeds, rec.Point), append(f.seedIDs, rec.ID)
		}
		if err := star.Reset(f.apex, f.seeds, f.seedIDs); err != nil {
			b.Fatal(err)
		}
		for h := res.Heap; h.Len() > 0; {
			it := h.PopItem()
			if !star.MBBAboveAny(it.Rect.Lo, it.Rect.Hi) {
				continue
			}
			node := tree.ReadBlock(it.Child, &blk)
			if node.Leaf {
				l := leaf{ids: slices.Clone(node.RecIDs)}
				for _, col := range node.Cols {
					l.cols = append(l.cols, slices.Clone(col[:node.Count]))
				}
				f.leaves = append(f.leaves, l)
				star.AddBlock(l.cols, l.ids)
				continue
			}
			for i, child := range node.Children {
				lo, hi := vec.Vector(slices.Clone(node.Lo[i*d:(i+1)*d])), vec.Vector(slices.Clone(node.Hi[i*d:(i+1)*d]))
				if star.MBBAboveAny(lo, hi) {
					h.PushItem(topk.NodeItem{Key: res.Func.MaxScore(lo, hi, res.Query), Child: child, Rect: rtree.Rect{Lo: lo, Hi: hi}})
				}
			}
		}
	}
	leaves, screens, skipped := 0, 0, 0
	for _, f := range fills {
		star.Reset(f.apex, f.seeds, f.seedIDs)
		for _, l := range f.leaves {
			star.box(l.cols, len(l.ids))
			for fi, off := range star.offsets {
				screens++
				if vec.MaxOverBox(star.normals[fi*d:fi*d+d], star.lo, star.hi) <= off+Tol {
					skipped++
				}
			}
			star.AddBlock(l.cols, l.ids)
		}
		leaves += len(f.leaves)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := &fills[i%len(fills)]
		star.Reset(f.apex, f.seeds, f.seedIDs)
		for _, l := range f.leaves {
			star.AddBlock(l.cols, l.ids)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(leaves)/float64(len(fills)), "leaves/op")
	b.ReportMetric(100*float64(skipped)/float64(max(screens, 1)), "skipped%")
}
