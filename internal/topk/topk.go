// Package topk implements BRS (Branch-and-bound Ranked Search, Tao et al.
// [32]), the I/O-optimal top-k algorithm the paper uses to answer the
// original query before GIR computation starts.
//
// Beyond the top-k result itself, BRS here retains exactly the state the
// GIR algorithms need (Section 3.3 of the paper): the set T of non-result
// records encountered in visited leaves, and the search heap of index
// entries not yet expanded. Phase 2 (SP/CP via BBS, or FP's refinement
// step) resumes the traversal from that heap, so no page is ever read
// twice.
//
// There is one traversal (runMember), and it runs for a group of queries
// over one tree state; a solo query is a group of one. The search runs
// entirely on a pooled GroupScratch workspace (typed heaps, a float64
// arena, reusable page blocks); the Result handed back is materialized
// into freshly allocated slabs at the end, so it owns all of its memory
// and the scratch can be recycled immediately.
package topk

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"github.com/girlib/gir/internal/pager"
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/vec"
)

// Record is a data record with its score for the current query.
type Record struct {
	ID    int64
	Point vec.Vector
	Score float64
}

// Result carries the top-k answer plus the retained traversal state.
type Result struct {
	Query   vec.Vector
	K       int
	Func    score.General
	Records []Record // the top-k, in decreasing score order
	T       []Record // non-result records encountered by BRS
	Heap    *NodeHeap
}

// Kth returns the k-th (last) result record.
func (r *Result) Kth() Record { return r.Records[len(r.Records)-1] }

// BRS answers the top-k query over the tree with scoring function f and
// query vector q, using a pooled workspace. It is a group of one: the same
// member traversal BRSGroup runs, with no later member to share decoded
// pages with. It panics if k exceeds the dataset size or is not positive.
func BRS(tree *rtree.Tree, f score.General, q vec.Vector, k int) *Result {
	gs := AcquireGroupScratch(tree)
	defer gs.Release()
	gs.one[0] = q
	gs.begin()
	return gs.runMember(tree, f, gs.one[:], k, 0)
}

// runMember is the BRS traversal, for member m of the group qs with
// result size k. Reads go through the group's decode cache: the first
// member to touch a page pays its one counted read and retains the block,
// and a leaf is scored on first decode for every member still to run, so
// a later member finds its score row precomputed; the last member retains
// and scores for nobody. The returned Result owns all of its memory; the
// workspace is reused for the next member as soon as runMember returns.
func (gs *GroupScratch) runMember(tree *rtree.Tree, f score.General, qs []vec.Vector, k, m int) *Result {
	q := qs[m]
	if k <= 0 || k > tree.Len() {
		panic(fmt.Sprintf("topk: k=%d out of range for %d records", k, tree.Len()))
	}
	if len(q) != tree.Dim() {
		panic("topk: query dimensionality mismatch")
	}
	d := tree.Dim()
	gs.reset()
	ml, multi := f.(score.MultiLeafScorer)
	ls, bulk := f.(score.LeafScorer)
	last := m+1 == len(qs)

	// readBlock returns the decoded page and its cache slot, -1 for a
	// block that is not retained.
	readBlock := func(id pager.PageID) (*rtree.NodeBlock, int) {
		if last {
			if blk, slot, ok := tree.CachedBlock(id, &gs.cache); ok {
				gs.stats.SharedReads++
				return blk, slot
			}
			gs.stats.PageReads++
			return tree.ReadBlock(id, &gs.blk), -1
		}
		blk, cached, slot := tree.ReadBlockCached(id, &gs.cache)
		if cached {
			gs.stats.SharedReads++
			return blk, slot
		}
		gs.stats.PageReads++
		gs.ensureSlot(slot)
		if multi && blk.Leaf {
			gs.scoreSlot(slot, blk, ml, qs, m)
		} else {
			gs.first[slot] = -1
		}
		return blk, slot
	}

	pushBlock := func(blk *rtree.NodeBlock, slot int) {
		n := blk.Count
		if blk.Leaf {
			sc := gs.leafRow(slot, m, n)
			if sc == nil {
				sc = gs.scores[:n]
				if bulk {
					ls.ScoreLeaf(sc, blk.Cols, q)
				} else {
					for i := 0; i < n; i++ {
						sc[i] = f.Score(blk.Point(i, gs.point), q)
					}
				}
			}
			for i := 0; i < n; i++ {
				gs.heap.push(brsItem{key: sc[i], id: blk.RecIDs[i], ref: gs.putPoint(blk, i)})
			}
			return
		}
		for i := 0; i < n; i++ {
			lo := vec.Vector(blk.Lo[i*d : (i+1)*d])
			hi := vec.Vector(blk.Hi[i*d : (i+1)*d])
			key := f.MaxScore(lo, hi, q)
			gs.heap.push(brsItem{key: key, child: blk.Children[i], node: true, ref: gs.putRect(lo, hi)})
		}
	}
	pushBlock(readBlock(tree.Root()))

	for len(gs.heap) > 0 && len(gs.top) < k {
		it := gs.heap.pop()
		if it.node {
			pushBlock(readBlock(it.child))
			continue
		}
		// A record popped from a max-heap on maxscore is the best
		// unreported record overall (I/O optimality of BRS).
		gs.top = append(gs.top, it)
	}
	if len(gs.top) < k {
		panic("topk: heap exhausted before k records (corrupt index)")
	}
	return gs.materialize(f, q, d, k)
}

// materialize deep-copies the search state into a freshly allocated
// Result: two slabs (one for every retained point including the query,
// one for the resumable heap's rectangles) plus the slices over them.
// Leftover heap items are visited in array order — record items form T
// (sorted by score afterwards), node items form the resumable heap
// (re-heapified with Init) — exactly the retention the per-item
// allocating implementation performed, so results are byte-identical.
//
// T is sorted as pointer-free keys, then written once. slices.SortFunc
// and sort.Slice are one pdqsort, so with less ≡ cmp < 0 over the same
// sequence they make the same comparisons and swaps: ties keep the order
// sort.Slice over the Records gave them.
func (gs *GroupScratch) materialize(f score.General, q vec.Vector, d, k int) *Result {
	keys, nH := gs.tkeys[:0], 0
	for _, it := range gs.heap {
		if it.node {
			nH++
		} else {
			keys = append(keys, tKey{score: it.key, id: it.id, ref: it.ref})
		}
	}
	gs.tkeys = keys
	nT := len(keys)
	pts := make([]float64, (1+k+nT)*d)
	next := func() vec.Vector {
		v := vec.Vector(pts[:d])
		pts = pts[d:]
		return v
	}

	res := &Result{K: k, Func: f, Query: next()}
	copy(res.Query, q)
	res.Records = make([]Record, k)
	for i, it := range gs.top {
		p := next()
		copy(p, gs.arena[it.ref:it.ref+d])
		res.Records[i] = Record{ID: it.id, Point: p, Score: it.key}
	}
	// T in decreasing score order (deterministic downstream behaviour).
	slices.SortFunc(keys, func(a, b tKey) int { return cmp.Compare(b.score, a.score) })
	if nT > 0 {
		res.T = make([]Record, nT)
	}
	for i, key := range keys {
		p := next()
		copy(p, gs.arena[key.ref:key.ref+d])
		res.T[i] = Record{ID: key.id, Point: p, Score: key.score}
	}
	hp := make(NodeHeap, 0, nH)
	rects := make([]float64, nH*2*d)
	for _, it := range gs.heap {
		if it.node {
			lo, hi := vec.Vector(rects[:d]), vec.Vector(rects[d:2*d])
			rects = rects[2*d:]
			copy(lo, gs.arena[it.ref:it.ref+d])
			copy(hi, gs.arena[it.ref+d:it.ref+2*d])
			hp = append(hp, NodeItem{Key: it.key, Child: it.child, Rect: rtree.Rect{Lo: lo, Hi: hi}})
		}
	}
	hp.Init()
	res.Heap = &hp
	return res
}

// Scan is the trivial O(n·log n) oracle: it scores every record by reading
// all leaf pages. Used by tests and as the paper's "scan the dataset"
// strawman baseline.
func Scan(tree *rtree.Tree, f score.General, q vec.Vector, k int) []Record {
	d := tree.Dim()
	ls, bulk := f.(score.LeafScorer)
	var all []Record
	var scores []float64
	var walk func(id pager.PageID)
	walk = func(id pager.PageID) {
		var blk rtree.NodeBlock
		tree.ReadBlock(id, &blk)
		if !blk.Leaf {
			for _, child := range blk.Children {
				walk(child)
			}
			return
		}
		n := blk.Count
		if cap(scores) < n {
			scores = make([]float64, n)
		}
		sc := scores[:n]
		if bulk {
			ls.ScoreLeaf(sc, blk.Cols, q)
			for i := 0; i < n; i++ {
				p := make(vec.Vector, d)
				blk.Point(i, p)
				all = append(all, Record{ID: blk.RecIDs[i], Point: p, Score: sc[i]})
			}
			return
		}
		for i := 0; i < n; i++ {
			p := make(vec.Vector, d)
			blk.Point(i, p)
			all = append(all, Record{ID: blk.RecIDs[i], Point: p, Score: f.Score(p, q)})
		}
	}
	walk(tree.Root())
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].ID < all[j].ID
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}
