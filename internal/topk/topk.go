// Package topk implements BRS (Branch-and-bound Ranked Search, Tao et al.
// [32]), the I/O-optimal top-k algorithm the paper uses to answer the
// original query before GIR computation starts.
//
// Every ranking here is total: records rank (score desc, id asc) and
// index nodes (maxscore desc, page id asc). A result therefore never
// depends on page layout or on the order things were met in — exact
// ties come out by id, as topk.Scan, the brute-force oracle, orders them.
//
// The traversal keeps its search heap for nodes only. Records go to a
// k-slot, the best k met so far under the record order, and a record
// that cannot rank costs one comparison instead of a heap push. A node
// is expanded only while it can still hold a record that ranks, so on
// continuous data BRS reads the same pages as with one mixed record/node
// heap.
//
// Beyond the top-k result itself, BRS here retains exactly the state the
// GIR algorithms need (Section 3.3 of the paper): the set T of non-result
// records encountered in visited leaves, and the search heap of index
// entries not yet expanded. Phase 2 (SP/CP via BBS, or FP's refinement
// step) resumes the traversal from that heap, so no page is ever read
// twice. That state is retained only for a caller that builds a region:
// BRS, BRSGroup and BatchBRS retain it, RecordsGroup does not. T comes out
// in the order the traversal met it, not in the record order: FP's
// Phase-1 screen drops most of it unread, so a reader that needs the
// record order sorts only what it reads (SortRecords).
//
// There is one traversal (runMember), and it runs for a group of queries
// over one tree state; a solo query is a group of one. The search runs
// entirely on a pooled GroupScratch workspace (typed heaps, a float64
// arena, reusable page blocks); the Result handed back is materialized
// into freshly allocated slabs at the end, so it owns all of its memory
// and the scratch can be recycled immediately.
package topk

import (
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

// Result carries the top-k answer plus, when the traversal retained it,
// the state a region build resumes from. A records-only Result
// (RecordsGroup) has nil T and Heap.
type Result struct {
	Query   vec.Vector
	K       int
	Func    score.General
	Records []Record // the top-k, in (score desc, id asc) order
	T       []Record // non-result records encountered by BRS, in traversal order, when retained; a reader that needs the record order sorts what it reads
	Heap    *NodeHeap
}

// Kth returns the k-th (last) result record.
func (r *Result) Kth() Record { return r.Records[len(r.Records)-1] }

// SortRecords sorts recs into the record order, (score desc, id asc).
func SortRecords(recs []Record) {
	slices.SortFunc(recs, func(a, b Record) int {
		return order(item{key: a.Score, tie: a.ID}, item{key: b.Score, tie: b.ID})
	})
}

// BRS answers the top-k query over the tree with scoring function f and
// query vector q, using a pooled workspace. It is a group of one: the same
// member traversal BRSGroup runs, with no later member to share decoded
// pages with. It panics if k exceeds the dataset size or is not positive.
func BRS(tree *rtree.Tree, f score.General, q vec.Vector, k int) *Result {
	gs := AcquireGroupScratch(tree)
	defer gs.Release()
	gs.one[0] = q
	gs.begin()
	return gs.runMember(tree, f, gs.one[:], k, 0, true)
}

// runMember is the BRS traversal, for member m of the group qs with
// result size k. Reads go through the group's decode cache: the first
// member to touch a page pays its one counted read and retains the block,
// and a leaf is scored on first decode for every member still to run, so
// a later member finds its score row precomputed; the last member retains
// and scores for nobody.
//
// The search heap holds nodes only; records go to the k-slot, the best k
// met so far under (score desc, id asc). A record enters the slot only if
// it ranks ahead of the slot's worst; a node is expanded only if its key
// is at least the worst's score — a node goes ahead of a record at an
// equal key, so a tied record with a smaller id beneath it is not missed —
// and the loop stops when the best node left ranks below the worst. A node
// with a key below the final k-th score is never expanded, and one above
// it always is, so a traversal reads exactly the pages the mixed
// record/node heap of Tao et al.'s BRS reads, ties at the k-th score
// aside. retain only decides what happens to the losers: a records-only
// traversal drops them, a retaining one keeps the records as T and the
// nodes as the resumable heap (see materialize). The returned Result owns
// all of its memory; the workspace is reused for the next member as soon
// as runMember returns.
func (gs *GroupScratch) runMember(tree *rtree.Tree, f score.General, qs []vec.Vector, k, m int, retain bool) *Result {
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

	expand := func(blk *rtree.NodeBlock, slot int) {
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
				it := item{key: sc[i], tie: blk.RecIDs[i]}
				switch {
				case len(gs.slot) < k:
					it.ref = gs.putPoint(blk, i)
					gs.slot.push(it)
				case ahead(it, gs.slot[0]):
					it.ref = gs.putPoint(blk, i)
					if out := gs.slot.replace(it); retain {
						gs.tlist = append(gs.tlist, out)
					}
				case retain:
					it.ref = gs.putPoint(blk, i)
					gs.tlist = append(gs.tlist, it)
				}
			}
			return
		}
		for i := 0; i < n; i++ {
			lo := vec.Vector(blk.Lo[i*d : (i+1)*d])
			hi := vec.Vector(blk.Hi[i*d : (i+1)*d])
			it := item{key: f.MaxScore(lo, hi, q), tie: int64(blk.Children[i])}
			if retain {
				it.ref = gs.putRect(lo, hi)
			}
			switch {
			case len(gs.slot) < k || it.key >= gs.slot[0].key:
				gs.nodes.push(it)
			case retain:
				gs.hlist = append(gs.hlist, it)
			}
		}
	}
	expand(readBlock(tree.Root()))

	for len(gs.nodes) > 0 && (len(gs.slot) < k || gs.nodes[0].key >= gs.slot[0].key) {
		expand(readBlock(pager.PageID(gs.nodes.pop().tie)))
	}
	if len(gs.slot) < k {
		panic("topk: heap exhausted before k records (corrupt index)")
	}
	return gs.materialize(f, q, d, k, retain)
}

// materialize deep-copies the search state into a freshly allocated
// Result: two slabs (one for every retained point including the query,
// one for the resumable heap's rectangles) plus the slices over them.
// The k-slot, sorted, is the Records. With retain, the losing records, in
// the order the traversal met them, are T, and the losing nodes together
// with the search heap's remainder are heapified into the resumable heap.
// The sort and the heap are total orders, so the Records, and the order
// the heap pops in, do not depend on the order the traversal met things
// in; T's contents do not either, only its order. Without retain it copies
// out only the query and the k records, into one slab, and leaves T and
// Heap nil.
func (gs *GroupScratch) materialize(f score.General, q vec.Vector, d, k int, retain bool) *Result {
	nT := 0
	if retain { // a caller that builds no region reads neither T nor the heap
		nT = len(gs.tlist)
	}
	pts := make([]float64, (1+k+nT)*d)
	next := func() vec.Vector {
		v := vec.Vector(pts[:d])
		pts = pts[d:]
		return v
	}
	copyOut := func(dst []Record, its []item) {
		slices.SortFunc(its, order)
		for i, it := range its {
			p := next()
			copy(p, gs.arena[it.ref:it.ref+d])
			dst[i] = Record{ID: it.tie, Point: p, Score: it.key}
		}
	}

	res := &Result{K: k, Func: f, Query: next()}
	copy(res.Query, q)
	res.Records = make([]Record, k)
	copyOut(res.Records, gs.slot)
	if !retain {
		return res
	}
	if nT > 0 {
		res.T = make([]Record, nT)
		for i, it := range gs.tlist {
			p := next()
			copy(p, gs.arena[it.ref:it.ref+d])
			res.T[i] = Record{ID: it.tie, Point: p, Score: it.key}
		}
	}
	nodes := append(gs.hlist, gs.nodes...)
	gs.hlist = nodes
	hp := make(NodeHeap, len(nodes))
	rects := make([]float64, len(nodes)*2*d)
	for i, it := range nodes {
		lo, hi := vec.Vector(rects[:d]), vec.Vector(rects[d:2*d])
		rects = rects[2*d:]
		copy(lo, gs.arena[it.ref:it.ref+d])
		copy(hi, gs.arena[it.ref+d:it.ref+2*d])
		hp[i] = NodeItem{Key: it.key, Child: pager.PageID(it.tie), Rect: rtree.Rect{Lo: lo, Hi: hi}}
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
