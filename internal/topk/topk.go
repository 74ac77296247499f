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
// Beyond the top-k result itself, BRS here retains the state the GIR
// algorithms need (Section 3.3 of the paper): the set T of non-result
// records encountered in visited leaves, and the search heap of index
// entries not yet expanded. Phase 2 (SP/CP via BBS, or FP's refinement
// step) resumes the traversal from that heap, so no page is ever read
// twice. What the tail keeps of it depends on the caller. RecordsGroup
// builds no region and keeps none of it. BRS, BRSGroup and BatchBRS keep
// all of it, T in the order the traversal met it, since a reader that
// needs the record order sorts only what it reads (SortRecords).
// ScreenedGroup is for a caller that builds an FP GIR: once the k-slot is
// final it builds the Phase-1 cone of the result and keeps only the
// records and nodes that can beat p_k somewhere in it (footnote 7), so
// FP's screen runs as the losers are copied out rather than after. The
// cone's Σw = 1 box drops most of them in one branch-free pass over T's
// columns and one corner test per node (geom.Cone.Screen, BoxMayBeat);
// only what it leaves undecided meets the rays, and the build takes T as
// screened.
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

	"github.com/girlib/gir/internal/geom"
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
	T       []Record // non-result records encountered by BRS, in traversal order, when retained (a screened tail's: those Cone keeps); a reader that needs the record order sorts what it reads
	Heap    *NodeHeap

	// Cone is the Phase-1 cone of the Records on the nonnegative orthant,
	// pinned to p_k, that ScreenedGroup's tail built; nil from every other
	// traversal. It is the group scratch's, so a region build takes it
	// over (and clears it) before the scratch is released. T and Heap hold
	// only what it lets beat p_k: DroppedT records and DroppedNodes nodes
	// were left out.
	Cone                   *geom.Cone
	DroppedT, DroppedNodes int
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
	return gs.runMember(tree, f, gs.one[:], k, 0, retainAll)
}

// tail is what a traversal keeps of the records and nodes that lost.
type tail int8

const (
	recordsOnly    tail = iota // nothing: the caller builds no region
	retainAll                  // T and the resumable heap, whole
	retainScreened             // what the Phase-1 cone lets beat p_k: the caller builds an FP GIR
)

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
// aside. The tail t only decides what happens to the losers: a
// records-only traversal drops them, a retaining one keeps the records as
// T and the nodes as the resumable heap, whole or screened (see
// materialize). The returned Result owns all of its memory but a screened
// tail's cone; the rest of the workspace is reused for the next member as
// soon as runMember returns.
func (gs *GroupScratch) runMember(tree *rtree.Tree, f score.General, qs []vec.Vector, k, m int, t tail) *Result {
	q, retain := qs[m], t != recordsOnly
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
	return gs.materialize(f, q, d, k, m, t)
}

// materialize deep-copies the search state into a freshly allocated
// Result: two slabs (one for every retained point including the query,
// one for the resumable heap's rectangles) plus the slices over them.
// The k-slot, sorted, is the Records. A retaining tail keeps the losing
// records, in the order the traversal met them, as T, and heapifies the
// losing nodes together with the search heap's remainder into the
// resumable heap; a screened tail first drops the ones member m's
// Phase-1 cone rules out (screen). The sort and the heap are total
// orders, so the Records, and the order the heap pops in, do not depend on
// the order the traversal met things in; T's contents do not either, only
// its order. A records-only tail copies out only the query and the k
// records, into one slab, and leaves T and Heap nil.
func (gs *GroupScratch) materialize(f score.General, q vec.Vector, d, k, m int, t tail) *Result {
	slices.SortFunc(gs.slot, order)
	res := &Result{K: k, Func: f}
	if t == retainScreened && score.IsLinear(f) {
		res.Cone = gs.phase1Cone(m, d)
		res.DroppedT, res.DroppedNodes = gs.screen(res.Cone, d)
	}
	nT := 0
	if t != recordsOnly { // a caller that builds no region reads neither T nor the heap
		nT = len(gs.tlist)
	}
	pts := make([]float64, (1+k+nT)*d)
	copyOut := func(dst []Record, its []item) {
		for i, it := range its {
			p := vec.Vector(pts[:d])
			pts = pts[d:]
			copy(p, gs.arena[it.ref:it.ref+d])
			dst[i] = Record{ID: it.tie, Point: p, Score: it.key}
		}
	}

	res.Query, pts = pts[:d], pts[d:]
	copy(res.Query, q)
	res.Records = make([]Record, k)
	copyOut(res.Records, gs.slot)
	if t == recordsOnly {
		return res
	}
	if nT > 0 {
		res.T = make([]Record, nT)
		copyOut(res.T, gs.tlist)
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

// phase1Cone resets member m's cone on the Phase-1 rows of the sorted
// k-slot, p_i − p_{i+1}, pinned to p_k: the rows and the anchor a GIR build
// derives from the Records, bit for bit, so the build can continue the
// cone rather than reset it again.
func (gs *GroupScratch) phase1Cone(m, d int) *geom.Cone {
	for len(gs.cones) <= m {
		gs.cones = append(gs.cones, new(geom.Cone))
	}
	k := len(gs.slot)
	gs.diffs, gs.prows = vec.Grown(gs.diffs, (k-1)*d), gs.prows[:0]
	for i := 0; i+1 < k; i++ {
		a, b, row := gs.arena[gs.slot[i].ref:], gs.arena[gs.slot[i+1].ref:], gs.diffs[i*d:(i+1)*d]
		for j := range row {
			row[j] = a[j] - b[j]
		}
		gs.prows = append(gs.prows, row)
	}
	apex := gs.slot[k-1].ref
	c := gs.cones[m]
	c.Reset(d, gs.prows, gs.arena[apex:apex+d])
	return c
}

// screen is footnote 7 in the tail: it keeps in the loser lists only the
// records cone lets beat p_k, screened as one column-major block in the
// order they were met (the block a GIR build's own screen of T would
// read), and the nodes whose boxes may, and reports how many of each it
// dropped. The nodes left on the search heap join the losing ones.
func (gs *GroupScratch) screen(c *geom.Cone, d int) (recs, nodes int) {
	n := len(gs.tlist)
	gs.tbuf, gs.tcols, gs.keep = vec.Grown(gs.tbuf, n*d), vec.Grown(gs.tcols, d), vec.Grown(gs.keep, n)
	for j := range gs.tcols {
		gs.tcols[j] = gs.tbuf[j*n : (j+1)*n]
	}
	for i, it := range gs.tlist {
		for j, x := range gs.arena[it.ref : it.ref+d] {
			gs.tcols[j][i] = x
		}
	}
	c.Screen(gs.keep, gs.tcols)
	kept := gs.tlist[:0]
	for i, it := range gs.tlist {
		if gs.keep[i] {
			kept = append(kept, it)
		}
	}
	recs, gs.tlist = n-len(kept), kept

	all := append(gs.hlist, gs.nodes...)
	box := all[:0]
	for _, it := range all {
		if c.BoxMayBeat(gs.arena[it.ref+d : it.ref+2*d]) {
			box = append(box, it)
		}
	}
	gs.hlist, gs.nodes = box, gs.nodes[:0]
	return recs, len(all) - len(box)
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
