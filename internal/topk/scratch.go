package topk

import (
	"sync"

	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/vec"
)

// GroupScratch is the pooled workspace of one BRS group traversal — a
// fused group of many queries or a solo query, which is a group of one.
// It holds the member workspace (the search heap, the float64 arena
// behind its items, the per-leaf scoring buffers), reused serially
// across members, plus what a group shares: the block-decode cache and
// the per-page precomputed score rows the multi-query kernel fills at
// first decode. One traversal touches no other transient memory, so a
// recycled GroupScratch makes the cold path O(1) amortized allocations.
//
// Ownership rule: everything inside a GroupScratch is private to the BRS
// or BRSGroup call using it. Whatever outlives the call (Records, T, the
// resumable heap, the query) is deep-copied into freshly allocated slabs
// before the call returns, so a Result — and any cache entry built from
// it — never aliases pooled memory. Release only after the call that
// used the scratch has returned.
type GroupScratch struct {
	heap   brsHeap
	arena  []float64 // backing store for heap item points / rects
	top    []brsItem // the popped top-k, in pop order
	tkeys  []tKey    // materialize: T's records, sorted before they are copied out
	point  []float64 // gather buffer for per-record scoring
	scores []float64 // per-leaf bulk scoring buffer

	// cache retains every page a member decodes for the members still to
	// run. The group's last member — a solo query is its own last member —
	// has nobody to retain for, and a traversal never revisits a page, so
	// it decodes into the one reusable blk instead.
	cache rtree.BlockCache
	blk   rtree.NodeBlock

	// Per cache-slot side state: rows[slot] holds the leaf's score rows
	// for members first[slot].. (member-major, blk.Count floats each);
	// first[slot] < 0 means the slot has no precomputed rows (internal
	// node or non-bulk scorer).
	rows  [][]float64
	first []int
	views [][]float64 // reusable row views handed to the kernel

	one   [1]vec.Vector // BRS's one-member query list, so a solo call allocates none
	stats GroupStats
}

// tKey is one record of T as materialize sorts it: its score, id and arena
// offset, with no pointer for the sort to move.
type tKey struct {
	score float64
	id    int64
	ref   int
}

var groupScratchPool = sync.Pool{New: func() interface{} { return new(GroupScratch) }}

// AcquireGroupScratch returns a traversal workspace sized for queries
// over tree. Reused scratches keep their grown capacity; fresh ones are
// pre-sized from the tree's fan-out and height so the first query does
// not grow them either. Release it when the group's results have been
// materialized.
func AcquireGroupScratch(tree *rtree.Tree) *GroupScratch {
	gs := groupScratchPool.Get().(*GroupScratch)
	d := tree.Dim()
	// A BRS frontier holds at most one expanded node's entries per level
	// plus the not-yet-popped remainder; fan-out × (height+1) is a
	// comfortable over-estimate for the common k ≪ n case.
	est := (tree.MaxLeafEntries() + tree.MaxInternalEntries()) * (tree.Height() + 1)
	if cap(gs.heap) < est {
		gs.heap = make(brsHeap, 0, est)
	}
	if cap(gs.arena) < est*2*d {
		gs.arena = make([]float64, 0, est*2*d)
	}
	if cap(gs.point) < d {
		gs.point = make([]float64, d)
	}
	if cap(gs.scores) < tree.MaxLeafEntries() {
		gs.scores = make([]float64, tree.MaxLeafEntries())
	}
	return gs
}

// Release returns the workspace to the pool. The caller must not touch it
// — or anything still aliasing its buffers — afterwards; Results returned
// by BRS and BRSGroup stay valid (they own their memory).
func (gs *GroupScratch) Release() {
	gs.one[0] = nil
	groupScratchPool.Put(gs)
}

// begin starts a new group on the workspace: a decode cache is only valid
// against one tree state, so nothing carries over from the last group.
func (gs *GroupScratch) begin() {
	gs.cache.Reset()
	gs.stats = GroupStats{}
}

// reset clears the member workspace for the group's next member.
func (gs *GroupScratch) reset() {
	gs.heap = gs.heap[:0]
	gs.arena = gs.arena[:0]
	gs.top = gs.top[:0]
}

// putPoint copies record i of a leaf block into the arena, returning its
// offset.
func (gs *GroupScratch) putPoint(blk *rtree.NodeBlock, i int) int {
	ref := len(gs.arena)
	for _, col := range blk.Cols {
		gs.arena = append(gs.arena, col[i])
	}
	return ref
}

// putRect copies a node's lo and hi corners into the arena, returning the
// offset of lo (hi follows at ref+d).
func (gs *GroupScratch) putRect(lo, hi []float64) int {
	ref := len(gs.arena)
	gs.arena = append(gs.arena, lo...)
	gs.arena = append(gs.arena, hi...)
	return ref
}
