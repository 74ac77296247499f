package topk

import (
	"sync"

	"github.com/girlib/gir/internal/geom"
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/vec"
)

// GroupScratch is the pooled workspace of one BRS group traversal — a
// fused group of many queries or a solo query, which is a group of one.
// It holds the member workspace (the search heap, the k-slot, the loser
// lists, the float64 arena behind their items, the per-leaf scoring
// buffers), reused serially across members, plus what a group shares: the
// block-decode cache and the per-page precomputed score rows the
// multi-query kernel fills at first decode. One traversal touches no other
// transient memory, so a recycled GroupScratch makes the cold path O(1)
// amortized allocations.
//
// Ownership rule: everything inside a GroupScratch is private to the BRS,
// BRSGroup, RecordsGroup or ScreenedGroup call using it. Whatever outlives
// the call (the query, Records and — retained only for a caller that
// builds a region — T and the resumable heap) is deep-copied into freshly
// allocated slabs before the call returns, so a Result — and any cache
// entry built from it — never aliases pooled memory. The one exception is
// a ScreenedGroup Result's Phase-1 cone, which is the scratch's until a
// region build takes it over. Release only after the call that used the
// scratch has returned and, after ScreenedGroup, after every member's
// region build.
type GroupScratch struct {
	nodes  nodeHeap  // the search heap: nodes still to expand
	slot   kslot     // the best k records met so far
	tlist  []item    // retaining tail: the records that lost, unsorted (T)
	hlist  []item    // retaining tail: the nodes below the bound (the resumable heap)
	arena  []float64 // backing store for item points / rects
	point  []float64 // gather buffer for per-record scoring
	scores []float64 // per-leaf bulk scoring buffer

	// The screened tail: per member, the Phase-1 cone a region build takes
	// over; the cone's rows; and T's points, column-major, with the
	// screen's verdicts.
	cones []*geom.Cone
	diffs []float64
	prows []vec.Vector
	tbuf  []float64
	tcols [][]float64
	keep  []bool

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
	if cap(gs.nodes) < est {
		gs.nodes = make(nodeHeap, 0, est)
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
// by BRS, BRSGroup and RecordsGroup stay valid (they own their memory).
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
	gs.nodes = gs.nodes[:0]
	gs.slot = gs.slot[:0]
	gs.tlist = gs.tlist[:0]
	gs.hlist = gs.hlist[:0]
	gs.arena = gs.arena[:0]
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
