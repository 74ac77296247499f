package topk

import (
	"github.com/girlib/gir/internal/pager"
	"github.com/girlib/gir/internal/rtree"
)

// This file holds the typed heaps of the hot path. Each inlines the classic
// sift-up/sift-down on a concrete element type instead of going through
// container/heap's interface{} API: no boxing allocation per push, no
// dynamic dispatch per comparison. Every heap orders its items totally —
// a key, then a unique tie-breaker — so what a heap pops next never
// depends on the order its items were pushed in or on where they sit in
// the backing array.

// NodeItem is a pending R-tree node in a search heap, keyed by the node's
// maxscore (the upper bound of any record's score beneath it).
type NodeItem struct {
	Key   float64
	Child pager.PageID
	Rect  rtree.Rect
}

// NodeHeap is a max-heap of NodeItems in the order (Key desc, Child asc).
// It is exported because the GIR algorithms (BBS skyline and FP
// refinement) continue popping the heap BRS leaves behind.
type NodeHeap []NodeItem

// Len returns the number of pending items.
func (h NodeHeap) Len() int { return len(h) }

func (h NodeHeap) less(i, j int) bool {
	return h[i].Key > h[j].Key || (h[i].Key == h[j].Key && h[i].Child < h[j].Child)
}

func (h NodeHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h NodeHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // right child
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// PushItem pushes with heap maintenance.
func (h *NodeHeap) PushItem(it NodeItem) {
	*h = append(*h, it)
	h.up(len(*h) - 1)
}

// PopItem pops the first item in (Key desc, Child asc) order.
func (h *NodeHeap) PopItem() NodeItem {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	it := old[n]
	*h = old[:n]
	return it
}

// Init establishes the heap invariant (after bulk construction).
func (h *NodeHeap) Init() {
	n := len(*h)
	for i := n/2 - 1; i >= 0; i-- {
		(*h).down(i, n)
	}
}

// item is a record or a node of the BRS traversal. Instead of owning
// vectors it holds an offset into the Scratch arena: a record's point
// occupies d floats at ref, a node's MBB occupies 2d floats (lo then hi).
// Offsets stay valid as the arena grows by append, which pointers into it
// would not. tie is the record's id, or the node's child page.
type item struct {
	key float64
	tie int64
	ref int
}

// ahead reports whether a ranks before b: the higher key first, and at an
// equal key the smaller tie-breaker. Records thus rank (score desc, id
// asc) and nodes (maxscore desc, page asc).
func ahead(a, b item) bool { return a.key > b.key || (a.key == b.key && a.tie < b.tie) }

// order is ahead as a three-way comparison, for sorting. (cmp.Or over two
// cmp.Compare calls makes a fill's sorts measurably slower.)
func order(a, b item) int {
	switch {
	case ahead(a, b):
		return -1
	case ahead(b, a):
		return 1
	}
	return 0
}

// nodeHeap is BRS's search heap: nodes only, the first in ahead order at
// the root.
type nodeHeap []item

func (h *nodeHeap) push(it item) {
	*h = append(*h, it)
	s := *h
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2
		if !ahead(s[j], s[i]) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *nodeHeap) pop() item {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && ahead(s[j+1], s[j]) {
			j++
		}
		if !ahead(s[j], s[i]) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s
	return top
}

// kslot holds the best k records met so far, the worst of them (last in
// ahead order) at the root, so a record that cannot rank costs one
// comparison.
type kslot []item

func (h *kslot) push(it item) {
	*h = append(*h, it)
	s := *h
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2
		if !ahead(s[i], s[j]) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

// replace puts it in the worst record's place and returns the record it
// evicted.
func (h kslot) replace(it item) item {
	out := h[0]
	h[0] = it
	n := len(h)
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && ahead(h[j], h[j+1]) {
			j++
		}
		if !ahead(h[i], h[j]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return out
}
