// Package rtree implements the R*-tree of Beckmann et al. (SIGMOD 1990),
// the spatial access method the paper assumes over the dataset: dynamic
// insertion with choose-subtree, R* topological splits and forced
// reinsertion, deletion with tree condensation, and STR bulk loading for
// building large indexes quickly.
//
// Nodes are serialized into 4 KiB pages of a pager.Store, so every node
// visit is a counted, simulated disk read. Query algorithms (BRS top-k, BBS
// skyline, FP refinement) live in their own packages and drive the
// traversal themselves through Root/ReadBlock.
package rtree

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/girlib/gir/internal/pager"
	"github.com/girlib/gir/internal/vec"
)

// Rect is an axis-aligned box (the MBB of a subtree or a degenerate
// point box for data entries).
type Rect struct {
	Lo, Hi vec.Vector
}

// PointRect returns the degenerate rectangle covering exactly p.
func PointRect(p vec.Vector) Rect { return Rect{Lo: p, Hi: p} }

// EmptyRect returns a rectangle that is the identity for Enlarge.
func EmptyRect(d int) Rect {
	lo, hi := make(vec.Vector, d), make(vec.Vector, d)
	for i := range lo {
		lo[i], hi[i] = math.Inf(1), math.Inf(-1)
	}
	return Rect{Lo: lo, Hi: hi}
}

// Intersects reports whether r and s overlap (inclusive).
func (r Rect) Intersects(s Rect) bool {
	for i := range r.Lo {
		if r.Lo[i] > s.Hi[i] || s.Lo[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// ExpandInPlace grows r to cover s.
func (r *Rect) ExpandInPlace(s Rect) {
	for i := range r.Lo {
		if s.Lo[i] < r.Lo[i] {
			r.Lo[i] = s.Lo[i]
		}
		if s.Hi[i] > r.Hi[i] {
			r.Hi[i] = s.Hi[i]
		}
	}
}

// Area returns the volume of r.
func (r Rect) Area() float64 {
	a := 1.0
	for i := range r.Lo {
		a *= r.Hi[i] - r.Lo[i]
	}
	return a
}

// Margin returns the sum of edge lengths (the R* split criterion).
func (r Rect) Margin() float64 {
	var m float64
	for i := range r.Lo {
		m += r.Hi[i] - r.Lo[i]
	}
	return m
}

// OverlapArea returns the volume of the intersection of r and s.
func (r Rect) OverlapArea(s Rect) float64 {
	a := 1.0
	for i := range r.Lo {
		lo := math.Max(r.Lo[i], s.Lo[i])
		hi := math.Min(r.Hi[i], s.Hi[i])
		if hi <= lo {
			return 0
		}
		a *= hi - lo
	}
	return a
}

// Center returns the centre point of r.
func (r Rect) Center() vec.Vector {
	c := make(vec.Vector, len(r.Lo))
	for i := range c {
		c[i] = (r.Lo[i] + r.Hi[i]) / 2
	}
	return c
}

// Entry is a slot in a node: an MBB plus either a child pointer (internal)
// or a record (leaf).
type Entry struct {
	Rect  Rect
	Child pager.PageID // internal nodes only
	RecID int64        // leaf nodes only
}

// Point returns the record coordinates of a leaf entry.
func (e Entry) Point() vec.Vector { return e.Rect.Lo }

// Node is a deserialized page.
type Node struct {
	ID      pager.PageID
	Leaf    bool
	Entries []Entry
}

// MBB returns the bounding box of the node's entries.
func (n *Node) MBB(d int) Rect {
	r := EmptyRect(d)
	for _, e := range n.Entries {
		r.ExpandInPlace(e.Rect)
	}
	return r
}

// Tree is an R*-tree over a pager.Store.
type Tree struct {
	store  pager.Store
	dim    int
	root   pager.PageID
	height int // 1 = the root is a leaf
	size   int

	maxLeaf, minLeaf int
	maxInt, minInt   int

	// cow, when non-nil, makes writeNode relocate instead of overwrite
	// (see cow.go). Nil outside BeginCOW/CommitCOW: mutations then write
	// pages in place exactly as the original tree did.
	cow *cowState

	// Writer scratch: chooseSubtree's enlarged box and writeNode's page
	// buffer (the store copies what it is given).
	enlarged Rect
	wbuf     []byte
}

const nodeHeader = 4 // leaf flag (1) + entry count (2) + pad (1)

// Capacities derive from the 4 KiB page size:
// leaf entry    = recID (8) + d·8 bytes,
// internal entry = child (4) + 2d·8 bytes.
// Leaf pages store their entries column-major (all recIDs, then all
// coordinates of dimension 0, then dimension 1, …) so a scoring kernel can
// run over each dimension's contiguous float64 block; the per-entry byte
// budget — and hence the fan-out — is unchanged.
func capacities(d int) (maxLeaf, maxInt int) {
	maxLeaf = (pager.PageSize - nodeHeader) / (8 + 8*d)
	maxInt = (pager.PageSize - nodeHeader) / (4 + 16*d)
	return maxLeaf, maxInt
}

// New creates an empty R*-tree of the given dimensionality over the store.
func New(store pager.Store, dim int) *Tree {
	if dim < 1 {
		panic("rtree: dimension must be ≥ 1")
	}
	maxLeaf, maxInt := capacities(dim)
	t := &Tree{
		store: store, dim: dim,
		maxLeaf: maxLeaf, minLeaf: max(2, maxLeaf*2/5),
		maxInt: maxInt, minInt: max(2, maxInt*2/5),
	}
	root := &Node{ID: t.allocPage(), Leaf: true}
	t.root = root.ID
	t.height = 1
	t.writeNode(root)
	return t
}

// Attach reconstructs a Tree handle over an existing store (a loaded
// snapshot, with any delta segments applied) from its persisted metadata,
// without touching any page.
func Attach(store pager.Store, dim int, root pager.PageID, height, size int) *Tree {
	maxLeaf, maxInt := capacities(dim)
	return &Tree{
		store: store, dim: dim,
		root: root, height: height, size: size,
		maxLeaf: maxLeaf, minLeaf: max(2, maxLeaf*2/5),
		maxInt: maxInt, minInt: max(2, maxInt*2/5),
	}
}

// Meta returns the metadata needed to Attach to this tree's store later:
// the root page, height and record count (with Dim()).
func (t *Tree) Meta() (root pager.PageID, height, size int) {
	return t.root, t.height, t.size
}

// Dim returns the data dimensionality.
func (t *Tree) Dim() int { return t.dim }

// Len returns the number of records in the tree.
func (t *Tree) Len() int { return t.size }

// Height returns the tree height (1 = the root is a leaf).
func (t *Tree) Height() int { return t.height }

// Root returns the root page id.
func (t *Tree) Root() pager.PageID { return t.root }

// Store exposes the underlying page store (for I/O statistics).
func (t *Tree) Store() pager.Store { return t.store }

// ReadNode fetches and decodes a node page (a counted disk read) for the
// write path (readers use ReadBlock). Inside a copy-on-write mutation the
// id is resolved through the relocation remap, so the mutation reads its
// own writes; the returned node's ID is the resolved page.
func (t *Tree) ReadNode(id pager.PageID) *Node {
	id = t.resolveID(id)
	return t.decode(id, t.store.Read(id))
}

// MaxLeafEntries returns the leaf fan-out (useful to size experiments).
func (t *Tree) MaxLeafEntries() int { return t.maxLeaf }

// MaxInternalEntries returns the internal fan-out.
func (t *Tree) MaxInternalEntries() int { return t.maxInt }

// --- serialization ----------------------------------------------------------

func (t *Tree) writeNode(n *Node) {
	capEntries := t.maxInt
	if n.Leaf {
		capEntries = t.maxLeaf
	}
	if len(n.Entries) > capEntries {
		panic(fmt.Sprintf("rtree: node %d overflow: %d entries > cap %d", n.ID, len(n.Entries), capEntries))
	}
	// Under copy-on-write, the first write to an existing page relocates
	// it: the old page keeps the previous version's bytes, and the remap
	// entry makes this mutation's later reads — and, below, the re-encoded
	// child pointers of every ancestor the R* algorithms rewrite on the
	// same pass — land on the fresh copy. Relying on that full-path
	// rewrite is what makes page-granular shadowing sound: a node is only
	// ever relocated when its parent is rewritten in the same mutation.
	if t.cow != nil {
		if _, fresh := t.cow.fresh[n.ID]; !fresh {
			old := n.ID
			n.ID = t.allocPage()
			t.cow.remap[old] = n.ID
			t.cow.freed = append(t.cow.freed, old)
		}
	}
	buf := t.wbuf[:0]
	if buf == nil {
		buf = make([]byte, 0, pager.PageSize)
	}
	var flag byte
	if n.Leaf {
		flag = 1
	}
	buf = append(buf, flag)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(n.Entries)))
	buf = append(buf, 0)
	if n.Leaf {
		for _, e := range n.Entries {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(e.RecID))
		}
		for j := 0; j < t.dim; j++ {
			for _, e := range n.Entries {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Rect.Lo[j]))
			}
		}
	} else {
		for _, e := range n.Entries {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(t.resolveID(e.Child)))
			for i := 0; i < t.dim; i++ {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Rect.Lo[i]))
			}
			for i := 0; i < t.dim; i++ {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Rect.Hi[i]))
			}
		}
	}
	t.store.Write(n.ID, buf)
	t.wbuf = buf
}

// decode parses a page into a Node whose coordinates all live in one
// []float64 slab: each entry's Lo and Hi are capped sub-slices of it (a leaf
// entry's Lo is its Hi), so an append can never spill into a neighbour.
// Nothing writes into decoded coordinates — the R* algorithms replace an
// entry's Rect rather than edit it, and ExpandInPlace only grows the fresh
// EmptyRect of MBB — and that must stay so, or entries would corrupt each
// other.
func (t *Tree) decode(id pager.PageID, buf []byte) *Node {
	n := &Node{ID: id, Leaf: buf[0] == 1}
	count := int(binary.LittleEndian.Uint16(buf[1:3]))
	d := t.dim
	off := nodeHeader
	n.Entries = make([]Entry, count, count+1) // room for the entry an insert adds
	if n.Leaf {
		slab := make([]float64, count*d)
		for i := range n.Entries {
			p := slab[i*d : (i+1)*d : (i+1)*d]
			n.Entries[i] = Entry{Rect: PointRect(p), RecID: int64(binary.LittleEndian.Uint64(buf[off:]))}
			off += 8
		}
		for j := 0; j < d; j++ {
			for i := 0; i < count; i++ {
				slab[i*d+j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
				off += 8
			}
		}
		return n
	}
	slab := make([]float64, 2*count*d)
	for i := range n.Entries {
		child := pager.PageID(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		box := slab[2*i*d : 2*(i+1)*d : 2*(i+1)*d]
		for k := range box {
			box[k] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		}
		n.Entries[i] = Entry{Rect: Rect{Lo: box[:d:d], Hi: box[d:]}, Child: child}
	}
	return n
}

// NodeBlock is a reusable decoded view of one node page, the zero-copy
// counterpart of Node for hot traversal loops. A leaf block exposes its
// records column-major — Cols[j][i] is coordinate j of record i, each
// Cols[j] a contiguous float64 slice — which is what lets a linear scorer
// process a whole leaf with branch-free dot-product accumulation. An
// internal block exposes children plus flattened MBBs (entry i's box is
// Lo[i*d:(i+1)*d], Hi[i*d:(i+1)*d]).
//
// All slices alias buffers owned by the block and are overwritten by the
// next ReadBlock into it; callers that retain coordinates must copy them.
type NodeBlock struct {
	ID    pager.PageID
	Leaf  bool
	Count int

	// Leaf view.
	RecIDs []int64
	Cols   [][]float64

	// Internal view.
	Children []pager.PageID
	Lo, Hi   []float64 // Count×d, row-major per entry

	idbuf  []int64
	colbuf []float64 // backing for Cols (d contiguous columns)
	chbuf  []pager.PageID
	lobuf  []float64
	hibuf  []float64
}

// ReadBlock fetches a node page (a counted disk read) and decodes it into
// blk, reusing blk's buffers across calls. It returns blk.
func (t *Tree) ReadBlock(id pager.PageID, blk *NodeBlock) *NodeBlock {
	id = t.resolveID(id)
	buf := t.store.Read(id)
	d := t.dim
	blk.ID = id
	blk.Leaf = buf[0] == 1
	count := int(binary.LittleEndian.Uint16(buf[1:3]))
	blk.Count = count
	off := nodeHeader
	if blk.Leaf {
		blk.Children, blk.Lo, blk.Hi = nil, nil, nil
		if cap(blk.idbuf) < count {
			blk.idbuf = make([]int64, count)
		}
		if cap(blk.colbuf) < count*d {
			blk.colbuf = make([]float64, count*d)
		}
		if cap(blk.Cols) < d {
			blk.Cols = make([][]float64, d)
		}
		blk.RecIDs = blk.idbuf[:count]
		blk.Cols = blk.Cols[:d]
		for i := 0; i < count; i++ {
			blk.RecIDs[i] = int64(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		}
		// The d columns lie back to back on the page: decode them as one
		// run of count·d words, then cut it into columns.
		words := blk.colbuf[:count*d]
		for k := range words {
			words[k] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off+8*k:]))
		}
		for j := range blk.Cols {
			blk.Cols[j] = words[j*count : (j+1)*count]
		}
		return blk
	}
	blk.RecIDs, blk.Cols = nil, blk.Cols[:0] // the d column headers are a buffer too: the next leaf reslices them
	if cap(blk.chbuf) < count {
		blk.chbuf = make([]pager.PageID, count)
	}
	if cap(blk.lobuf) < count*d {
		blk.lobuf = make([]float64, count*d)
		blk.hibuf = make([]float64, count*d)
	}
	blk.Children = blk.chbuf[:count]
	blk.Lo = blk.lobuf[:count*d]
	blk.Hi = blk.hibuf[:count*d]
	for i := 0; i < count; i++ {
		blk.Children[i] = pager.PageID(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		for j := 0; j < d; j++ {
			blk.Lo[i*d+j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		}
		for j := 0; j < d; j++ {
			blk.Hi[i*d+j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		}
	}
	return blk
}

// BlockCache memoizes decoded node pages for one fused multi-query
// traversal: the first visit to a page decodes it (one counted read) into
// a slot the cache retains, and every later visit — by the same or
// another query of the group — returns the retained block without
// touching the store. Slots and their buffers are reused across Reset, so
// a pooled cache stops allocating once its working set stabilizes.
//
// A cache is only valid against one tree state: pages are keyed by id and
// a mutation may rewrite a page id's contents, so callers must Reset
// between groups and never share a cache across snapshots.
type BlockCache struct {
	idx    map[pager.PageID]int
	blocks []*NodeBlock
	n      int // slots in use; blocks[n:] are retained spares
}

// Reset forgets every cached page, keeping slot capacity for reuse.
func (c *BlockCache) Reset() {
	clear(c.idx)
	c.n = 0
}

// Len returns the number of distinct pages currently cached.
func (c *BlockCache) Len() int { return c.n }

// ReadBlockCached returns the decoded block for id through the cache:
// cached=false means this call decoded the page (one counted store read),
// cached=true that a previous call within the same cache generation
// already had. slot identifies the page's cache slot, stable until Reset —
// callers key per-page side state (a fused group's precomputed score rows)
// by it.
func (t *Tree) ReadBlockCached(id pager.PageID, c *BlockCache) (blk *NodeBlock, cached bool, slot int) {
	id = t.resolveID(id)
	if c.idx == nil {
		c.idx = make(map[pager.PageID]int)
	}
	if s, ok := c.idx[id]; ok {
		return c.blocks[s], true, s
	}
	if c.n == len(c.blocks) {
		c.blocks = append(c.blocks, &NodeBlock{})
	}
	s := c.n
	c.n++
	c.idx[id] = s
	return t.ReadBlock(id, c.blocks[s]), false, s
}

// CachedBlock returns the block an earlier ReadBlockCached retained for
// id, and its slot, without touching the store; ok is false when the page
// is not in the cache. It is the read of a traversal that nobody follows:
// what it has to decode itself it need not retain.
func (t *Tree) CachedBlock(id pager.PageID, c *BlockCache) (blk *NodeBlock, slot int, ok bool) {
	s, ok := c.idx[t.resolveID(id)]
	if !ok {
		return nil, -1, false
	}
	return c.blocks[s], s, true
}

// Point gathers record i of a leaf block into dst (len ≥ d) and returns
// dst[:d].
func (b *NodeBlock) Point(i int, dst []float64) []float64 {
	dst = dst[:len(b.Cols)]
	for j, col := range b.Cols {
		dst[j] = col[i]
	}
	return dst
}
