package rtree

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/girlib/gir/internal/pager"
	"github.com/girlib/gir/internal/vec"
)

// reinsertFraction is the share of entries evicted on the first overflow of
// a level, per the R* paper's recommendation (p = 30%).
const reinsertFraction = 0.3

// Insert adds a record to the tree using the R* insertion algorithm
// (choose-subtree, forced reinsertion, topological split).
func (t *Tree) Insert(id int64, p vec.Vector) {
	if len(p) != t.dim {
		panic(fmt.Sprintf("rtree: inserting %d-dimensional point into %d-dimensional tree", len(p), t.dim))
	}
	var ctx insertCtx
	t.insertAtLevel(Entry{Rect: PointRect(p), RecID: id}, 0, &ctx)
	t.size++
}

// insertCtx tracks which levels have already used forced reinsertion during
// one logical insert, so each level reinserts at most once (R* "overflow
// treatment"): bit l is level l.
type insertCtx struct {
	reinserted uint64
}

// pathStep records one descent step: the parsed node and the index of the
// child entry taken.
type pathStep struct {
	node *Node
	slot int
}

// orphan is an entry a write's walk took out of the tree, to be reinserted
// at its level.
type orphan struct {
	e     Entry
	level int
}

// insertAtLevel places the entry into a node at the given level
// (0 = leaf level), chosen by chooseSubtree, and walks back up the path.
func (t *Tree) insertAtLevel(e Entry, level int, ctx *insertCtx) {
	var path []pathStep
	cur := t.readNode(t.root)
	for curLevel := t.height - 1; curLevel > level; curLevel-- {
		slot := t.chooseSubtree(cur, e.Rect, curLevel == level+1)
		path = append(path, pathStep{cur, slot})
		cur = t.readNode(cur.Entries[slot].Child)
	}
	cur.Entries = append(cur.Entries, e)
	t.ascend(path, cur, level, false, ctx)
}

// ascend is every write's one walk back up: node, at the given level, has
// just gained or lost an entry, and path holds the nodes above it, root
// first, with the slot taken in each. Level by level, an overfull node
// evicts entries for forced reinsertion (once per level per logical
// insert, ctx) or splits and carries its sibling up; with condense, an
// underfull non-root node is dissolved; every other node is written once
// and its parent entry's box refreshed at the recorded slot. Then the root
// grows or sheds single-child levels, and the evicted and dissolved
// entries are reinserted at their levels.
//
// Only a delete's walk condenses (R*'s condense-tree): bulk loading packs
// some nodes below the minimum fill, and an insert's walk that dissolved
// them would rebuild whole subtrees to place one record.
func (t *Tree) ascend(path []pathStep, node *Node, level int, condense bool, ctx *insertCtx) {
	var orphans []orphan
	var sibling *Entry
	for lvl := level; ; lvl++ {
		isRoot := len(path) == 0
		sibling = nil
		switch {
		case len(node.Entries) > t.capOf(node):
			if bit := uint64(1) << lvl; !isRoot && ctx.reinserted&bit == 0 {
				ctx.reinserted |= bit
				orphans = t.forcedReinsertSet(node, lvl, orphans)
			} else {
				s := t.split(node)
				sibling = &Entry{Rect: s.MBB(t.dim), Child: s.ID}
			}
		case condense && !isRoot && len(node.Entries) < t.minOf(node):
			for _, e := range node.Entries {
				orphans = append(orphans, orphan{e, lvl})
			}
			t.retirePage(node.ID)
			parent := path[len(path)-1]
			path = path[:len(path)-1]
			parent.node.Entries = append(parent.node.Entries[:parent.slot], parent.node.Entries[parent.slot+1:]...)
			node = parent.node
			continue
		}
		t.writeNode(node)
		if isRoot {
			break
		}
		parent := path[len(path)-1]
		path = path[:len(path)-1]
		parent.node.Entries[parent.slot].Rect = node.MBB(t.dim)
		if sibling != nil {
			parent.node.Entries = append(parent.node.Entries, *sibling)
		}
		node = parent.node
	}

	// node is the root just written. It grows over a split sibling, or
	// sheds the levels where it has one child: the first test is on the
	// root the walk holds, and a promoted child is read from its page.
	if sibling != nil {
		t.growRoot(node, *sibling)
	} else {
		for root := node; t.height > 1 && len(root.Entries) == 1; {
			t.retirePage(root.ID)
			t.root = t.resolveID(root.Entries[0].Child)
			if t.height--; t.height > 1 {
				root = t.readNode(t.root)
			}
		}
	}
	for _, o := range orphans {
		t.insertAtLevel(o.e, o.level, ctx)
	}
}

// capOf returns the node's capacity.
func (t *Tree) capOf(n *Node) int {
	if n.Leaf {
		return t.maxLeaf
	}
	return t.maxInt
}

// minOf returns the node's minimum fill.
func (t *Tree) minOf(n *Node) int {
	if n.Leaf {
		return t.minLeaf
	}
	return t.minInt
}

// growRoot replaces the root with a new internal node over the old root and
// its split sibling.
func (t *Tree) growRoot(oldRoot *Node, sibling Entry) {
	newRoot := &Node{ID: t.allocPage(), Leaf: false}
	newRoot.Entries = []Entry{
		{Rect: oldRoot.MBB(t.dim), Child: oldRoot.ID},
		sibling,
	}
	t.writeNode(newRoot)
	t.root = newRoot.ID
	t.height++
}

// chooseSubtree implements the R* descent rule: minimum overlap enlargement
// when the children are leaves, minimum area enlargement otherwise, ties
// broken by the smaller area and then the first child.
//
// One O(fan-out·d) pass finds the child with the least (area enlargement,
// area, index), which is the answer above the leaves. Over leaves it is
// also the answer when its overlap increment is exactly 0 — r lies inside
// it, or growing it to cover r adds no overlap with its siblings — because
// no child's increment is below 0 and it wins every tie; only otherwise
// does the full rule run.
//
// That rule's overlap sum skips only terms that are exactly 0, and stops
// only once it cannot win, so it picks the child the full O(fan-out²) sum
// picks (for finite coordinates). When r already lies inside a child, its
// enlarged box is the child's and every term is 0. A sibling disjoint from
// the enlarged box overlaps neither it nor the child inside it. And no
// term is negative, even after rounding: each interval of enlarged ∩ o
// contains the one of child ∩ o, and rounding is monotone in the
// differences and the products, so the partial sum never falls and a
// candidate past the best has lost.
func (t *Tree) chooseSubtree(n *Node, r Rect, childrenAreLeaves bool) int {
	if t.enlarged.Lo == nil {
		t.enlarged = Rect{Lo: make(vec.Vector, t.dim), Hi: make(vec.Vector, t.dim)}
	}
	enlarged := t.enlarged
	best, bestAreaInc, bestArea, bestGrew := -1, 0.0, 0.0, false
	for i, e := range n.Entries {
		grew := enlargeInto(enlarged, e.Rect, r)
		area := e.Rect.Area()
		areaInc := enlarged.Area() - area
		if best < 0 || areaInc < bestAreaInc || areaInc == bestAreaInc && area < bestArea {
			best, bestAreaInc, bestArea, bestGrew = i, areaInc, area, grew
		}
	}
	if !childrenAreLeaves || !bestGrew {
		return best
	}
	enlargeInto(enlarged, n.Entries[best].Rect, r)
	if overlapInc(n, best, enlarged, 0) == 0 {
		return best
	}

	best, bestOverlapInc := -1, math.Inf(1)
	for i, e := range n.Entries {
		grew := enlargeInto(enlarged, e.Rect, r)
		area := e.Rect.Area()
		areaInc := enlarged.Area() - area
		inc := 0.0
		if grew {
			inc = overlapInc(n, i, enlarged, bestOverlapInc)
		}
		better := false
		switch {
		case best < 0:
			better = true
		case inc != bestOverlapInc:
			better = inc < bestOverlapInc
		case areaInc != bestAreaInc:
			better = areaInc < bestAreaInc
		default:
			better = area < bestArea
		}
		if better {
			best, bestOverlapInc, bestAreaInc, bestArea = i, inc, areaInc, area
		}
	}
	return best
}

// enlargeInto sets dst to the smallest box covering c and r and reports
// whether it is larger than c.
func enlargeInto(dst, c, r Rect) (grew bool) {
	for k := range dst.Lo {
		lo, hi := c.Lo[k], c.Hi[k]
		if r.Lo[k] < lo {
			lo, grew = r.Lo[k], true
		}
		if r.Hi[k] > hi {
			hi, grew = r.Hi[k], true
		}
		dst.Lo[k], dst.Hi[k] = lo, hi
	}
	return grew
}

// overlapInc sums, over n's children but i, the overlap that growing child
// i to enlarged adds, and stops once the sum passes bound.
func overlapInc(n *Node, i int, enlarged Rect, bound float64) float64 {
	c, inc := n.Entries[i].Rect, 0.0
	for j, o := range n.Entries {
		if j == i || !enlarged.Intersects(o.Rect) {
			continue
		}
		inc += enlarged.OverlapArea(o.Rect) - c.OverlapArea(o.Rect)
		if inc > bound {
			break
		}
	}
	return inc
}

// forcedReinsertSet removes the p⌈·⌉ entries whose centres are farthest
// from the node's MBB centre and appends them to out, as orphans of the
// node's level, in increasing distance order ("close reinsert"), mutating
// the node in place.
func (t *Tree) forcedReinsertSet(n *Node, level int, out []orphan) []orphan {
	p := int(reinsertFraction * float64(len(n.Entries)))
	if p < 1 {
		p = 1
	}
	center := n.MBB(t.dim).Center()
	type distEntry struct {
		dist float64
		e    Entry
	}
	des := make([]distEntry, len(n.Entries))
	for i, e := range n.Entries {
		des[i] = distEntry{vec.Dist(e.Rect.Center(), center), e}
	}
	sort.Slice(des, func(i, j int) bool { return des[i].dist < des[j].dist })
	keep := des[:len(des)-p]
	evict := des[len(des)-p:]
	n.Entries = n.Entries[:0]
	for _, de := range keep {
		n.Entries = append(n.Entries, de.e)
	}
	out = slices.Grow(out, p)
	for _, de := range evict {
		out = append(out, orphan{de.e, level})
	}
	return out
}

// split performs the R* topological split, mutating n to hold the first
// group and returning a freshly allocated sibling with the second group.
func (t *Tree) split(n *Node) *Node {
	entries := n.Entries
	m := t.minOf(n)
	d := t.dim
	nE := len(entries)

	type distribution struct {
		axis, k int
		byLo    bool
		marginS float64
		overlap float64
		areaSum float64
	}
	best := distribution{marginS: math.Inf(1)} // the first candidate beats it
	sorted := make([]Entry, nE)
	// prefix[i] bounds sorted[:i] and suffix[i] bounds sorted[i:]: every
	// box is grown in place in one slab, for every axis and sort order.
	prefix, suffix := make([]Rect, nE+1), make([]Rect, nE+1)
	slab := make([]float64, 4*(nE+1)*d)
	for i := range prefix {
		b := slab[4*i*d : 4*(i+1)*d]
		prefix[i] = Rect{Lo: b[:d:d], Hi: b[d : 2*d : 2*d]}
		suffix[i] = Rect{Lo: b[2*d : 3*d : 3*d], Hi: b[3*d:]}
	}
	prefix[0], suffix[nE] = EmptyRect(d), EmptyRect(d)
	cands := make([]distribution, 0, nE)

	for axis := 0; axis < d; axis++ {
		for _, byLo := range []bool{true, false} {
			copy(sorted, entries)
			ax, lo := axis, byLo
			sort.Slice(sorted, func(i, j int) bool {
				if lo {
					return sorted[i].Rect.Lo[ax] < sorted[j].Rect.Lo[ax]
				}
				return sorted[i].Rect.Hi[ax] < sorted[j].Rect.Hi[ax]
			})
			for i := 0; i < nE; i++ {
				enlargeInto(prefix[i+1], prefix[i], sorted[i].Rect)
				enlargeInto(suffix[nE-1-i], suffix[nE-i], sorted[nE-1-i].Rect)
			}
			var axisMargin float64
			cands = cands[:0]
			for k := m; k <= nE-m; k++ {
				g1, g2 := prefix[k], suffix[k]
				axisMargin += g1.Margin() + g2.Margin()
				cands = append(cands, distribution{axis: axis, k: k, byLo: byLo, overlap: g1.OverlapArea(g2), areaSum: g1.Area() + g2.Area()})
			}
			for _, dd := range cands {
				dd.marginS = axisMargin
				switch {
				case dd.marginS != best.marginS:
					if dd.marginS < best.marginS {
						// A new best axis resets the distribution choice.
						best = dd
					}
				case dd.overlap != best.overlap:
					if dd.overlap < best.overlap {
						best = dd
					}
				case dd.areaSum < best.areaSum:
					best = dd
				}
			}
		}
	}

	// Recreate the winning sort and cut at k.
	copy(sorted, entries)
	ax, lo := best.axis, best.byLo
	sort.Slice(sorted, func(i, j int) bool {
		if lo {
			return sorted[i].Rect.Lo[ax] < sorted[j].Rect.Lo[ax]
		}
		return sorted[i].Rect.Hi[ax] < sorted[j].Rect.Hi[ax]
	})
	sibling := &Node{ID: t.allocPage(), Leaf: n.Leaf}
	n.Entries = append([]Entry(nil), sorted[:best.k]...)
	sibling.Entries = append([]Entry(nil), sorted[best.k:]...)
	t.writeNode(sibling)
	return sibling
}

// Delete removes the record with the given id located at point p. It
// returns false if no such record exists. Underfull nodes along the path
// are dissolved and their entries reinserted (condense-tree).
func (t *Tree) Delete(id int64, p vec.Vector) bool {
	ok, _ := t.DeleteWith(id, p, nil)
	return ok
}

// DeleteWith is Delete with a step between finding the record and removing
// it: once the walk has found the record, step (when non-nil) runs before
// any page is written. A failed step ends the delete with the tree as it
// was, and its error is returned; a miss never runs it. It lets a caller
// log a delete before applying it on the same walk that decides whether
// there is anything to log.
func (t *Tree) DeleteWith(id int64, p vec.Vector, step func() error) (bool, error) {
	path, leaf, slot := t.findRecord(id, p)
	if leaf == nil {
		return false, nil
	}
	return t.removeRecord(path, leaf, slot, step)
}

// findRecord finds the leaf entry holding record id at p, depth first in
// entry order, and returns the internal nodes above it with the slots taken
// (root first), the leaf and the entry's slot; leaf is nil on a miss.
//
// The search reads each page into the writer's block for its depth, so the
// block above stays whole while its children are read. It tests an
// internal entry's box in the block's Lo/Hi rows, and a leaf's record ids
// before any coordinate. Only the root-to-leaf path it found is copied out
// as Nodes.
func (t *Tree) findRecord(id int64, p vec.Vector) (path []pathStep, leaf *Node, slot int) {
	d := t.dim
	var walk func(nid pager.PageID, depth int) bool
	walk = func(nid pager.PageID, depth int) bool {
		blk := t.ReadBlock(nid, t.block(depth))
		if blk.Leaf {
		records:
			for i, rid := range blk.RecIDs {
				if rid != id {
					continue
				}
				for j, x := range p {
					if blk.Cols[j][i] != x {
						continue records
					}
				}
				leaf, slot = t.nodeOf(blk), i
				return true
			}
			return false
		}
	children:
		for i, child := range blk.Children {
			lo, hi := blk.Lo[i*d:(i+1)*d], blk.Hi[i*d:(i+1)*d]
			for j, x := range p {
				if x < lo[j] || x > hi[j] {
					continue children
				}
			}
			if walk(child, depth+1) {
				path = append(path, pathStep{t.nodeOf(blk), i})
				return true
			}
		}
		return false
	}
	if !walk(t.root, 0) {
		return nil, nil, -1
	}
	slices.Reverse(path)
	return path, leaf, slot
}

// removeRecord is DeleteWith once the search has found the record: it runs
// step, removes the leaf's entry at slot and condenses the tree on the walk
// back up the path findRecord returned.
func (t *Tree) removeRecord(path []pathStep, leaf *Node, slot int, step func() error) (bool, error) {
	if step != nil {
		if err := step(); err != nil {
			return false, err
		}
	}
	t.size--
	leaf.Entries = append(leaf.Entries[:slot], leaf.Entries[slot+1:]...)
	var ctx insertCtx
	t.ascend(path, leaf, 0, true, &ctx)
	return true, nil
}
