// Fused multi-query BRS: many angularly similar queries share one pass
// over the index pages.
//
// The contract that makes fusion safe to serve through every existing
// seam (cache fills, GIR phase 2) is byte-identity per
// member: BRSGroup runs for each member the traversal a group of one runs
// — the same floating-point operations in the same order, and rankings
// that are total orders, so nothing depends on which pages another member
// decoded first — so Records, T and the resumable heap are bit-equal to a
// solo BRS's. What is shared is the page work: decoded blocks are memoized
// in a group-level cache (the first member to touch a page pays its one
// counted read), and on first decode a leaf is scored against every
// still-active member's query in one block-kernel pass
// (score.MultiLeafScorer over the queries×records tile), so later members
// find their score row precomputed and never touch the store. On skewed
// streams a group's members traverse nearly the same root-to-leaf paths,
// and the group's page reads collapse to roughly one member's worth.
package topk

import (
	"fmt"
	"math"

	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/vec"
)

// FuseCosine is the greedy grouping threshold: a query joins a group when
// the cosine similarity between its unit weight vector and the group
// representative's is at least this. Jittered near-repeats of one center
// (the serving workload fusion targets) sit around 1−1e-6; distinct
// random centers land far below.
const FuseCosine = 0.999

// GroupStats reports the page economics of fused traversals.
type GroupStats struct {
	// PageReads counts pages decoded (counted store reads).
	PageReads int64
	// SharedReads counts page visits served from the group's decode cache
	// — pages decoded once but traversed again for another member. A solo
	// BRS never revisits a page, so every shared read is a read fusion
	// saved.
	SharedReads int64
}

func (a *GroupStats) add(b GroupStats) {
	a.PageReads += b.PageReads
	a.SharedReads += b.SharedReads
}

// ensureSlot grows the per-slot side state to cover slot.
func (gs *GroupScratch) ensureSlot(slot int) {
	for len(gs.first) <= slot {
		gs.first = append(gs.first, -1)
		gs.rows = append(gs.rows, nil)
	}
}

// scoreSlot runs the multi-query kernel over a freshly decoded leaf for
// members m.. (members before m have already finished their traversals
// and can never visit this page).
func (gs *GroupScratch) scoreSlot(slot int, blk *rtree.NodeBlock, ml score.MultiLeafScorer, qs []vec.Vector, m int) {
	g := len(qs) - m
	need := g * blk.Count
	buf := gs.rows[slot]
	if cap(buf) < need {
		buf = make([]float64, need)
	}
	buf = buf[:need]
	views := gs.views[:0]
	for i := 0; i < g; i++ {
		views = append(views, buf[i*blk.Count:(i+1)*blk.Count])
	}
	ml.ScoreLeafMulti(views, blk.Cols, qs[m:])
	gs.views = views[:0]
	gs.rows[slot], gs.first[slot] = buf, m
}

// leafRow returns member m's precomputed score row for a cached leaf
// slot, or nil when the block is not retained (slot < 0) or has none.
func (gs *GroupScratch) leafRow(slot, m, count int) []float64 {
	if slot < 0 || gs.first[slot] < 0 {
		return nil
	}
	f := gs.first[slot]
	return gs.rows[slot][(m-f)*count : (m-f+1)*count]
}

// BRSGroup answers a group of queries over one tree state with a fused
// traversal: member results are byte-identical to per-query BRS calls
// (same Records, T and resumable heap, bit for bit), but page decodes are
// shared through the group cache and leaves are block-scored for all
// still-active members at first decode. Members run in slice order; ks[i]
// is member i's k. Panics exactly where BRS would (k out of range,
// dimension mismatch, corrupt index).
//
// The group should hold angularly similar queries (see FuseGroups) — the
// traversal is correct for any group, but page sharing only pays when
// members visit overlapping frontiers.
func BRSGroup(gs *GroupScratch, tree *rtree.Tree, f score.General, qs []vec.Vector, ks []int) ([]*Result, GroupStats) {
	return gs.group(tree, f, qs, ks, retainAll)
}

// RecordsGroup is BRSGroup for a caller that builds no region: the same
// traversal, the same page reads and the same Records bit for bit, but
// each Result copies out only its query and records — T and Heap are nil,
// so the retained state is neither copied, sorted nor re-heapified.
func RecordsGroup(gs *GroupScratch, tree *rtree.Tree, f score.General, qs []vec.Vector, ks []int) ([]*Result, GroupStats) {
	return gs.group(tree, f, qs, ks, recordsOnly)
}

// ScreenedGroup is BRSGroup for a caller that builds an FP GIR from each
// Result: the same traversal, page reads and Records, but once a member's
// k-slot is final its tail builds the Phase-1 cone of the result on the
// nonnegative orthant (when f is linear), hands it over as Result.Cone and
// copies out only the T records and heap nodes that can beat p_k somewhere
// in it. What is left out cannot bound the GIR, so an
// FP build reads the same seeds and pops the same entries that matter.
// The Results must be built before gs is released (see GroupScratch).
func ScreenedGroup(gs *GroupScratch, tree *rtree.Tree, f score.General, qs []vec.Vector, ks []int) ([]*Result, GroupStats) {
	return gs.group(tree, f, qs, ks, retainScreened)
}

func (gs *GroupScratch) group(tree *rtree.Tree, f score.General, qs []vec.Vector, ks []int, t tail) ([]*Result, GroupStats) {
	if len(qs) != len(ks) {
		panic(fmt.Sprintf("topk: a group got %d queries and %d ks", len(qs), len(ks)))
	}
	gs.begin()
	out := make([]*Result, len(qs))
	for m := range qs {
		out[m] = gs.runMember(tree, f, qs, ks[m], m, t)
	}
	return out, gs.stats
}

// FuseGroups greedily partitions a query batch into fusion groups of at
// most limit members: each query is normalized to unit length and joins
// the first open group whose representative (its first member) lies
// within FuseCosine of it, else opens its own. Greedy first-fit keeps the
// planner cost at O(batch × groups × d) — far below one saved page decode
// — at the price of occasionally splitting a cluster an optimal
// partitioning would keep whole. Zero vectors and dimension-mismatched
// queries never join a group. Returned groups hold indices into qs, each
// in ascending order; limit < 1 is treated as 1 (no fusion).
func FuseGroups(qs []vec.Vector, limit int) [][]int {
	n := len(qs)
	if n == 0 {
		return nil
	}
	if limit < 1 {
		limit = 1
	}
	d := len(qs[0])
	unit := make([]float64, n*d)
	// One int slab for all the bookkeeping — at most n groups — so that
	// planning a group of one costs three allocations, not six.
	ints := make([]int, 4*n)
	assign, slab := ints[:n], ints[n:2*n]
	reps := ints[2*n : 2*n : 3*n] // group -> member index of its representative
	sizes := ints[3*n : 3*n : 4*n]
	for i, q := range qs {
		ok := len(q) == d
		var norm float64
		if ok {
			u := unit[i*d : (i+1)*d]
			for j, x := range q {
				u[j] = x
				norm += x * x
			}
			if norm > 0 {
				inv := 1 / math.Sqrt(norm)
				for j := range u {
					u[j] *= inv
				}
			}
		}
		best := -1
		if ok && norm > 0 && limit > 1 {
			u := unit[i*d : (i+1)*d]
			for g, r := range reps {
				if sizes[g] >= limit {
					continue
				}
				rep := unit[r*d : (r+1)*d]
				var cos float64
				for j := range rep {
					cos += rep[j] * u[j]
				}
				if cos >= FuseCosine {
					best = g
					break
				}
			}
		}
		if best < 0 {
			best = len(reps)
			reps = append(reps, i)
			sizes = append(sizes, 0)
		}
		assign[i] = best
		sizes[best]++
	}
	// One index slab backs every group, so a batch of singletons does not
	// allocate per query.
	groups := make([][]int, len(reps))
	off := 0
	for g, sz := range sizes {
		groups[g] = slab[off : off : off+sz]
		off += sz
	}
	for i, g := range assign {
		groups[g] = append(groups[g], i)
	}
	return groups
}

// BatchBRS answers a whole batch by fusing it: FuseGroups partitions the
// queries, one BRSGroup traversal serves each group, and results land at
// their query's position. Byte-identical to per-query BRS; the stats
// aggregate every group. As in FuseGroups, limit < 1 is treated as 1.
func BatchBRS(tree *rtree.Tree, f score.General, qs []vec.Vector, ks []int, limit int) ([]*Result, GroupStats) {
	if len(qs) != len(ks) {
		panic(fmt.Sprintf("topk: BatchBRS got %d queries and %d ks", len(qs), len(ks)))
	}
	limit = max(limit, 1)
	out := make([]*Result, len(qs))
	gs := AcquireGroupScratch(tree)
	defer gs.Release()
	var total GroupStats
	gqs := make([]vec.Vector, 0, limit)
	gks := make([]int, 0, limit)
	for _, g := range FuseGroups(qs, limit) {
		gqs, gks = gqs[:0], gks[:0]
		for _, i := range g {
			gqs = append(gqs, qs[i])
			gks = append(gks, ks[i])
		}
		res, st := BRSGroup(gs, tree, f, gqs, gks)
		for j, i := range g {
			out[i] = res[j]
		}
		total.add(st)
	}
	return out, total
}
