package topk

import (
	"math"
	"math/rand"
	"testing"

	"github.com/girlib/gir/internal/pager"
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/vec"
)

// jitteredBatch draws a batch of queries clustered around a few centers —
// the skewed serving shape fusion targets — plus per-query ks.
func jitteredBatch(r *rand.Rand, d, centers, per int) ([]vec.Vector, []int) {
	var qs []vec.Vector
	var ks []int
	for c := 0; c < centers; c++ {
		center := randQuery(r, d)
		for i := 0; i < per; i++ {
			q := center.Clone()
			for j := range q {
				q[j] = math.Max(1e-6, q[j]+0.001*r.NormFloat64())
			}
			qs = append(qs, q)
			ks = append(ks, 1+r.Intn(20))
		}
	}
	r.Shuffle(len(qs), func(i, j int) {
		qs[i], qs[j] = qs[j], qs[i]
		ks[i], ks[j] = ks[j], ks[i]
	})
	return qs, ks
}

func sameResult(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	if len(got.Records) != len(want.Records) || len(got.T) != len(want.T) || got.Heap.Len() != want.Heap.Len() {
		t.Fatalf("%s: shape mismatch: records %d/%d, T %d/%d, heap %d/%d", tag,
			len(got.Records), len(want.Records), len(got.T), len(want.T), got.Heap.Len(), want.Heap.Len())
	}
	for i := range want.Records {
		g, w := got.Records[i], want.Records[i]
		if g.ID != w.ID || g.Score != w.Score {
			t.Fatalf("%s: record %d: got (%d, %v), want (%d, %v)", tag, i, g.ID, g.Score, w.ID, w.Score)
		}
		for j := range w.Point {
			if g.Point[j] != w.Point[j] {
				t.Fatalf("%s: record %d point differs at %d", tag, i, j)
			}
		}
	}
	for i := range want.T {
		if got.T[i].ID != want.T[i].ID || got.T[i].Score != want.T[i].Score {
			t.Fatalf("%s: T[%d]: got (%d, %v), want (%d, %v)", tag, i,
				got.T[i].ID, got.T[i].Score, want.T[i].ID, want.T[i].Score)
		}
	}
	for i := range *want.Heap {
		g, w := (*got.Heap)[i], (*want.Heap)[i]
		if g.Key != w.Key || g.Child != w.Child {
			t.Fatalf("%s: heap[%d]: got (%v, %d), want (%v, %d)", tag, i, g.Key, g.Child, w.Key, w.Child)
		}
		for j := range w.Rect.Lo {
			if g.Rect.Lo[j] != w.Rect.Lo[j] || g.Rect.Hi[j] != w.Rect.Hi[j] {
				t.Fatalf("%s: heap[%d] rect differs at %d", tag, i, j)
			}
		}
	}
}

// TestBRSGroupByteIdentical is the fused-traversal differential at the
// topk layer: a group of N equals N groups of one — every member of a
// fused group gets a Result bit-equal to a solo BRS: records, scores, the
// candidate set T AND the resumable heap (the engine's cache-fill GIR
// resumes from it, so identity must cover the full retained state, not
// just the answer). Both run the one traversal, so the answer is also
// held against Scan, the oracle that shares no code with it.
func TestBRSGroupByteIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for _, d := range []int{2, 4} {
		tree, _, _ := buildTree(r, 4000, d)
		qs, ks := jitteredBatch(r, d, 6, 8)
		got, stats := BatchBRS(tree, score.Linear{}, qs, ks, 8)
		for i := range qs {
			want := BRS(tree, score.Linear{}, qs[i], ks[i])
			sameResult(t, "fused batch", got[i], want)
			for j, rec := range Scan(tree, score.Linear{}, qs[i], ks[i]) {
				if g := got[i].Records[j]; g.ID != rec.ID || g.Score != rec.Score {
					t.Fatalf("query %d rank %d: group says (%d, %v), a full scan (%d, %v)", i, j, g.ID, g.Score, rec.ID, rec.Score)
				}
			}
		}
		if stats.SharedReads == 0 {
			t.Error("jittered batch shared no page reads — fusion never engaged")
		}
	}
}

// TestBRSGroupNonBulkScorer drives the fallback path: a scorer without
// ScoreLeafMulti still shares page decodes and must stay byte-identical.
func TestBRSGroupNonBulkScorer(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	tree, _, _ := buildTree(r, 2000, 3)
	qs, ks := jitteredBatch(r, 3, 3, 6)
	f := score.Leontief{}
	got, stats := BatchBRS(tree, f, qs, ks, 8)
	for i := range qs {
		want := BRS(tree, f, qs[i], ks[i])
		sameResult(t, "leontief", got[i], want)
	}
	if stats.SharedReads == 0 {
		t.Error("non-bulk fallback shared no page reads")
	}
}

// readRecorder wraps a Store and records the distinct pages Read touches.
type readRecorder struct {
	pager.Store
	seen map[pager.PageID]int
}

func (r *readRecorder) Read(id pager.PageID) []byte {
	if r.seen == nil {
		r.seen = make(map[pager.PageID]int)
	}
	r.seen[id]++
	return r.Store.Read(id)
}

func (r *readRecorder) reset() map[pager.PageID]int {
	out := r.seen
	r.seen = nil
	return out
}

// TestBRSGroupReadSetIsUnion is the group-pruning property from the page
// side: the set of pages a fused group decodes equals the union of its
// members' solo read sets — each decoded exactly once. Equivalently, a
// page the group never decodes is pruned below every member's threshold
// (no solo traversal would read it), and fusion never reads pages no
// member needed.
func TestBRSGroupReadSetIsUnion(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	store := pager.NewMemStore()
	pts := make([]vec.Vector, 3000)
	for i := range pts {
		pts[i] = randQuery(r, 4)
	}
	rec := &readRecorder{Store: store}
	tree := rtree.BulkLoad(rec, 4, pts, nil)
	qs, ks := jitteredBatch(r, 4, 4, 5)

	rec.reset()
	union := make(map[pager.PageID]int)
	for i := range qs {
		BRS(tree, score.Linear{}, qs[i], ks[i])
		for id := range rec.reset() {
			union[id]++
		}
	}

	gs := AcquireGroupScratch(tree)
	defer gs.Release()
	results, stats := BRSGroup(gs, tree, score.Linear{}, qs, ks)
	fused := rec.reset()

	if len(fused) != len(union) {
		t.Fatalf("fused group decoded %d distinct pages, union of solo read sets has %d", len(fused), len(union))
	}
	for id := range union {
		if n, ok := fused[id]; !ok {
			t.Fatalf("page %d read by a solo member but never decoded by the group", id)
		} else if n != 1 {
			t.Fatalf("page %d decoded %d times by the group, want exactly once", id, n)
		}
	}
	if stats.PageReads != int64(len(union)) {
		t.Fatalf("stats.PageReads = %d, want %d (one decode per union page)", stats.PageReads, len(union))
	}

	// The retained-heap side of the property: everything a member left
	// unexpanded is bounded by its own k-th score (BRS pops best-first,
	// and maxscore bounds are monotone under MBB containment), so a node
	// pruned by the whole group is below every member's threshold.
	for i, res := range results {
		kth := res.Kth().Score
		for _, it := range *res.Heap {
			if it.Key > kth {
				t.Fatalf("member %d: retained node with bound %v above its k-th score %v", i, it.Key, kth)
			}
		}
	}
}

// TestFuseGroupsHeuristic pins the grouping behaviour: jittered
// near-repeats of one center fuse (up to the cap), distinct random
// centers do not, zero vectors stay alone, and every query lands in
// exactly one group with indices ascending.
func TestFuseGroupsHeuristic(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	d := 4
	center := randQuery(r, d)
	var qs []vec.Vector
	for i := 0; i < 10; i++ {
		q := center.Clone()
		for j := range q {
			q[j] = math.Max(1e-6, q[j]+0.001*r.NormFloat64())
		}
		qs = append(qs, q)
	}
	groups := FuseGroups(qs, 4)
	seen := make(map[int]bool)
	for _, g := range groups {
		if len(g) > 4 {
			t.Fatalf("group exceeds cap: %v", g)
		}
		for i, idx := range g {
			if seen[idx] {
				t.Fatalf("query %d in two groups", idx)
			}
			seen[idx] = true
			if i > 0 && g[i-1] >= idx {
				t.Fatalf("group indices not ascending: %v", g)
			}
		}
	}
	if len(seen) != len(qs) {
		t.Fatalf("%d of %d queries grouped", len(seen), len(qs))
	}
	if len(groups) != 3 { // 10 near-identical queries at cap 4 → 4+4+2
		t.Errorf("10 jittered repeats at cap 4 formed %d groups, want 3", len(groups))
	}

	// Orthogonal-ish centers must not fuse.
	distinct := []vec.Vector{
		{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0.5, 0.5, 0, 0},
	}
	groups = FuseGroups(distinct, 8)
	if len(groups) != len(distinct) {
		t.Errorf("distinct centers fused into %d groups, want %d singletons", len(groups), len(distinct))
	}

	// The zero vector cannot be normalized; it must stay alone and not
	// poison a group.
	withZero := []vec.Vector{center, make(vec.Vector, d), center.Clone()}
	groups = FuseGroups(withZero, 8)
	for _, g := range groups {
		for _, idx := range g {
			if idx == 1 && len(g) != 1 {
				t.Fatalf("zero vector fused into group %v", g)
			}
		}
	}

	// limit 1 disables fusion outright.
	if got := FuseGroups(qs, 1); len(got) != len(qs) {
		t.Errorf("limit 1 produced %d groups for %d queries", len(got), len(qs))
	}
}

// TestBRSGroupAcrossVaryingK exercises one shared decode serving members
// with different ks of the SAME vector — the cheapest possible group.
func TestBRSGroupAcrossVaryingK(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	tree, _, _ := buildTree(r, 2000, 3)
	q := randQuery(r, 3)
	qs := []vec.Vector{q, q.Clone(), q.Clone()}
	ks := []int{5, 17, 1}
	gs := AcquireGroupScratch(tree)
	defer gs.Release()
	got, stats := BRSGroup(gs, tree, score.Linear{}, qs, ks)
	for i := range qs {
		sameResult(t, "same-vector", got[i], BRS(tree, score.Linear{}, qs[i], ks[i]))
	}
	if stats.SharedReads == 0 {
		t.Error("identical vectors shared no reads")
	}
}

// TestRecordsGroupMatchesRetaining is the differential of the two tails of
// the one traversal: for groups of 1–8 members with varying k, with the
// bulk scorer and a non-bulk one, RecordsGroup returns the Records
// BRSGroup returns — ids, scores and points bit for bit — at the same
// PageReads and SharedReads, and retains neither T nor the heap. It runs
// on continuous data and on tied data (coordinates on a five-step grid),
// where both tails must also give Scan's (score desc, id asc) order.
func TestRecordsGroupMatchesRetaining(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, c := range []struct {
		d    int
		tied bool
	}{{2, false}, {4, false}, {3, true}} {
		d := c.d
		tree, _, _ := buildTree(r, 3000, d)
		if c.tied {
			tree = buildTiedTree(r, 3000, d)
		}
		for _, f := range []score.General{score.Linear{}, score.Leontief{}} {
			for size := 1; size <= 8; size++ {
				qs, ks := jitteredBatch(r, d, 1, size)
				if size%3 == 0 {
					qs[0] = randQuery(r, d) // one member off the cluster
				}
				for i := range ks {
					ks[i] = 1 + r.Intn(40)
				}
				gs := AcquireGroupScratch(tree)
				want, wantSt := BRSGroup(gs, tree, f, qs, ks)
				got, gotSt := RecordsGroup(gs, tree, f, qs, ks)
				gs.Release()
				if gotSt != wantSt {
					t.Fatalf("d=%d %T size %d: records-only stats %+v, retaining %+v", d, f, size, gotSt, wantSt)
				}
				for m := range qs {
					g, w := got[m], want[m]
					if g.T != nil || g.Heap != nil {
						t.Fatalf("d=%d %T size %d member %d: records-only result retains T (%d) or a heap (%v)", d, f, size, m, len(g.T), g.Heap != nil)
					}
					if g.K != w.K || !bitsEqual(g.Query, w.Query) || len(g.Records) != len(w.Records) {
						t.Fatalf("d=%d %T size %d member %d: k, query or record count differ", d, f, size, m)
					}
					for i, rec := range w.Records {
						gr := g.Records[i]
						if gr.ID != rec.ID || math.Float64bits(gr.Score) != math.Float64bits(rec.Score) || !bitsEqual(gr.Point, rec.Point) {
							t.Fatalf("d=%d %T size %d member %d rank %d: records-only (%d, %v), retaining (%d, %v)", d, f, size, m, i, gr.ID, gr.Score, rec.ID, rec.Score)
						}
					}
					if !c.tied {
						continue
					}
					for i, rec := range Scan(tree, f, qs[m], ks[m]) {
						if gr := g.Records[i]; gr.ID != rec.ID || math.Float64bits(gr.Score) != math.Float64bits(rec.Score) {
							t.Fatalf("tied d=%d %T size %d member %d rank %d: records-only (%d, %v), Scan (%d, %v)", d, f, size, m, i, gr.ID, gr.Score, rec.ID, rec.Score)
						}
					}
				}
			}
		}
	}
}

func bitsEqual(a, b vec.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestBatchBRSLimitBelowOne: BatchBRS treats limit < 1 as 1, as
// FuseGroups documents — no fusion, every result equal to a solo BRS.
func TestBatchBRSLimitBelowOne(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	tree, _, _ := buildTree(r, 2000, 3)
	qs, ks := jitteredBatch(r, 3, 2, 4)
	for _, limit := range []int{0, -1} {
		got, stats := BatchBRS(tree, score.Linear{}, qs, ks, limit)
		for i := range qs {
			sameResult(t, "unfused batch", got[i], BRS(tree, score.Linear{}, qs[i], ks[i]))
		}
		if stats.SharedReads != 0 {
			t.Errorf("limit %d: %d shared reads, want none without fusion", limit, stats.SharedReads)
		}
	}
}
