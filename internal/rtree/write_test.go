package rtree

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/girlib/gir/internal/pager"
	"github.com/girlib/gir/internal/vec"
)

// pageHash hashes the tree's Meta() and every page reachable from its root,
// in depth-first order, each prefixed by its page id.
func pageHash(tr *Tree) []byte {
	h := sha256.New()
	root, height, size := tr.Meta()
	h.Write(binary.LittleEndian.AppendUint64(nil, uint64(root)))
	h.Write(binary.LittleEndian.AppendUint64(nil, uint64(height)))
	h.Write(binary.LittleEndian.AppendUint64(nil, uint64(size)))
	var walk func(id pager.PageID)
	walk = func(id pager.PageID) {
		h.Write(binary.LittleEndian.AppendUint32(nil, uint32(id)))
		h.Write(tr.Store().Read(id))
		if n := tr.ReadNode(id); !n.Leaf {
			for _, e := range n.Entries {
				walk(e.Child)
			}
		}
	}
	walk(root)
	return h.Sum(nil)
}

// writeStream bulk-loads n fixed-seed points and runs a 2:1 insert/delete
// stream of ops mutations through copy-on-write commits, returning pages
// superseded by each commit to the store as a published dataset eventually
// does. A fifth of the inserts repeat a live point under a new id.
func writeStream(d, n, ops int) *Tree {
	r := rand.New(rand.NewSource(int64(100 + d)))
	store := pager.NewMemStore()
	pts := randPoints(r, n, d)
	tr := BulkLoad(store, d, pts, nil)
	live := make([]int64, n)
	for i := range live {
		live[i] = int64(i)
	}
	for op := 0; op < ops; op++ {
		tr.BeginCOW()
		if r.Intn(3) > 0 {
			p := randPoints(r, 1, d)[0]
			if r.Intn(5) == 0 {
				p = pts[live[r.Intn(len(live))]].Clone()
			}
			pts = append(pts, p)
			live = append(live, int64(len(pts)-1))
			tr.Insert(live[len(live)-1], p)
		} else {
			k := r.Intn(len(live))
			id := live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			if !tr.Delete(id, pts[id]) {
				panic("rtree: delete of a live record missed")
			}
		}
		freed, _ := tr.CommitCOW()
		for _, id := range freed {
			store.Free(id)
		}
	}
	return tr
}

// TestWritePagesGolden pins every page byte the R* write path produces:
// choose-subtree, forced reinsertion, split and condense must keep making
// the same choices, so pruning or decoding changes cannot move a tree.
func TestWritePagesGolden(t *testing.T) {
	const want = "88f2af0e5663b14916f11eb5c6d9126c52e66aa136ce9d55aad53cf0dbc6b4eb"
	h := sha256.New()
	for _, d := range []int{2, 4, 6} {
		h.Write(pageHash(writeStream(d, 5000, 3000)))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("page hash %s, want %s", got, want)
	}
}

// chooseSubtreeReference is the O(fan-out²) R* descent rule written out
// in full, the oracle for chooseSubtree's pruned loop.
func chooseSubtreeReference(n *Node, r Rect, childrenAreLeaves bool) int {
	best, bestOverlapInc, bestAreaInc, bestArea := -1, 0.0, 0.0, 0.0
	for i, e := range n.Entries {
		enlarged := enlargedRef(e.Rect, r)
		areaInc := enlarged.Area() - e.Rect.Area()
		area := e.Rect.Area()
		overlapInc := 0.0
		if childrenAreLeaves {
			overlapInc = overlapIncReference(n, i, r)
		}
		better := false
		switch {
		case best < 0:
			better = true
		case childrenAreLeaves && overlapInc != bestOverlapInc:
			better = overlapInc < bestOverlapInc
		case areaInc != bestAreaInc:
			better = areaInc < bestAreaInc
		default:
			better = area < bestArea
		}
		if better {
			best, bestOverlapInc, bestAreaInc, bestArea = i, overlapInc, areaInc, area
		}
	}
	return best
}

// overlapIncReference is the overlap that growing child i of n to cover r
// adds, summed over every other child.
func overlapIncReference(n *Node, i int, r Rect) float64 {
	enlarged := enlargedRef(n.Entries[i].Rect, r)
	inc := 0.0
	for j, o := range n.Entries {
		if j != i {
			inc += enlarged.OverlapArea(o.Rect) - n.Entries[i].Rect.OverlapArea(o.Rect)
		}
	}
	return inc
}

// enlargedRef is the smallest box covering a and b, in fresh vectors.
func enlargedRef(a, b Rect) Rect {
	out := Rect{Lo: make(vec.Vector, len(a.Lo)), Hi: make(vec.Vector, len(a.Lo))}
	for k := range out.Lo {
		out.Lo[k], out.Hi[k] = min(a.Lo[k], b.Lo[k]), max(a.Hi[k], b.Hi[k])
	}
	return out
}

// gridCoord draws from a coarse grid most of the time, so boxes share
// edges, touch, coincide and collapse to zero width on some axis.
func gridCoord(r *rand.Rand) float64 {
	if r.Intn(4) == 0 {
		return r.Float64()
	}
	return float64(r.Intn(5)) / 4
}

// gridBox draws a box with gridCoord corners.
func gridBox(r *rand.Rand, d int) Rect {
	lo, hi := make(vec.Vector, d), make(vec.Vector, d)
	for j := range lo {
		lo[j], hi[j] = gridCoord(r), gridCoord(r)
		if lo[j] > hi[j] {
			lo[j], hi[j] = hi[j], lo[j]
		}
	}
	return Rect{Lo: lo, Hi: hi}
}

// TestChooseSubtreeMatchesReference holds chooseSubtree to the full rule on
// point entries, as an insert descends with, and on boxes, as a condense
// reinserts internal entries with. It requires both of its exits: the
// least-enlargement child taken at once, and the full rule run because
// that child's overlap increment is positive.
func TestChooseSubtreeMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	var fallbacks, shortcuts int
	for d := 1; d <= 8; d++ {
		tr := New(pager.NewMemStore(), d)
		for trial := 0; trial < 400; trial++ {
			n := &Node{}
			for i := 2 + r.Intn(tr.maxInt-1); i > 0; i-- {
				n.Entries = append(n.Entries, Entry{Rect: gridBox(r, d)})
			}
			p := make(vec.Vector, d)
			c := n.Entries[r.Intn(len(n.Entries))].Rect
			var box Rect
			switch trial % 3 {
			case 0: // a corner of some child: inside it and whatever it touches
				copy(p, c.Hi)
				box = Rect{Lo: c.Lo.Clone(), Hi: c.Hi.Clone()} // the child itself
			case 1: // inside one child, maybe several
				box = Rect{Lo: make(vec.Vector, d), Hi: make(vec.Vector, d)}
				for j := range p {
					p[j] = c.Lo[j] + r.Float64()*(c.Hi[j]-c.Lo[j])
					box.Lo[j], box.Hi[j] = min(p[j], c.Hi[j]), c.Hi[j]
				}
			default:
				for j := range p {
					p[j] = gridCoord(r)
				}
				box = gridBox(r, d)
			}
			for _, q := range []Rect{PointRect(p), box} {
				for _, leaves := range []bool{true, false} {
					if got, want := tr.chooseSubtree(n, q, leaves), chooseSubtreeReference(n, q, leaves); got != want {
						t.Fatalf("d=%d trial %d leaves=%v entry %v: chose %d, reference %d", d, trial, leaves, q, got, want)
					}
				}
				if least := chooseSubtreeReference(n, q, false); overlapIncReference(n, least, q) > 0 {
					fallbacks++
				} else {
					shortcuts++
				}
			}
		}
	}
	t.Logf("%d entries decided by the least enlargement, %d by the full rule", shortcuts, fallbacks)
	if fallbacks == 0 || shortcuts == 0 {
		t.Fatalf("one exit never ran: %d shortcuts, %d fallbacks", shortcuts, fallbacks)
	}
}

// findRecordDecoded is findRecord as a walk over decoded nodes, the oracle
// for its search on page bytes.
func findRecordDecoded(tr *Tree, id int64, p vec.Vector) (path []pathStep, leaf *Node, slot int) {
	var walk func(nid pager.PageID) bool
	walk = func(nid pager.PageID) bool {
		n := tr.ReadNode(nid)
		if n.Leaf {
			for i, e := range n.Entries {
				if e.RecID == id && vec.Equal(e.Point(), p, 0) {
					leaf, slot = n, i
					return true
				}
			}
			return false
		}
	children:
		for i, e := range n.Entries {
			for j, x := range p {
				if x < e.Rect.Lo[j] || x > e.Rect.Hi[j] {
					continue children
				}
			}
			path = append(path, pathStep{n, i})
			if walk(e.Child) {
				return true
			}
			path = path[:len(path)-1]
		}
		return false
	}
	if !walk(tr.root) {
		return nil, nil, -1
	}
	return path, leaf, slot
}

// deleteTwins runs one delete on twin trees, DeleteWith on a and the
// decoded walk with the same removal on b, and fails unless both find the
// same path, read the same pages and leave the same tree.
func deleteTwins(t *testing.T, a, b *Tree, id int64, p vec.Vector) bool {
	t.Helper()
	readsA := a.store.Stats().Reads
	pathA, leafA, slotA := a.findRecord(id, p)
	readsA = a.store.Stats().Reads - readsA
	readsB := b.store.Stats().Reads
	pathB, leafB, slotB := findRecordDecoded(b, id, p)
	readsB = b.store.Stats().Reads - readsB
	if readsA != readsB || slotA != slotB || !reflect.DeepEqual(pathA, pathB) || !reflect.DeepEqual(leafA, leafB) {
		t.Fatalf("delete %d at %v: search read %d pages, found slot %d; the decoded walk read %d, found slot %d", id, p, readsA, slotA, readsB, slotB)
	}

	readsA = a.store.Stats().Reads
	okA, _ := a.DeleteWith(id, p, nil)
	readsA = a.store.Stats().Reads - readsA
	readsB = b.store.Stats().Reads
	okB := false
	if pathB, leafB, slotB := findRecordDecoded(b, id, p); leafB != nil {
		okB, _ = b.removeRecord(pathB, leafB, slotB, nil)
	}
	readsB = b.store.Stats().Reads - readsB
	if okA != okB || readsA != readsB {
		t.Fatalf("delete %d at %v: DeleteWith %v after %d reads, the decoded walk %v after %d", id, p, okA, readsA, okB, readsB)
	}
	return okA
}

// TestDeleteWithMatchesDecodedWalk holds DeleteWith's search on page bytes
// to a walk over decoded nodes: the same found or missed record, the same
// path, the same counted reads and the same pages after the delete, on
// grid data where points repeat under other ids and lie on shared box
// faces, for present records, a present id at another point and absent
// ids, in place and inside open copy-on-write mutations after relocations.
func TestDeleteWithMatchesDecodedWalk(t *testing.T) {
	for _, d := range []int{2, 3, 5} {
		r := rand.New(rand.NewSource(int64(60 + d)))
		pts := make([]vec.Vector, 3000)
		for i := range pts {
			pts[i] = make(vec.Vector, d)
			for j := range pts[i] {
				pts[i][j] = gridCoord(r)
			}
		}
		a := BulkLoad(pager.NewMemStore(), d, pts, nil)
		b := BulkLoad(pager.NewMemStore(), d, pts, nil)
		live := make([]int64, len(pts))
		for i := range live {
			live[i] = int64(i)
		}
		hits, misses := 0, 0
		for round := 0; round < 60; round++ {
			cow := round%2 == 1
			if cow {
				a.BeginCOW()
				b.BeginCOW()
			}
			// Inserts relocate the pages of their paths inside a mutation;
			// one in three repeats a live point under a new id.
			for i := 0; i < 10; i++ {
				p := make(vec.Vector, d)
				for j := range p {
					p[j] = gridCoord(r)
				}
				if r.Intn(3) == 0 {
					p = pts[live[r.Intn(len(live))]].Clone()
				}
				pts = append(pts, p)
				live = append(live, int64(len(pts)-1))
				a.Insert(live[len(live)-1], p)
				b.Insert(live[len(live)-1], p)
			}
			for i := 0; i < 20; i++ {
				k := r.Intn(len(live))
				id := live[k]
				switch r.Intn(4) {
				case 0: // a present id at another live record's point
					if other := pts[live[r.Intn(len(live))]]; !vec.Equal(other, pts[id], 0) {
						if deleteTwins(t, a, b, id, other) {
							t.Fatalf("d=%d: record %d deleted at another point", d, id)
						}
						misses++
						continue
					}
				case 1: // an absent id at a live point
					if deleteTwins(t, a, b, -1-id, pts[id]) {
						t.Fatalf("d=%d: absent record %d deleted", d, -1-id)
					}
					misses++
					continue
				}
				if !deleteTwins(t, a, b, id, pts[id]) {
					t.Fatalf("d=%d: live record %d missed", d, id)
				}
				hits++
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if cow {
				freedA, freshA := a.CommitCOW()
				freedB, freshB := b.CommitCOW()
				if !reflect.DeepEqual(freedA, freedB) || !reflect.DeepEqual(freshA, freshB) {
					t.Fatalf("d=%d round %d: the twins' mutations wrote different pages", d, round)
				}
				for _, id := range freedA {
					a.store.Free(id)
					b.store.Free(id)
				}
			}
			if !bytes.Equal(pageHash(a), pageHash(b)) {
				t.Fatalf("d=%d round %d: the twins' pages differ", d, round)
			}
		}
		t.Logf("d=%d: %d deletes found their record, %d missed", d, hits, misses)
	}
}

// TestDeleteWithStep holds DeleteWith's contract: the step runs once the
// record is found and before any page is written; a failed step leaves the
// tree and the store as they were; a miss never runs it.
func TestDeleteWithStep(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	store := pager.NewMemStore()
	pts := randPoints(r, 2000, 3)
	tr := BulkLoad(store, 3, pts, nil)
	before := pageHash(tr)
	writes := store.Stats().Writes

	tr.BeginCOW()
	ran := 0
	ok, err := tr.DeleteWith(7, pts[7], func() error {
		ran++
		if w := store.Stats().Writes; w != writes {
			t.Errorf("%d pages written before the step ran", w-writes)
		}
		return errors.New("refused")
	})
	freed, fresh := tr.CommitCOW()
	if ok || err == nil || ran != 1 {
		t.Fatalf("failed step: ok=%v err=%v ran=%d", ok, err, ran)
	}
	if len(freed) != 0 || len(fresh) != 0 || store.Stats().Writes != writes || tr.Len() != len(pts) {
		t.Fatalf("failed step left %d freed, %d fresh, %d writes, Len %d", len(freed), len(fresh), store.Stats().Writes-writes, tr.Len())
	}
	if string(pageHash(tr)) != string(before) {
		t.Fatal("failed step changed the tree")
	}

	if ok, err := tr.DeleteWith(1<<40, pts[7], func() error { ran++; return nil }); ok || err != nil || ran != 1 {
		t.Fatalf("miss: ok=%v err=%v ran=%d", ok, err, ran)
	}
	if ok, err := tr.DeleteWith(7, pts[7], func() error { ran++; return nil }); !ok || err != nil || ran != 2 {
		t.Fatalf("hit: ok=%v err=%v ran=%d", ok, err, ran)
	}
	if tr.Len() != len(pts)-1 || tr.Delete(7, pts[7]) {
		t.Fatal("the record survived its delete")
	}
}

// TestDeleteReadsOnlyItsSearch: a copy-on-write delete whose leaf stays at
// or above its minimum reads the pages its search reads and no more (the
// root-shrink test uses the root the condense holds) and writes each page
// of its path once, and deletes that shed root after root down to a leaf
// keep a valid tree.
func TestDeleteReadsOnlyItsSearch(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	store := pager.NewMemStore()
	pts := randPoints(r, 3000, 3)
	tr := BulkLoad(store, 3, pts, nil)
	if tr.Height() < 2 {
		t.Fatalf("height %d: the test needs an internal root", tr.Height())
	}
	live := map[int64]vec.Vector{}
	for i, p := range pts {
		live[int64(i)] = p
	}
	del := func(id int64) {
		t.Helper()
		tr.BeginCOW()
		if !tr.Delete(id, live[id]) {
			t.Fatalf("delete of live record %d missed", id)
		}
		freed, _ := tr.CommitCOW()
		for _, pid := range freed {
			store.Free(pid)
		}
		delete(live, id)
	}
	checked := 0
	for _, i := range r.Perm(len(pts))[:200] {
		id := int64(i)
		r0 := store.Stats().Reads
		_, leaf, _ := tr.findRecord(id, live[id])
		search := store.Stats().Reads - r0
		if len(leaf.Entries) <= tr.minLeaf {
			del(id)
			continue
		}
		r1, w1, height := store.Stats().Reads, store.Stats().Writes, tr.Height()
		del(id)
		if got := store.Stats().Reads - r1; got != search {
			t.Fatalf("delete of %d read %d pages, its search %d", id, got, search)
		}
		if got := store.Stats().Writes - w1; got != int64(height) {
			t.Fatalf("delete of %d wrote %d pages on a path of %d", id, got, height)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no delete left its leaf above the minimum")
	}
	for id := range live {
		if len(live) == 2 {
			break
		}
		del(id)
	}
	if tr.Height() != 1 || tr.Len() != 2 {
		t.Fatalf("height %d with %d records after deleting down to 2", tr.Height(), tr.Len())
	}
	checkInvariants(t, tr, live)
}

// readLog is a store that keeps every page read, with its bytes as read.
type readLog struct {
	pager.Store
	ids  []pager.PageID
	bufs [][]byte
}

func (s *readLog) Read(id pager.PageID) []byte {
	buf := s.Store.Read(id)
	s.ids, s.bufs = append(s.ids, id), append(s.bufs, bytes.Clone(buf))
	return buf
}

// TestInsertReadsOnlyItsDescents: an insert reads the pages of its
// descents and no more, its own and each forced reinsertion's. Each
// descent reads the root first, and every later read of it is of a child
// of the page read just before. Inserts whose walk evicts entries for
// forced reinsertion, at the leaves and above, must be among them.
func TestInsertReadsOnlyItsDescents(t *testing.T) {
	const d = 6
	r := rand.New(rand.NewSource(9))
	log := &readLog{Store: pager.NewMemStore()}
	tr := New(log, d)
	reinserting, descents := 0, 0
	for i, p := range randPoints(r, 4000, d) {
		root, height := tr.Root(), tr.Height()
		log.ids, log.bufs = log.ids[:0], log.bufs[:0]
		tr.Insert(int64(i), p)
		if tr.Height() != height {
			continue // the root split, and later descents start at the new root
		}
		n := 0
		var prev *Node
		for k, id := range log.ids {
			if id == root {
				n++
			} else if prev == nil || prev.Leaf || !slices.ContainsFunc(prev.Entries, func(e Entry) bool { return e.Child == id }) {
				t.Fatalf("insert %d: read %d of %d, page %d, is no child of the page read before it", i, k, len(log.ids), id)
			}
			prev = tr.decode(id, log.bufs[k])
		}
		if n > 1 {
			reinserting, descents = reinserting+1, descents+n-1
		}
	}
	t.Logf("height %d: %d inserts reinserted, in %d more descents", tr.Height(), reinserting, descents)
	if tr.Height() < 3 || reinserting == 0 {
		t.Fatalf("height %d, %d inserts reinserted: the test needs both above the leaves", tr.Height(), reinserting)
	}
}

// TestInsertIntoUnderfullLeafDissolvesNothing: bulk loading leaves some
// leaves below the minimum fill, and an insert into one writes its path
// once and retires no page, because only a delete's walk condenses.
func TestInsertIntoUnderfullLeafDissolvesNothing(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	store := pager.NewMemStore()
	pts := randPoints(r, 2500, 3) // STR packs 9 of its leaves below the minimum
	tr := BulkLoad(store, 3, pts, nil)
	inserted, stillUnder := 0, 0
	for _, p := range pts {
		// The leaf an insert at p descends to.
		leaf := tr.ReadNode(tr.Root())
		for lvl := tr.Height() - 1; lvl > 0; lvl-- {
			leaf = tr.ReadNode(leaf.Entries[tr.chooseSubtree(leaf, PointRect(p), lvl == 1)].Child)
		}
		if len(leaf.Entries) >= tr.minLeaf {
			continue
		}
		id := int64(len(pts) + inserted)
		w := store.Stats().Writes
		tr.BeginCOW()
		tr.Insert(id, p.Clone())
		freed, fresh := tr.CommitCOW()
		if got := store.Stats().Writes - w; got != int64(tr.Height()) || len(freed) != tr.Height() || len(fresh) != tr.Height() {
			t.Fatalf("insert into a leaf of %d entries wrote %d pages, superseded %d and allocated %d on a path of %d", len(leaf.Entries), got, len(freed), len(fresh), tr.Height())
		}
		if _, got, _ := tr.findRecord(id, p); got == nil || len(got.Entries) != len(leaf.Entries)+1 {
			t.Fatalf("record %d is not in its leaf of %d entries", id, len(leaf.Entries))
		}
		inserted++
		if len(leaf.Entries)+1 < tr.minLeaf {
			stillUnder++
		}
	}
	t.Logf("%d inserts into underfull leaves, %d of them left underfull", inserted, stillUnder)
	if stillUnder == 0 {
		t.Fatalf("%d inserts landed in an underfull leaf, none left it underfull", inserted)
	}
	if tr.Len() != len(pts)+inserted {
		t.Fatalf("Len %d after %d inserts into %d records", tr.Len(), inserted, len(pts))
	}
}

// writeBench is the benchmark's tree: n = 200 000 bulk-loaded points at
// d = 4, and fresh points to insert.
func writeBench(b *testing.B) (*Tree, []vec.Vector) {
	b.Helper()
	r := rand.New(rand.NewSource(1))
	tr := BulkLoad(pager.NewMemStore(), 4, randPoints(r, 200000, 4), nil)
	return tr, randPoints(r, b.N, 4)
}

// BenchmarkTreeInsert is one copy-on-write insert into a large tree.
func BenchmarkTreeInsert(b *testing.B) {
	tr, ps := writeBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i, p := range ps {
		tr.BeginCOW()
		tr.Insert(int64(1<<32+i), p)
		tr.CommitCOW()
	}
}

// BenchmarkTreeDelete is one copy-on-write delete of a record an earlier
// insert added.
func BenchmarkTreeDelete(b *testing.B) {
	tr, ps := writeBench(b)
	for i, p := range ps {
		tr.BeginCOW()
		tr.Insert(int64(1<<32+i), p)
		tr.CommitCOW()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i, p := range ps {
		tr.BeginCOW()
		tr.Delete(int64(1<<32+i), p)
		tr.CommitCOW()
	}
}

// BenchmarkTreeChurn is one copy-on-write write of churn's steady state:
// laps of churnScript inserts, then deletes of the same records, into a
// tree that has absorbed one lap of each already, with every superseded
// page freed as a published dataset frees it.
func BenchmarkTreeChurn(b *testing.B) {
	const churnScript = 500
	tr, _ := writeBench(b)
	ps := randPoints(rand.New(rand.NewSource(2)), churnScript, tr.Dim())
	write := func(i int) {
		tr.BeginCOW()
		if k := i % len(ps); i/len(ps)%2 == 0 {
			tr.Insert(int64(1<<32+k), ps[k])
		} else if !tr.Delete(int64(1<<32+k), ps[k]) {
			b.Fatalf("churn delete of record %d missed", k)
		}
		freed, _ := tr.CommitCOW()
		for _, id := range freed {
			tr.Store().Free(id)
		}
	}
	for i := 0; i < 2*len(ps); i++ {
		write(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		write(i)
	}
}
