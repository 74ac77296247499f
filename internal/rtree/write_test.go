package rtree

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
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
		enlarged := e.Rect.Enlarged(r)
		areaInc := enlarged.Area() - e.Rect.Area()
		area := e.Rect.Area()
		overlapInc := 0.0
		if childrenAreLeaves {
			for j, o := range n.Entries {
				if j == i {
					continue
				}
				overlapInc += enlarged.OverlapArea(o.Rect) - e.Rect.OverlapArea(o.Rect)
			}
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

// gridCoord draws from a coarse grid most of the time, so boxes share
// edges, touch, coincide and collapse to zero width on some axis.
func gridCoord(r *rand.Rand) float64 {
	if r.Intn(4) == 0 {
		return r.Float64()
	}
	return float64(r.Intn(5)) / 4
}

func TestChooseSubtreeMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	for d := 1; d <= 8; d++ {
		tr := New(pager.NewMemStore(), d)
		for trial := 0; trial < 400; trial++ {
			n := &Node{}
			for i := 2 + r.Intn(tr.maxInt-1); i > 0; i-- {
				lo, hi := make(vec.Vector, d), make(vec.Vector, d)
				for j := range lo {
					lo[j], hi[j] = gridCoord(r), gridCoord(r)
					if lo[j] > hi[j] {
						lo[j], hi[j] = hi[j], lo[j]
					}
				}
				n.Entries = append(n.Entries, Entry{Rect: Rect{Lo: lo, Hi: hi}})
			}
			p := make(vec.Vector, d)
			switch trial % 3 {
			case 0: // a corner of some child: inside it and whatever it touches
				copy(p, n.Entries[r.Intn(len(n.Entries))].Rect.Hi)
			case 1: // inside one child, maybe several
				c := n.Entries[r.Intn(len(n.Entries))].Rect
				for j := range p {
					p[j] = c.Lo[j] + r.Float64()*(c.Hi[j]-c.Lo[j])
				}
			default:
				for j := range p {
					p[j] = gridCoord(r)
				}
			}
			q := PointRect(p)
			for _, leaves := range []bool{true, false} {
				if got, want := tr.chooseSubtree(n, q, leaves), chooseSubtreeReference(n, q, leaves); got != want {
					t.Fatalf("d=%d trial %d leaves=%v: chose %d, reference %d", d, trial, leaves, got, want)
				}
			}
		}
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
