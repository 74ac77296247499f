package rtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/girlib/gir/internal/pager"
	"github.com/girlib/gir/internal/vec"
)

func randPoints(r *rand.Rand, n, d int) []vec.Vector {
	pts := make([]vec.Vector, n)
	for i := range pts {
		pts[i] = make(vec.Vector, d)
		for j := range pts[i] {
			pts[i][j] = r.Float64()
		}
	}
	return pts
}

// checkInvariants walks the tree verifying structural invariants:
// MBB containment, fill factors, uniform leaf depth, and that exactly the
// inserted records are present.
func checkInvariants(t *testing.T, tr *Tree, want map[int64]vec.Vector) {
	t.Helper()
	seen := map[int64]vec.Vector{}
	leafDepth := -1
	var walk func(id pager.PageID, depth int, bound *Rect)
	walk = func(id pager.PageID, depth int, bound *Rect) {
		n := tr.ReadNode(id)
		if bound != nil {
			for _, e := range n.Entries {
				for i := range e.Rect.Lo {
					if e.Rect.Lo[i] < bound.Lo[i]-1e-12 || e.Rect.Hi[i] > bound.Hi[i]+1e-12 {
						t.Fatalf("entry MBB %v escapes parent bound %v", e.Rect, *bound)
					}
				}
			}
		}
		if id != tr.Root() {
			min := tr.minInt
			if n.Leaf {
				min = tr.minLeaf
			}
			if len(n.Entries) < min {
				t.Fatalf("node %d underfull: %d entries < min %d", id, len(n.Entries), min)
			}
		}
		if n.Leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				t.Fatalf("leaves at different depths: %d and %d", leafDepth, depth)
			}
			for _, e := range n.Entries {
				if _, dup := seen[e.RecID]; dup {
					t.Fatalf("record %d appears twice", e.RecID)
				}
				seen[e.RecID] = e.Point()
			}
			return
		}
		for _, e := range n.Entries {
			r := e.Rect
			walk(e.Child, depth+1, &r)
		}
	}
	walk(tr.Root(), 0, nil)
	if len(seen) != len(want) {
		t.Fatalf("tree holds %d records, want %d", len(seen), len(want))
	}
	for id, p := range want {
		if got, ok := seen[id]; !ok || !vec.Equal(got, p, 0) {
			t.Fatalf("record %d: got %v, want %v", id, got, p)
		}
	}
}

func TestInsertSmall(t *testing.T) {
	tr := New(pager.NewMemStore(), 2)
	want := map[int64]vec.Vector{}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		p := vec.Vector{r.Float64(), r.Float64()}
		tr.Insert(int64(i), p)
		want[int64(i)] = p
	}
	if tr.Len() != 500 {
		t.Errorf("Len = %d", tr.Len())
	}
	checkInvariants(t, tr, want)
}

func TestInsertHighDim(t *testing.T) {
	for _, d := range []int{3, 5, 8} {
		tr := New(pager.NewMemStore(), d)
		want := map[int64]vec.Vector{}
		r := rand.New(rand.NewSource(int64(d)))
		for i := 0; i < 300; i++ {
			p := make(vec.Vector, d)
			for j := range p {
				p[j] = r.Float64()
			}
			tr.Insert(int64(i), p)
			want[int64(i)] = p
		}
		checkInvariants(t, tr, want)
	}
}

func TestBulkLoadInvariants(t *testing.T) {
	for _, n := range []int{1, 10, 100, 5000} {
		for _, d := range []int{2, 4, 6} {
			r := rand.New(rand.NewSource(int64(n*10 + d)))
			pts := randPoints(r, n, d)
			tr := BulkLoad(pager.NewMemStore(), d, pts, nil)
			if tr.Len() != n {
				t.Fatalf("n=%d d=%d: Len = %d", n, d, tr.Len())
			}
			// Bulk-loaded trees may have slightly underfull boundary nodes,
			// so check only containment/depth/record completeness.
			seen := map[int64]bool{}
			leafDepth := -1
			var walk func(id pager.PageID, depth int, bound *Rect)
			walk = func(id pager.PageID, depth int, bound *Rect) {
				node := tr.ReadNode(id)
				if bound != nil {
					for _, e := range node.Entries {
						for i := range e.Rect.Lo {
							if e.Rect.Lo[i] < bound.Lo[i]-1e-12 || e.Rect.Hi[i] > bound.Hi[i]+1e-12 {
								t.Fatalf("MBB escape")
							}
						}
					}
				}
				if node.Leaf {
					if leafDepth == -1 {
						leafDepth = depth
					} else if leafDepth != depth {
						t.Fatalf("unbalanced leaves")
					}
					for _, e := range node.Entries {
						seen[e.RecID] = true
					}
					return
				}
				for _, e := range node.Entries {
					rr := e.Rect
					walk(e.Child, depth+1, &rr)
				}
			}
			walk(tr.Root(), 0, nil)
			if len(seen) != n {
				t.Fatalf("n=%d d=%d: %d records in leaves", n, d, len(seen))
			}
		}
	}
}

func TestBulkLoadEmpty(t *testing.T) {
	tr := BulkLoad(pager.NewMemStore(), 3, nil, nil)
	if tr.Len() != 0 {
		t.Errorf("Len = %d", tr.Len())
	}
	checkInvariants(t, tr, nil)
}

func TestDelete(t *testing.T) {
	tr := New(pager.NewMemStore(), 2)
	r := rand.New(rand.NewSource(2))
	pts := randPoints(r, 400, 2)
	want := map[int64]vec.Vector{}
	for i, p := range pts {
		tr.Insert(int64(i), p)
		want[int64(i)] = p
	}
	// Delete 300 random records.
	perm := r.Perm(400)
	for _, i := range perm[:300] {
		if !tr.Delete(int64(i), pts[i]) {
			t.Fatalf("Delete(%d) failed", i)
		}
		delete(want, int64(i))
	}
	if tr.Len() != 100 {
		t.Errorf("Len = %d, want 100", tr.Len())
	}
	checkInvariants(t, tr, want)
	// Deleting a missing record fails cleanly.
	if tr.Delete(int64(perm[0]), pts[perm[0]]) {
		t.Error("Delete of a removed record succeeded")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	for _, d := range []int{2, 5, 8} {
		tr := New(pager.NewMemStore(), d)
		r := rand.New(rand.NewSource(int64(d)))
		pts := randPoints(r, 50, d)
		for i, p := range pts {
			tr.Insert(int64(i)*7, p)
		}
		// Every record must round-trip bit-exactly through the page store.
		found := map[int64]vec.Vector{}
		var walk func(id pager.PageID)
		walk = func(id pager.PageID) {
			n := tr.ReadNode(id)
			for _, e := range n.Entries {
				if n.Leaf {
					found[e.RecID] = e.Point()
				} else {
					walk(e.Child)
				}
			}
		}
		walk(tr.Root())
		for i, p := range pts {
			got, ok := found[int64(i)*7]
			if !ok || !vec.Equal(got, p, 0) {
				t.Fatalf("d=%d: record %d corrupted: %v vs %v", d, i, got, p)
			}
		}
	}
}

func TestIOAccounting(t *testing.T) {
	store := pager.NewMemStore()
	r := rand.New(rand.NewSource(3))
	pts := randPoints(r, 2000, 2)
	tr := BulkLoad(store, 2, pts, nil)
	store.ResetStats()
	// One root-to-leaf descent reads one page per level and writes none.
	for n := tr.ReadNode(tr.Root()); !n.Leaf; n = tr.ReadNode(n.Entries[0].Child) {
	}
	s := store.Stats()
	if s.Reads != int64(tr.Height()) {
		t.Errorf("a descent of a height-%d tree counted %d reads", tr.Height(), s.Reads)
	}
	if s.Reads >= int64(store.NumPages()) {
		t.Errorf("a descent read %d of %d pages", s.Reads, store.NumPages())
	}
	if s.Writes != 0 {
		t.Errorf("read-only descent performed %d writes", s.Writes)
	}
}

func TestCapacitiesMatchPageSize(t *testing.T) {
	for d := 2; d <= 8; d++ {
		maxLeaf, maxInt := capacities(d)
		if nodeHeader+maxLeaf*(8+8*d) > pager.PageSize {
			t.Errorf("d=%d: leaf layout exceeds page", d)
		}
		if nodeHeader+maxInt*(4+16*d) > pager.PageSize {
			t.Errorf("d=%d: internal layout exceeds page", d)
		}
		if maxLeaf < 4 || maxInt < 4 {
			t.Errorf("d=%d: fan-out too small (%d, %d)", d, maxLeaf, maxInt)
		}
	}
}

func TestRectOps(t *testing.T) {
	a := Rect{Lo: vec.Vector{0, 0}, Hi: vec.Vector{2, 1}}
	b := Rect{Lo: vec.Vector{1, 0.5}, Hi: vec.Vector{3, 2}}
	if a.Area() != 2 {
		t.Errorf("Area = %v", a.Area())
	}
	if a.Margin() != 3 {
		t.Errorf("Margin = %v", a.Margin())
	}
	if got := a.OverlapArea(b); got != 0.5 {
		t.Errorf("OverlapArea = %v", got)
	}
	if !a.Intersects(b) || a.Intersects(Rect{Lo: vec.Vector{5, 5}, Hi: vec.Vector{6, 6}}) {
		t.Error("Intersects wrong")
	}
	u := Rect{Lo: vec.Vector{9, 9}, Hi: vec.Vector{9, 9}}
	if !enlargeInto(u, a, b) || !vec.Equal(u.Lo, vec.Vector{0, 0}, 0) || !vec.Equal(u.Hi, vec.Vector{3, 2}, 0) {
		t.Errorf("enlargeInto = %v", u)
	}
	if enlargeInto(u, a, PointRect(vec.Vector{1, 1})) || !vec.Equal(u.Lo, a.Lo, 0) || !vec.Equal(u.Hi, a.Hi, 0) {
		t.Errorf("enlargeInto by an inner point = %v", u)
	}
	if !vec.Equal(a.Center(), vec.Vector{1, 0.5}, 0) {
		t.Errorf("Center = %v", a.Center())
	}
}

// Property: after mixed inserts and deletes the tree holds exactly the live
// records, with its structural invariants intact.
func TestMixedWorkloadProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 2 + r.Intn(2)
		tr := New(pager.NewMemStore(), d)
		live := map[int64]vec.Vector{}
		nextID := int64(0)
		for op := 0; op < 300; op++ {
			if r.Float64() < 0.7 || len(live) == 0 {
				p := make(vec.Vector, d)
				for j := range p {
					p[j] = r.Float64()
				}
				tr.Insert(nextID, p)
				live[nextID] = p
				nextID++
			} else {
				for id, p := range live {
					if !tr.Delete(id, p) {
						return false
					}
					delete(live, id)
					break
				}
			}
		}
		if tr.Len() != len(live) {
			return false
		}
		checkInvariants(t, tr, live)
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(67))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
