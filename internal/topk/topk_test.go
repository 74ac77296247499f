package topk

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"github.com/girlib/gir/internal/pager"
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/vec"
)

func buildTree(r *rand.Rand, n, d int) (*rtree.Tree, []vec.Vector, *pager.MemStore) {
	pts := make([]vec.Vector, n)
	for i := range pts {
		pts[i] = make(vec.Vector, d)
		for j := range pts[i] {
			pts[i][j] = r.Float64()
		}
	}
	store := pager.NewMemStore()
	tree := rtree.BulkLoad(store, d, pts, nil)
	return tree, pts, store
}

func randQuery(r *rand.Rand, d int) vec.Vector {
	q := make(vec.Vector, d)
	for j := range q {
		q[j] = 0.05 + 0.95*r.Float64() // strictly positive weights
	}
	return q
}

// Property: BRS returns exactly the same records, in the same order, as a
// full scan, for every scoring function.
func TestBRSMatchesScan(t *testing.T) {
	fns := func(d int) []score.Function {
		return []score.Function{score.Linear{}, score.NewPolynomial(d), score.Mixed{}}
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 2 + r.Intn(4)
		n := 50 + r.Intn(500)
		tree, _, _ := buildTree(r, n, d)
		q := randQuery(r, d)
		k := 1 + r.Intn(20)
		if k > n {
			k = n
		}
		for _, fn := range fns(d) {
			got := BRS(tree, fn, q, k)
			want := Scan(tree, fn, q, k)
			if len(got.Records) != k {
				return false
			}
			for i := range want {
				if got.Records[i].ID != want[i].ID {
					return false
				}
				if got.Records[i].Score != want[i].Score {
					return false
				}
			}
			// Scores must be non-increasing.
			for i := 1; i < k; i++ {
				if got.Records[i].Score > got.Records[i-1].Score {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(73))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: the retained state is complete — result ∪ T ∪ (records under
// retained heap subtrees) = the whole dataset, with no overlaps.
func TestBRSRetainedStateComplete(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 2 + r.Intn(3)
		n := 100 + r.Intn(400)
		tree, _, _ := buildTree(r, n, d)
		q := randQuery(r, d)
		k := 1 + r.Intn(30)
		res := BRS(tree, score.Linear{}, q, k)

		seen := map[int64]int{}
		for _, rec := range res.Records {
			seen[rec.ID]++
		}
		for _, rec := range res.T {
			seen[rec.ID]++
		}
		var collect func(id pager.PageID)
		collect = func(id pager.PageID) {
			node := tree.ReadNode(id)
			for _, e := range node.Entries {
				if node.Leaf {
					seen[e.RecID]++
				} else {
					collect(e.Child)
				}
			}
		}
		for _, it := range *res.Heap {
			collect(it.Child)
		}
		if len(seen) != n {
			return false
		}
		for _, count := range seen {
			if count != 1 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(79))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: heap keys are valid upper bounds — every record beneath a
// retained heap entry scores at most the entry's key, and at most the k-th
// result score.
func TestBRSHeapKeysAreUpperBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 2 + r.Intn(3)
		tree, _, _ := buildTree(r, 300, d)
		q := randQuery(r, d)
		res := BRS(tree, score.Linear{}, q, 10)
		kth := res.Kth().Score
		ok := true
		var walk func(id pager.PageID, bound float64)
		walk = func(id pager.PageID, bound float64) {
			n := tree.ReadNode(id)
			for _, e := range n.Entries {
				if n.Leaf {
					if (score.Linear{}).Score(e.Point(), q) > bound+1e-9 {
						ok = false
					}
				} else {
					walk(e.Child, bound)
				}
			}
		}
		for _, it := range *res.Heap {
			if it.Key > kth+1e-9 {
				return false // BRS terminated too early
			}
			walk(it.Child, it.Key)
		}
		for _, rec := range res.T {
			if rec.Score > kth+1e-9 {
				return false
			}
		}
		return ok
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(83))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// BRS must read strictly fewer pages than a full scan on selective queries
// (I/O optimality is hard to assert exactly; we assert the pruning is
// substantial on a big uniform dataset).
func TestBRSIOPruning(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	tree, _, store := buildTree(r, 20000, 3)
	store.ResetStats()
	BRS(tree, score.Linear{}, vec.Vector{0.5, 0.3, 0.9}, 10)
	brsReads := store.Stats().Reads
	store.ResetStats()
	Scan(tree, score.Linear{}, vec.Vector{0.5, 0.3, 0.9}, 10)
	scanReads := store.Stats().Reads
	if brsReads*5 > scanReads {
		t.Errorf("BRS read %d pages, scan %d — insufficient pruning", brsReads, scanReads)
	}
}

func TestBRSPanicsOnBadK(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	tree, _, _ := buildTree(r, 10, 2)
	for _, k := range []int{0, -1, 11} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%d: expected panic", k)
				}
			}()
			BRS(tree, score.Linear{}, vec.Vector{0.5, 0.5}, k)
		}()
	}
}

func TestTSortedByScore(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	tree, _, _ := buildTree(r, 500, 3)
	res := BRS(tree, score.Linear{}, randQuery(r, 3), 5)
	for i := 1; i < len(res.T); i++ {
		if res.T[i].Score > res.T[i-1].Score {
			t.Fatal("T is not sorted by decreasing score")
		}
	}
}

// TestTOrderMatchesSortSlice: materialize sorts T as pointer-free keys
// with slices.SortFunc, and the oracle is what it replaced — the Records
// appended in heap order, then sort.Slice on decreasing score. Scores are
// drawn from 1–50 distinct values, so ties are the common case and every
// tie must keep the oracle's order: the id sequences are identical, from 0
// records (where T stays nil) to 3 000, with node items between them.
func TestTOrderMatchesSortSlice(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	const d = 2
	gs := new(GroupScratch)
	sizes := []int{0, 1, 2, 12, 13, 50, 3000}
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(3001)
		if trial < len(sizes) {
			n = sizes[trial]
		}
		distinct := 1 + r.Intn(50)
		gs.reset()
		var want []Record
		for i := 0; i < n; i++ {
			if r.Intn(4) == 0 {
				ref := gs.putRect([]float64{0, 0}, []float64{1, 1})
				gs.heap = append(gs.heap, brsItem{key: r.Float64(), child: 7, node: true, ref: ref})
			}
			p := []float64{r.Float64(), r.Float64()}
			ref := len(gs.arena)
			gs.arena = append(gs.arena, p...)
			s := float64(r.Intn(distinct))
			gs.heap = append(gs.heap, brsItem{key: s, id: int64(i), ref: ref})
			want = append(want, Record{ID: int64(i), Point: p, Score: s})
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Score > want[j].Score })
		res := gs.materialize(score.Linear{}, vec.Vector{0.5, 0.5}, d, 0)
		if len(res.T) != len(want) || (n == 0) != (res.T == nil) {
			t.Fatalf("trial %d: T has %d records (nil %v), want %d", trial, len(res.T), res.T == nil, len(want))
		}
		for i, rec := range res.T {
			if rec.ID != want[i].ID || rec.Score != want[i].Score || !slices.Equal(rec.Point, want[i].Point) {
				t.Fatalf("trial %d (%d records, %d scores): T[%d] = %d, want %d", trial, n, distinct, i, rec.ID, want[i].ID)
			}
		}
	}
}
