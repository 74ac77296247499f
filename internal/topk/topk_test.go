package topk

import (
	"encoding/binary"
	"hash/fnv"
	"math"
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

// buildTiedTree is buildTree on a five-step grid: every coordinate is one
// of {0, ¼, ½, ¾, 1}, so exact score ties are the common case.
func buildTiedTree(r *rand.Rand, n, d int) *rtree.Tree {
	pts := make([]vec.Vector, n)
	for i := range pts {
		pts[i] = make(vec.Vector, d)
		for j := range pts[i] {
			pts[i][j] = float64(r.Intn(5)) / 4
		}
	}
	return rtree.BulkLoad(pager.NewMemStore(), d, pts, nil)
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
			blk := tree.ReadBlock(id, &rtree.NodeBlock{})
			for _, rid := range blk.RecIDs {
				seen[rid]++
			}
			for _, child := range blk.Children {
				collect(child)
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
			blk := tree.ReadBlock(id, &rtree.NodeBlock{})
			p := make(vec.Vector, d)
			for i := range blk.RecIDs {
				if (score.Linear{}).Score(blk.Point(i, p), q) > bound+1e-9 {
					ok = false
				}
			}
			for _, child := range blk.Children {
				walk(child, bound)
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

// TestTSortedByScore holds a retaining BRS to its contract, on continuous
// and on tied data: the Records come out in the record order (score desc,
// id asc); T comes out in traversal order, every record of it ranks behind
// the k-th, and SortRecords puts it in the record order; and the sorted T
// — the non-result records the traversal met — is the set BRS has always
// returned, pinned by a hash of its (id, score) sequence over 40 queries.
func TestTSortedByScore(t *testing.T) {
	const pinned = 0x5c9a55ae446dfa8e
	r := rand.New(rand.NewSource(11))
	inOrder := func(recs []Record) bool {
		for i := 1; i < len(recs); i++ {
			if a, b := recs[i-1], recs[i]; a.Score < b.Score || (a.Score == b.Score && a.ID >= b.ID) {
				return false
			}
		}
		return true
	}
	cont, _, _ := buildTree(r, 500, 3)
	h := fnv.New64a()
	var buf [16]byte
	for _, tree := range []*rtree.Tree{cont, buildTiedTree(r, 2000, 3)} {
		for i := 0; i < 20; i++ {
			res := BRS(tree, score.Linear{}, randQuery(r, 3), 1+r.Intn(20))
			if !inOrder(res.Records) {
				t.Fatalf("query %d: the Records are not in the record order", i)
			}
			sorted := slices.Clone(res.T)
			SortRecords(sorted)
			if !inOrder(sorted) {
				t.Fatalf("query %d: SortRecords left T out of the record order", i)
			}
			for _, rec := range sorted {
				if !inOrder([]Record{res.Kth(), rec}) {
					t.Fatalf("query %d: T record %d (score %v) ranks ahead of the k-th record %d (score %v)", i, rec.ID, rec.Score, res.Kth().ID, res.Kth().Score)
				}
				binary.LittleEndian.PutUint64(buf[:8], uint64(rec.ID))
				binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(rec.Score))
				h.Write(buf[:])
			}
		}
	}
	if got := h.Sum64(); got != pinned {
		t.Fatalf("the sorted T hashes to %#x, pinned %#x: a traversal met other records", got, pinned)
	}
}

// TestTOrderMatchesSortSlice: materialize copies T out in the order the
// traversal met it, and SortRecords sorts it by the records' total order,
// whose oracle is sort.Slice on (score desc, id asc). Scores are drawn
// from 1–50 distinct values and ids are a shuffled permutation, so ties
// are the common case and each must land by id: T holds the losers in
// the order they were met, and the sorted id sequences are identical,
// from 0 records (where T stays nil) to 3 000, with losing nodes between
// them. The Records, a k-slot of 0, stay empty.
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
		var met, want []Record
		for i, id := range r.Perm(n) {
			if r.Intn(4) == 0 {
				ref := gs.putRect([]float64{0, 0}, []float64{1, 1})
				gs.hlist = append(gs.hlist, item{key: r.Float64(), tie: int64(i), ref: ref})
			}
			p := []float64{r.Float64(), r.Float64()}
			ref := len(gs.arena)
			gs.arena = append(gs.arena, p...)
			s := float64(r.Intn(distinct))
			gs.tlist = append(gs.tlist, item{key: s, tie: int64(id), ref: ref})
			met = append(met, Record{ID: int64(id), Point: p, Score: s})
		}
		want = slices.Clone(met)
		sort.Slice(want, func(i, j int) bool {
			if want[i].Score != want[j].Score {
				return want[i].Score > want[j].Score
			}
			return want[i].ID < want[j].ID
		})
		res := gs.materialize(score.Linear{}, vec.Vector{0.5, 0.5}, d, 0, 0, retainAll)
		if len(res.T) != len(want) || (n == 0) != (res.T == nil) || len(res.Records) != 0 {
			t.Fatalf("trial %d: T has %d records (nil %v), want %d; %d Records", trial, len(res.T), res.T == nil, len(want), len(res.Records))
		}
		same := func(what string, got, want []Record) {
			for i, rec := range got {
				if rec.ID != want[i].ID || rec.Score != want[i].Score || !slices.Equal(rec.Point, want[i].Point) {
					t.Fatalf("trial %d (%d records, %d scores): %s[%d] = %d, want %d", trial, n, distinct, what, i, rec.ID, want[i].ID)
				}
			}
		}
		same("T", res.T, met)
		SortRecords(res.T)
		same("sorted T", res.T, want)
	}
}
