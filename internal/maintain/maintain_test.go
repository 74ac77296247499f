package maintain

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/girlib/gir/internal/cache"
	gir "github.com/girlib/gir/internal/gir"
	"github.com/girlib/gir/internal/pager"
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

// fill computes one cacheable entry — result, region and its rays — and
// puts it into c.
func fill(t *testing.T, tree *rtree.Tree, c *cache.Cache, q vec.Vector, k int) {
	t.Helper()
	res := topk.BRS(tree, score.Linear{}, q, k)
	reg, _, err := gir.Compute(tree, res, gir.Options{Method: gir.FP})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Put(reg, res.Records) {
		t.Fatal("Put failed")
	}
}

// setup builds a tree plus a cache holding entries for `queries` random
// query vectors.
func setup(t *testing.T, seed int64, n, d, k, queries int) (*rtree.Tree, *cache.Cache, []vec.Vector) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	pts := make([]vec.Vector, n)
	for i := range pts {
		pts[i] = make(vec.Vector, d)
		for j := range pts[i] {
			pts[i][j] = r.Float64()
		}
	}
	tree := rtree.BulkLoad(pager.NewMemStore(), d, pts, nil)
	c := cache.New(queries * 2)
	qs := make([]vec.Vector, queries)
	for i := range qs {
		q := make(vec.Vector, d)
		for j := range q {
			q[j] = 0.2 + 0.7*r.Float64()
		}
		qs[i] = q
		fill(t, tree, c, q, k)
	}
	return tree, c, qs
}

// TestDrainBulkAbsorb: a batch of unaffecting inserts is absorbed in one
// pass — one scan, every (mutation, entry) pair evaluated once, and every
// entry kept as it was.
func TestDrainBulkAbsorb(t *testing.T) {
	_, c, _ := setup(t, 1, 300, 3, 5, 4)
	before := c.Entries()
	const b = 8
	batch := make([]Mutation, b)
	for i := range batch {
		// Points near the origin are dominated by every k-th record: provably
		// unaffecting for all entries.
		batch[i] = Mutation{Version: int64(i + 1), Insert: true, ID: int64(9000 + i), Point: vec.Vector{0.01, 0.01, 0.01}}
	}
	var p Planner
	out := p.Drain(c, batch)
	if out.Scans != 1 {
		t.Fatalf("Scans = %d, want 1", out.Scans)
	}
	if out.Evicted != 0 {
		t.Fatalf("unaffecting batch evicted: %+v", out)
	}
	if out.Entries != 4 {
		t.Fatalf("Entries = %d, want 4", out.Entries)
	}
	if out.Predicates != int64(b*out.Entries) {
		t.Fatalf("Predicates = %d, want %d (every (mutation, entry) pair once)", out.Predicates, b*out.Entries)
	}
	after := c.Entries()
	if len(after) != len(before) {
		t.Fatalf("%d entries after the pass, %d before", len(after), len(before))
	}
	for i := range after {
		if after[i] != before[i] {
			t.Fatal("an unaffected entry was replaced")
		}
	}
}

// TestDrainEvictShortCircuits: once a mutation evicts an entry, the rest
// of the batch is never evaluated against it.
func TestDrainEvictShortCircuits(t *testing.T) {
	_, c, _ := setup(t, 2, 300, 3, 5, 1)
	batch := []Mutation{
		{Version: 1, Insert: true, ID: 9001, Point: vec.Vector{0.999, 0.999, 0.999}}, // beats every result everywhere
		{Version: 2, Insert: true, ID: 9002, Point: vec.Vector{0.5, 0.5, 0.5}},
		{Version: 3, Insert: true, ID: 9003, Point: vec.Vector{0.6, 0.4, 0.5}},
	}
	var p Planner
	out := p.Drain(c, batch)
	if out.Evicted != 1 {
		t.Fatalf("outcome %+v, want 1 evicted", out)
	}
	if out.Predicates != 1 {
		t.Fatalf("Predicates = %d, want 1 (short-circuit after the eviction)", out.Predicates)
	}
	if c.Len() != 0 {
		t.Fatalf("entry survived an affecting mutation")
	}
}

// TestDrainEvictsAfterUnaffectingPrefix: an entry walks the batch until the
// first mutation that affects it — here the delete of one of its result
// records, after an insert it dominates — and is evicted there; an entry that does
// not hold the deleted record is kept, after seeing the whole batch.
func TestDrainEvictsAfterUnaffectingPrefix(t *testing.T) {
	_, c, qs := setup(t, 5, 400, 3, 6, 2)
	var victim, other *cache.Entry
	for _, e := range c.Entries() {
		if vec.Equal(e.Region.Query, qs[0], 0) {
			victim = e
		} else {
			other = e
		}
	}
	// The victim's lowest-ranked record the other entry does not hold.
	var gone int64 = -1
	for _, r := range victim.Records {
		if !slices.ContainsFunc(other.Records, func(o topk.Record) bool { return o.ID == r.ID }) {
			gone = r.ID
		}
	}
	if gone < 0 {
		t.Fatal("fixture: the two entries hold the same records")
	}
	batch := []Mutation{
		{Version: 1, Insert: true, ID: 9100, Point: vec.Vector{0.01, 0.01, 0.01}}, // affects neither entry
		{Version: 2, Insert: false, ID: gone},
		{Version: 3, Insert: true, ID: 9101, Point: vec.Vector{0.02, 0.01, 0.01}},
	}
	var p Planner
	out := p.Drain(c, batch)
	if out.Evicted != 1 || out.Predicates != 2+3 {
		t.Fatalf("outcome %+v, want 1 evicted after 2 predicates, and 3 for the kept entry", out)
	}
	if got := c.Entries(); len(got) != 1 || got[0] != other {
		t.Fatal("the pass did not evict exactly the entry holding the deleted record")
	}
}
