package cache

import (
	"math/rand"
	"testing"

	"github.com/girlib/gir/internal/gir"
	"github.com/girlib/gir/internal/pager"
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

func setup(t *testing.T, seed int64, n, d, k int) (*rtree.Tree, vec.Vector, *gir.Region, []topk.Record) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	pts := make([]vec.Vector, n)
	for i := range pts {
		pts[i] = make(vec.Vector, d)
		for j := range pts[i] {
			pts[i][j] = r.Float64()
		}
	}
	q := make(vec.Vector, d)
	for j := range q {
		q[j] = 0.2 + 0.7*r.Float64()
	}
	tree := rtree.BulkLoad(pager.NewMemStore(), d, pts, nil)
	res := topk.BRS(tree, score.Linear{}, q, k)
	recs := res.Records
	reg, _, err := gir.Compute(tree, res, gir.Options{Method: gir.FP})
	if err != nil {
		t.Fatal(err)
	}
	return tree, q, reg, recs
}

func TestHitServesCorrectResult(t *testing.T) {
	tree, q, reg, recs := setup(t, 1, 300, 3, 10)
	c := New(4)
	if !c.Put(reg, recs) {
		t.Fatal("Put failed")
	}
	// The original query must hit.
	e, ok := c.Lookup(q, 10)
	if !ok {
		t.Fatal("lookup of the original query missed")
	}
	if len(e.Records) != 10 {
		t.Fatalf("%d cached records", len(e.Records))
	}
	// Any vector inside the GIR must produce the same top-k; verify
	// against a fresh BRS run.
	q2 := q.Clone()
	q2[0] *= 0.999 // tiny nudge, almost surely still inside
	if reg.Contains(q2, 0) {
		e2, ok := c.Lookup(q2, 10)
		if !ok {
			t.Fatal("in-region query missed")
		}
		fresh := topk.BRS(tree, score.Linear{}, q2, 10)
		for i := range fresh.Records {
			if fresh.Records[i].ID != e2.Records[i].ID {
				t.Fatalf("cached result differs from fresh result at rank %d", i)
			}
		}
	}
	hits, _, misses := c.Stats()
	if hits == 0 || misses != 0 {
		t.Errorf("stats: hits=%d misses=%d", hits, misses)
	}
}

func TestMissOutsideRegion(t *testing.T) {
	_, q, reg, recs := setup(t, 2, 300, 3, 5)
	c := New(4)
	c.Put(reg, recs)
	// A far-away query vector should miss unless the GIR is huge.
	far := q.Clone()
	far[0] = 0.001
	far[1] = 0.999
	if reg.Contains(far, 0) {
		t.Skip("region unexpectedly covers the probe")
	}
	if _, ok := c.Lookup(far, 5); ok {
		t.Error("lookup outside the region hit")
	}
	_, _, misses := c.Stats()
	if misses != 1 {
		t.Errorf("misses = %d", misses)
	}
}

func TestSmallerKPrefix(t *testing.T) {
	tree, q, reg, recs := setup(t, 3, 300, 2, 10)
	c := New(4)
	c.Put(reg, recs)
	e, ok := c.Lookup(q, 3)
	if !ok {
		t.Fatal("missed")
	}
	fresh := topk.BRS(tree, score.Linear{}, q, 3)
	for i := 0; i < 3; i++ {
		if e.Records[i].ID != fresh.Records[i].ID {
			t.Fatalf("prefix rank %d differs", i)
		}
	}
}

func TestLargerKIsPartial(t *testing.T) {
	_, q, reg, recs := setup(t, 4, 300, 2, 5)
	c := New(4)
	c.Put(reg, recs)
	e, ok := c.Lookup(q, 20)
	if !ok {
		t.Fatal("partial lookup missed")
	}
	if e.K != 5 {
		t.Errorf("entry K = %d", e.K)
	}
	_, partial, _ := c.Stats()
	if partial != 1 {
		t.Errorf("partial = %d", partial)
	}
}

func TestRejectsOrderInsensitive(t *testing.T) {
	c := New(2)
	reg := &gir.Region{Dim: 2, Query: vec.Vector{0.5, 0.5}, OrderSensitive: false}
	if c.Put(reg, nil) {
		t.Error("order-insensitive region accepted")
	}
	if c.Put(nil, nil) {
		t.Error("nil region accepted")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	regions := make([]*gir.Region, 3)
	queries := make([]vec.Vector, 3)
	for i := range regions {
		_, q, reg, recs := setup(t, int64(10+i), 200, 2, 3)
		regions[i], queries[i] = reg, recs[0].Point // placeholder
		_ = recs
		c.Put(reg, recs)
		queries[i] = q
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want capacity 2", c.Len())
	}
	// Entry 0 was least recently used and must be gone (entries 1,2 newer).
	if _, ok := c.Lookup(queries[0], 3); ok {
		// Only acceptable if a newer region also happens to contain it.
		in1 := regions[1].Contains(queries[0], 0)
		in2 := regions[2].Contains(queries[0], 0)
		if !in1 && !in2 {
			t.Error("evicted entry still served")
		}
	}
}

// TestConeContainsMatchesRegion: the probe's cone test, two rows at a
// time, gives Region.Contains's verdict for every vector inside the
// domain — with odd and even constraint counts, and rows whose dot with
// the vector is exactly zero (kept) or the smallest negative (refused).
func TestConeContainsMatchesRegion(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 2000; trial++ {
		d := 2 + r.Intn(5)
		q := make(vec.Vector, d)
		for j := range q {
			q[j] = r.Float64()
		}
		reg := &gir.Region{Dim: d, Query: q, OrderSensitive: true}
		for c := r.Intn(10); c > 0; c-- {
			n := make(vec.Vector, d)
			switch r.Intn(4) {
			case 0: // orthogonal to q: the dot is exactly zero
				n[0], n[1] = q[1], -q[0]
			case 1: // a hair below zero
				n[0], n[1] = q[1], -q[0]
				n[d-1] -= 1e-300
			default:
				for j := range n {
					n[j] = 0.2*r.Float64() - 0.02
				}
			}
			reg.Constraints = append(reg.Constraints, gir.Constraint{Normal: n})
		}
		e := NewEntry(reg, nil)
		if got, want := e.coneContains(q), reg.Contains(q, 0); got != want {
			t.Fatalf("trial %d (d=%d, %d constraints): coneContains %v, Region.Contains %v", trial, d, len(reg.Constraints), got, want)
		}
	}
}
