package gir_test

import (
	"math"
	"math/rand"
	"testing"

	gir "github.com/girlib/gir"
	"github.com/girlib/gir/internal/pager"
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

// This file holds every way a ranking is served to one total order,
// (score desc, id asc), on data built to tie: coordinates on a five-step
// grid, so 4 000 records in three dimensions take only 125 distinct
// points, and every query meets exact score ties at and around its k-th
// record. The oracle is topk.Scan over an independently bulk-loaded tree:
// it scores every record with the same kernel and sorts the lot.

const tiedN, tiedD, tiedQueries = 4000, 3, 200

// tiedPoints draws n points with every coordinate in {0, ¼, ½, ¾, 1}.
func tiedPoints(r *rand.Rand, n, d int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, d)
		for j := range pts[i] {
			pts[i][j] = float64(r.Intn(5)) / 4
		}
	}
	return pts
}

// tiedQueryList draws the queries and their ks (1–30).
func tiedQueryList(r *rand.Rand, n, d int) []gir.Query {
	qs := make([]gir.Query, n)
	for i := range qs {
		q := make([]float64, d)
		for j := range q {
			q[j] = 0.05 + 0.9*r.Float64()
		}
		qs[i] = gir.Query{Vector: q, K: 1 + r.Intn(30)}
	}
	return qs
}

// scanOracle answers each query with topk.Scan over its own tree of pts,
// ids being the point indices as gir.NewDataset numbers them.
func scanOracle(pts [][]float64, qs []gir.Query) [][]topk.Record {
	vs := make([]vec.Vector, len(pts))
	for i, p := range pts {
		vs[i] = p
	}
	tree := rtree.BulkLoad(pager.NewMemStore(), len(pts[0]), vs, nil)
	out := make([][]topk.Record, len(qs))
	for i, q := range qs {
		out[i] = topk.Scan(tree, score.Linear{}, q.Vector, q.K)
	}
	return out
}

// sameRanking fails the test unless got is want, id for id and score bit
// for bit.
func sameRanking(t *testing.T, tag string, qi int, got []gir.Record, want []topk.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s, query %d: %d records, want %d", tag, qi, len(got), len(want))
	}
	for i, w := range want {
		if g := got[i]; g.ID != w.ID || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			t.Fatalf("%s, query %d, rank %d: (%d, %v), the canonical order has (%d, %v)", tag, qi, i, g.ID, g.Score, w.ID, w.Score)
		}
	}
}

// TestTiedDataCanonicalOrder is the tied-data differential: Dataset.TopK,
// an engine's cold fill and its hit on the same vector, and an uncached
// BatchTopK (the records-only traversal, fused over near-repeats) all serve
// topk.Scan's order.
func TestTiedDataCanonicalOrder(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	pts := tiedPoints(r, tiedN, tiedD)
	qs := tiedQueryList(r, tiedQueries, tiedD)
	// A jittered near-repeat of each query, so the uncached batch fuses.
	for _, q := range qs[:tiedQueries] {
		v := append([]float64(nil), q.Vector...)
		for j := range v {
			v[j] += 1e-7 * r.NormFloat64()
		}
		qs = append(qs, gir.Query{Vector: v, K: q.K})
	}
	want := scanOracle(pts, qs)

	ds, err := gir.NewDataset(pts)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs[:tiedQueries] {
		res, err := ds.TopK(q.Vector, q.K)
		if err != nil {
			t.Fatal(err)
		}
		sameRanking(t, "Dataset.TopK", i, res.Records, want[i])
	}

	for i, q := range qs[:tiedQueries] {
		e := gir.NewEngine(ds, gir.EngineOptions{Workers: 1, CacheCapacity: 4})
		fill := e.TopK(q.Vector, q.K)
		again := e.TopK(q.Vector, q.K)
		e.Close()
		if fill.Err != nil || again.Err != nil {
			t.Fatalf("query %d: %v, %v", i, fill.Err, again.Err)
		}
		if fill.CacheHit || !again.CacheHit {
			t.Fatalf("query %d: hit %v, then %v; want a fill, then a hit", i, fill.CacheHit, again.CacheHit)
		}
		sameRanking(t, "engine fill", i, fill.Records, want[i])
		sameRanking(t, "engine hit", i, again.Records, want[i])
	}

	e := gir.NewEngine(ds, gir.EngineOptions{Workers: 2, CacheCapacity: -1})
	for i, res := range e.BatchTopK(qs) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		sameRanking(t, "uncached BatchTopK", i, res.Records, want[i])
	}
	if e.Stats().FusedQueries == 0 {
		t.Error("the uncached batch fused no queries")
	}
	e.Close()
}

// TestTiedDataInsertionOrder: the same tied points, bulk-loaded and
// grown from record 0 by inserting the rest one by one in a shuffled
// order, give identical results — the
// page layout of a tree does not reach the order of its ties.
func TestTiedDataInsertionOrder(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	pts := tiedPoints(r, tiedN, tiedD)
	qs := tiedQueryList(r, tiedQueries, tiedD)
	want := scanOracle(pts, qs)

	bulk, err := gir.NewDataset(pts)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := gir.NewDataset(pts[:1])
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range r.Perm(len(pts)) {
		if i == 0 {
			continue
		}
		if err := grown.Insert(int64(i), pts[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i, q := range qs {
		a, err := bulk.TopK(q.Vector, q.K)
		if err != nil {
			t.Fatal(err)
		}
		b, err := grown.TopK(q.Vector, q.K)
		if err != nil {
			t.Fatal(err)
		}
		sameRanking(t, "bulk-loaded", i, a.Records, want[i])
		sameRanking(t, "inserted one by one", i, b.Records, want[i])
	}
}
