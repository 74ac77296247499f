package shard

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	gir "github.com/girlib/gir"
)

// genPoints builds a deterministic point set in [0,1]^d.
func genPoints(seed int64, n, d int) [][]float64 {
	r := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		for j := range p {
			p[j] = r.Float64()
		}
		pts[i] = p
	}
	return pts
}

// bruteTopK is the oracle: plain-loop dot products over a mirror of the
// logical dataset, sorted (score desc, id asc) — the order every ranking
// uses — in the same arithmetic order the engine scores with, so
// agreement is exact, not approximate.
func bruteTopK(state map[int64][]float64, q []float64, k int) []gir.Record {
	recs := make([]gir.Record, 0, len(state))
	for id, p := range state {
		s := 0.0
		for j := range q {
			s += q[j] * p[j]
		}
		recs = append(recs, gir.Record{ID: id, Attrs: p, Score: s})
	}
	sort.Slice(recs, func(a, b int) bool {
		if recs[a].Score != recs[b].Score {
			return recs[a].Score > recs[b].Score
		}
		return recs[a].ID < recs[b].ID
	})
	return recs[:k]
}

func mirrorOf(points [][]float64) map[int64][]float64 {
	m := make(map[int64][]float64, len(points))
	for i, p := range points {
		m[int64(i)] = p
	}
	return m
}

func sameRecords(got, want []gir.Record) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].ID != want[i].ID ||
			math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return false
		}
		for j := range got[i].Attrs {
			if got[i].Attrs[j] != want[i].Attrs[j] {
				return false
			}
		}
	}
	return true
}

// TestTopKMatchesSingleEngine: in both spaces every TopK answer is
// byte-equal to the brute-force oracle over the same records, and a k past
// the cardinality is refused.
func TestTopKMatchesSingleEngine(t *testing.T) {
	points := genPoints(7, 800, 3)
	mirror := mirrorOf(points)
	for _, space := range []gir.Space{gir.SpaceBox, gir.SpaceSimplex} {
		c, err := New(points, Options{Space: space})
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(int64(space) + 1))
		for i := 0; i < 50; i++ {
			q := []float64{0.1 + 0.8*r.Float64(), 0.1 + 0.8*r.Float64(), 0.1 + 0.8*r.Float64()}
			if space == gir.SpaceSimplex {
				sum := q[0] + q[1] + q[2]
				for j := range q {
					q[j] /= sum
				}
			}
			k := 1 + r.Intn(16)
			res := c.TopK(q, k)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if !sameRecords(res.Records, bruteTopK(mirror, q, k)) {
				t.Fatalf("space %v query %d: top-%d diverges from brute force", space, i, k)
			}
		}
		if res := c.TopK([]float64{0.5, 0.3, 0.2}, len(points)+1); res.Err == nil {
			t.Fatal("k beyond the cardinality accepted")
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeleteWrongDimensionRefused: with the Engine attached, the dataset's
// Delete refuses a point of another dimension, the dataset keeps taking
// writes, and the Engine answers over them.
func TestDeleteWrongDimensionRefused(t *testing.T) {
	points := genPoints(3, 400, 3)
	c, err := New(points, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if ok, err := c.ds.Delete(5, []float64{0.5, 0.5, 0.5, 0.5}); err == nil || ok {
		t.Fatalf("Delete with a 4-d point = %v, %v; want an error", ok, err)
	}
	if err := c.ds.Insert(9001, []float64{0.5, 0.5, 0.5}); err != nil {
		t.Fatalf("Insert after a refused delete: %v", err)
	}
	if ok, err := c.ds.Delete(5, points[5]); err != nil || !ok {
		t.Fatalf("Delete after a refused delete = %v, %v", ok, err)
	}
	mirror := mirrorOf(points)
	delete(mirror, 5)
	mirror[9001] = []float64{0.5, 0.5, 0.5}
	q := []float64{0.4, 0.35, 0.25}
	res := c.TopK(q, 10)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !sameRecords(res.Records, bruteTopK(mirror, q, 10)) {
		t.Fatal("top-10 after the writes diverges from brute force")
	}
}

// TestBatchTopKMatchesLoop: a batch answers each query as a call of its
// own does.
func TestBatchTopKMatchesLoop(t *testing.T) {
	points := genPoints(11, 500, 3)
	c, err := New(points, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := rand.New(rand.NewSource(2))
	queries := make([]gir.Query, 24)
	for i := range queries {
		queries[i] = gir.Query{
			Vector: []float64{r.Float64(), r.Float64(), r.Float64()},
			K:      1 + r.Intn(8),
		}
	}
	batch := c.BatchTopK(queries)
	for i, q := range queries {
		single := c.TopK(q.Vector, q.K)
		if batch[i].Err != nil || single.Err != nil {
			t.Fatal(batch[i].Err, single.Err)
		}
		if !sameRecords(batch[i].Records, single.Records) {
			t.Fatalf("query %d: batch and single answers diverge", i)
		}
	}
}
