package shard

import (
	"math"
	"math/rand"
	"reflect"
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

// TestHashAssignerCoversAndBalances: the placement hash spreads indices
// over every partition evenly, and routes an insert and a later delete of
// one id to the same partition.
func TestHashAssignerCoversAndBalances(t *testing.T) {
	const parts, n = 4, 10000
	c, err := New(genPoints(5, n, 2), Options{Parts: parts})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for w, p := range c.Stats().Parts {
		if p.Records < n/parts/2 || p.Records > n/parts*2 {
			t.Fatalf("partition %d holds %d of %d records — hash placement is badly skewed: %+v", w, p.Records, n, c.Stats().Parts)
		}
	}
	for id := int64(n); id < n+20; id++ {
		p := []float64{0.3, 0.6}
		if err := c.Insert(id, p); err != nil {
			t.Fatal(err)
		}
		inserted := c.Versions()
		if ok, err := c.Delete(id, p); err != nil || !ok {
			t.Fatalf("delete of inserted record %d = %v, %v", id, ok, err)
		}
		deleted := c.Versions()
		moved := 0
		for w := range deleted {
			switch deleted[w] - inserted[w] {
			case 0:
			case 1:
				moved++
			default:
				t.Fatalf("delete of record %d moved the cut from %v to %v", id, inserted, deleted)
			}
		}
		if moved != 1 {
			t.Fatalf("delete of record %d advanced %d partitions", id, moved)
		}
	}
}

// TestEmptyPartitionRejected: three records cannot fill eight partitions,
// and a partition the hash leaves empty is refused.
func TestEmptyPartitionRejected(t *testing.T) {
	_, err := New(genPoints(1, 3, 3), Options{Parts: 8})
	if err == nil {
		t.Fatal("coordinator accepted an empty partition")
	}
}

// TestDeleteWrongDimensionRefused: the owning partition's Dataset.Delete
// refuses a point of another dimension, and the partition keeps taking
// writes.
func TestDeleteWrongDimensionRefused(t *testing.T) {
	points := genPoints(3, 400, 3)
	c, err := New(points, Options{Parts: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if ok, err := c.Delete(5, []float64{0.5, 0.5, 0.5, 0.5}); err == nil || ok {
		t.Fatalf("Delete with a 4-d point = %v, %v; want an error", ok, err)
	}
	if err := c.Insert(9001, []float64{0.5, 0.5, 0.5}); err != nil {
		t.Fatalf("Insert after a refused delete: %v", err)
	}
	if ok, err := c.Delete(5, points[5]); err != nil || !ok {
		t.Fatalf("Delete after a refused delete = %v, %v", ok, err)
	}
}

// TestTopKMatchesSingleEngine checks the scatter/gather merge is exact:
// over 1/2/4 partitions in both spaces, every TopK answer is byte-equal
// to the brute-force oracle over the same records.
func TestTopKMatchesSingleEngine(t *testing.T) {
	points := genPoints(7, 800, 3)
	mirror := mirrorOf(points)
	for _, space := range []gir.Space{gir.SpaceBox, gir.SpaceSimplex} {
		for _, parts := range []int{1, 2, 4} {
			c, err := New(points, Options{Parts: parts, Space: space})
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(int64(parts)))
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
				if len(res.At) != parts {
					t.Fatalf("version vector has %d coordinates for %d partitions", len(res.At), parts)
				}
				if !sameRecords(res.Records, bruteTopK(mirror, q, k)) {
					t.Fatalf("space %v parts %d query %d: merged top-%d diverges from brute force", space, parts, i, k)
				}
			}
			if res := c.TopK([]float64{0.5, 0.3, 0.2}, len(points)+1); res.Err == nil {
				t.Fatal("k beyond the global cardinality accepted")
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestBatchTopKMatchesLoop checks the batched scatter equals per-query
// scatter.
func TestBatchTopKMatchesLoop(t *testing.T) {
	points := genPoints(11, 500, 3)
	c, err := New(points, Options{Parts: 3})
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

// TestPartitionsReadOneCut: the partitions' records and versions come
// from one published snapshot, so every read sums to the records and the
// writes of one version, also while a writer runs; and one insert advances
// exactly one coordinate, by one.
func TestPartitionsReadOneCut(t *testing.T) {
	const n = 600
	c, err := New(genPoints(3, n, 3), Options{Parts: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const writes = 200
	done := make(chan struct{})
	go func() { // inserts only: a snapshot at version v holds n + v records
		defer close(done)
		r := rand.New(rand.NewSource(9))
		for i := 0; i < writes; i++ {
			if err := c.Insert(int64(1<<41+i), []float64{r.Float64(), r.Float64(), r.Float64()}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	check := func() (records int, version int64) {
		for _, p := range c.Stats().Parts {
			records, version = records+p.Records, version+p.Version
		}
		if records != n+int(version) {
			t.Fatalf("one read sums to %d records at %d writes, want %d", records, version, n+int(version))
		}
		return records, version
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			check()
		}
	}
	if records, version := check(); records != c.ds.Len() || version != writes || version != c.ds.Version() {
		t.Fatalf("partitions sum to %d records and %d writes; Len %d, %d written, dataset version %d", records, version, c.ds.Len(), writes, c.ds.Version())
	}

	before := c.Versions()
	if err := c.Insert(1<<42, []float64{0.4, 0.4, 0.4}); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i, v := range c.Versions() {
		switch v - before[i] {
		case 0:
		case 1:
			moved++
		default:
			t.Fatalf("one insert moved coordinate %d from %d to %d", i, before[i], v)
		}
	}
	if moved != 1 {
		t.Fatalf("one insert advanced %d partitions", moved)
	}
}

// TestStatsAggregateIsTheEngine: one Engine serves every partition, so the
// tier's counters are that Engine's, and each query is one cache lookup.
func TestStatsAggregateIsTheEngine(t *testing.T) {
	c, err := New(genPoints(4, 400, 3), Options{Parts: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := rand.New(rand.NewSource(11))
	const queries = 20
	for i := 0; i < queries; i++ {
		q := []float64{r.Float64(), r.Float64(), r.Float64()}
		if res := c.TopK(q, 5); res.Err != nil {
			t.Fatal(res.Err)
		}
		if i%5 == 0 {
			if err := c.Insert(int64(1<<41+i), []float64{r.Float64(), r.Float64(), r.Float64()}); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := c.Stats()
	if want := c.eng.Stats(); !reflect.DeepEqual(st.Aggregate, want) {
		t.Fatalf("Aggregate = %+v, the engine's Stats = %+v", st.Aggregate, want)
	}
	if lookups := st.Aggregate.CacheHits + st.Aggregate.PartialHits + st.Aggregate.Misses; lookups != queries {
		t.Fatalf("%d cache lookups for %d queries", lookups, queries)
	}
}
