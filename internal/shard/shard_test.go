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
// logical dataset, sorted (score desc, id asc) — the same comparator the
// coordinator merges with and the same arithmetic order the engines
// score with, so agreement is exact, not approximate.
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

func TestHashAssignerCoversAndBalances(t *testing.T) {
	const parts, n = 4, 10000
	counts := make([]int, parts)
	for id := int64(0); id < n; id++ {
		w := partition(id, parts)
		if w < 0 || w >= parts {
			t.Fatalf("id %d assigned to partition %d of %d", id, w, parts)
		}
		if w != partition(id, parts) {
			t.Fatalf("assignment of id %d is not deterministic", id)
		}
		counts[w]++
	}
	for w, c := range counts {
		if c < n/parts/2 || c > n/parts*2 {
			t.Fatalf("partition %d holds %d of %d records — hash assignment is badly skewed: %v", w, c, n, counts)
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

// TestStatsAggregatesAndSkew checks the tier-level stats read: aggregate
// counters are the partition sums, the version minima are consistent,
// and the skew ratios are populated and ≥ 1.
func TestStatsAggregatesAndSkew(t *testing.T) {
	points := genPoints(3, 600, 3)
	c, err := New(points, Options{Parts: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 40; i++ {
		q := []float64{r.Float64(), r.Float64(), r.Float64()}
		if res := c.TopK(q, 5); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	st := c.Stats()
	if len(st.Parts) != 3 {
		t.Fatalf("stats cover %d partitions", len(st.Parts))
	}
	var hits, misses, lookups int64
	for _, ps := range st.Parts {
		hits += ps.Engine.CacheHits
		misses += ps.Engine.Misses
		lookups += ps.Lookups
		if ps.Records == 0 {
			t.Fatalf("partition %d reports zero records", ps.Part)
		}
		if ps.CacheCap == 0 {
			t.Fatalf("partition %d reports zero cache capacity", ps.Part)
		}
		if ps.Version != 0 {
			t.Fatalf("unwritten partition %d reports version %d", ps.Part, ps.Version)
		}
	}
	if st.Aggregate.CacheHits != hits || st.Aggregate.Misses != misses {
		t.Fatalf("aggregate counters are not the partition sums: %+v", st.Aggregate)
	}
	if lookups == 0 {
		t.Fatal("no lookups recorded")
	}
	if st.RecordSkew < 1 || st.LookupSkew < 1 {
		t.Fatalf("skew ratios below 1: %v, %v", st.RecordSkew, st.LookupSkew)
	}
	// Route one write and confirm exactly one coordinate advances.
	id := int64(1 << 41)
	if err := c.Insert(id, []float64{0.4, 0.4, 0.4}); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, v := range c.Versions() {
		if v == 1 {
			moved++
		} else if v != 0 {
			t.Fatalf("unexpected version %d", v)
		}
	}
	if moved != 1 {
		t.Fatalf("one insert advanced %d partitions", moved)
	}
}

// TestStatsAggregateSumsEveryCounter holds Stats().Aggregate to its
// definition field by field, found by reflection so a counter added to
// gir.EngineStats later cannot be left out of the sum silently: every int64
// counter is the sum over Parts, and Version is the minimum.
func TestStatsAggregateSumsEveryCounter(t *testing.T) {
	points := genPoints(4, 400, 3)
	c, err := New(points, Options{Parts: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
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
	agg := reflect.ValueOf(st.Aggregate)
	counters := 0
	for f := 0; f < agg.NumField(); f++ {
		field := agg.Type().Field(f)
		if field.Type.Kind() != reflect.Int64 {
			continue
		}
		var sum, least int64
		for i, ps := range st.Parts {
			v := reflect.ValueOf(ps.Engine).Field(f).Int()
			sum += v
			if i == 0 || v < least {
				least = v
			}
		}
		want := sum
		if field.Name == "Version" {
			want = least
		} else {
			counters++
		}
		if got := agg.Field(f).Int(); got != want {
			t.Errorf("Aggregate.%s = %d, want %d over %d partitions", field.Name, got, want, len(st.Parts))
		}
	}
	if counters == 0 || st.Aggregate.CacheProbes == 0 {
		t.Fatalf("the run checked %d counters and probed %d cache entries: vacuous", counters, st.Aggregate.CacheProbes)
	}
}
