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

// TestGIRGlobalRegionSound samples weight vectors inside the merged
// global region and checks the certificate: at every sample the
// brute-force global top-k is EXACTLY the region's result (composition
// and order), and the sample lies inside every partition's local region.
func TestGIRGlobalRegionSound(t *testing.T) {
	points := genPoints(23, 600, 3)
	mirror := mirrorOf(points)
	for _, parts := range []int{1, 2, 4} {
		c, err := New(points, Options{Parts: parts})
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(int64(parts) * 31))
		checked := 0
		for i := 0; i < 12; i++ {
			q := []float64{0.15 + 0.7*r.Float64(), 0.15 + 0.7*r.Float64(), 0.15 + 0.7*r.Float64()}
			k := 2 + r.Intn(6)
			res := c.GIR(q, k, gir.FP)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if res.Global == nil {
				t.Fatal("no global region")
			}
			if !res.Global.Contains(q) {
				t.Fatalf("parts %d: global region excludes its own query", parts)
			}
			want := bruteTopK(mirror, q, k)
			if !sameRecords(res.Records, want) {
				t.Fatalf("parts %d: GIR records diverge from brute force", parts)
			}
			contributed := 0
			for _, pg := range res.Parts {
				contributed += pg.Contributed
			}
			if contributed != k {
				t.Fatalf("parts %d: contributions sum to %d, want %d", parts, contributed, k)
			}
			for trial := 0; trial < 40; trial++ {
				qp := make([]float64, 3)
				for j := range qp {
					qp[j] = q[j] * (1 + 0.25*(r.Float64()-0.5))
					qp[j] = math.Max(0, math.Min(1, qp[j]))
				}
				if !res.Global.Contains(qp) {
					continue
				}
				checked++
				for _, pg := range res.Parts {
					if !pg.GIR.Contains(qp) {
						t.Fatalf("parts %d: global region point escapes partition %d's region", parts, pg.Part)
					}
				}
				at := bruteTopK(mirror, qp, k)
				for j := range at {
					if at[j].ID != res.Records[j].ID {
						t.Fatalf("parts %d: inside the global region the top-%d changed (rank %d: %d vs %d)",
							parts, k, j, at[j].ID, res.Records[j].ID)
					}
				}
			}
		}
		if checked == 0 {
			t.Fatalf("parts %d: no jittered sample landed inside any global region — test has no teeth", parts)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPersistRoundTrip checks the per-partition durability lifecycle:
// WAL + churn + checkpoint + more churn + crash (no clean close of the
// logs) + Recover must restore every partition to the exact logged
// state, with the version vector preserved and queries byte-identical.
func TestPersistRoundTrip(t *testing.T) {
	points := genPoints(41, 400, 3)
	mirror := mirrorOf(points)
	dir := t.TempDir()
	c, err := New(points, Options{Parts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnableWAL(dir, gir.WALOptions{}); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	write := func(n int) {
		for i := 0; i < n; i++ {
			id := int64(1<<30) + r.Int63n(1<<20)
			if p, live := mirror[id]; live && r.Intn(2) == 0 {
				if ok, err := c.Delete(id, p); err != nil || !ok {
					t.Fatalf("delete of live record %d: %v, %v", id, ok, err)
				}
				delete(mirror, id)
			} else if !live {
				p := []float64{r.Float64(), r.Float64(), r.Float64()}
				if err := c.Insert(id, p); err != nil {
					t.Fatal(err)
				}
				mirror[id] = p
			}
		}
	}
	write(120)
	if err := c.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	write(80)
	before := c.Versions()
	q := []float64{0.5, 0.3, 0.2}
	want := bruteTopK(mirror, q, 10)

	// Crash: abandon the coordinator without closing (the logs were
	// fsynced per append), then recover the directory.
	rec, err := Recover(dir, gir.WALOptions{}, Options{Parts: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	defer c.Close()
	if got := rec.Versions(); !got.AtLeast(before) || !before.AtLeast(got) {
		t.Fatalf("recovered version vector %v, want %v", got, before)
	}
	if rec.Len() != len(mirror) {
		t.Fatalf("recovered %d records, want %d", rec.Len(), len(mirror))
	}
	res := rec.TopK(q, 10)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !sameRecords(res.Records, want) {
		t.Fatal("recovered tier serves a different top-10")
	}
	if _, err := Recover(dir, gir.WALOptions{}, Options{Parts: 5}); err == nil {
		t.Fatal("partition-count mismatch accepted")
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
		if ps.Version != 0 || ps.Reconciled != 0 {
			t.Fatalf("unwritten partition %d reports version %d/%d", ps.Part, ps.Version, ps.Reconciled)
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
