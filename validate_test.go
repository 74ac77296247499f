package gir

import (
	"math"
	"math/rand"
	"testing"
)

// TestPointsOutsideUnitRangeRefused pins the data-space contract at every
// door a point comes in by: the constructors and Insert refuse NaN and
// out-of-range coordinates, and a refused Insert changes nothing — not the
// cardinality, not the version, and not the write-ahead log (the check runs
// before the append, so replay never meets a point the constructor would
// have refused).
func TestPointsOutsideUnitRangeRefused(t *testing.T) {
	good := randPoints(rand.New(rand.NewSource(31)), 200, 3)
	bad := []float64{math.NaN(), -0.1, 1.5, math.Inf(1)}
	for _, x := range bad {
		pts := append([][]float64{}, good...)
		pts[17] = []float64{0.5, x, 0.5}
		if _, err := NewDataset(pts); err == nil {
			t.Errorf("NewDataset accepted coordinate %v", x)
		}
		if _, err := NewDatasetInSpace(pts, SpaceSimplex); err == nil {
			t.Errorf("NewDatasetInSpace accepted coordinate %v", x)
		}
	}

	ds, err := NewDataset(good)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if err := ds.EnableWAL(t.TempDir(), WALOptions{SyncEvery: 1}); err != nil {
		t.Fatal(err)
	}
	n, v, logged := ds.Len(), ds.Version(), ds.WALStats().Records
	for _, p := range [][]float64{{7, -3, 0.5}, {0.5, math.NaN(), 0.5}, {0.5, 0.5, -0.1}, {1.5, 0.5, 0.5}} {
		if err := ds.Insert(9001, p); err == nil {
			t.Errorf("Insert accepted %v", p)
		}
	}
	if ds.Len() != n || ds.Version() != v || ds.WALStats().Records != logged {
		t.Errorf("refused inserts left a trace: len %d→%d, version %d→%d, wal records %d→%d",
			n, ds.Len(), v, ds.Version(), logged, ds.WALStats().Records)
	}
	res, err := ds.TopK([]float64{1, 1, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records[0].ID == 9001 {
		t.Error("a refused point is being served")
	}
	if err := ds.Insert(9001, []float64{0, 1, 0.5}); err != nil {
		t.Errorf("a point on the boundary of [0,1]^d was refused: %v", err)
	}
}

// TestDeleteWrongDimensionRefused: a Delete whose point has another
// dimension than the dataset's is an error that leaves no trace — no log
// record, no version — and leaves the dataset accepting writes (a refusal
// from inside the copy-on-write mutation would leave it open for good).
func TestDeleteWrongDimensionRefused(t *testing.T) {
	pts := randPoints(rand.New(rand.NewSource(33)), 5000, 3)
	ds, err := NewDataset(pts)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if err := ds.EnableWAL(t.TempDir(), WALOptions{SyncEvery: 1}); err != nil {
		t.Fatal(err)
	}
	v, logged := ds.Version(), ds.WALStats().Records
	for _, p := range [][]float64{{0.5, 0.5, 0.5, 0.5}, {0.5, 0.5}, nil} {
		if ok, err := ds.Delete(3, p); err == nil || ok {
			t.Errorf("Delete(3, %v) = %v, %v; want an error", p, ok, err)
		}
	}
	if ds.Version() != v || ds.WALStats().Records != logged {
		t.Errorf("refused deletes left a trace: version %d→%d, wal records %d→%d",
			v, ds.Version(), logged, ds.WALStats().Records)
	}
	if err := ds.Insert(9001, []float64{0.5, 0.5, 0.5}); err != nil {
		t.Fatalf("Insert after a refused delete: %v", err)
	}
	if ok, err := ds.Delete(3, pts[3]); err != nil || !ok {
		t.Fatalf("Delete after a refused delete = %v, %v", ok, err)
	}
	if ds.Len() != len(pts) || ds.WALStats().Records != logged+2 {
		t.Errorf("after one insert and one delete: len %d, wal records %d→%d", ds.Len(), logged, ds.WALStats().Records)
	}
}

// TestNonFiniteWeightsRefused holds the query-side twin: NaN and +Inf
// weights are errors from Dataset.TopK, Engine.TopK and Engine.BatchTopK in
// both query spaces (on the simplex |NaN−1| > tol is false, so the Σw=1
// test alone lets NaN through), and the engine neither computes nor caches
// anything for them.
func TestNonFiniteWeightsRefused(t *testing.T) {
	points := randPoints(rand.New(rand.NewSource(32)), 300, 3)
	for _, space := range []Space{SpaceBox, SpaceSimplex} {
		ds, err := NewDatasetInSpace(points, space)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(ds, EngineOptions{CacheCapacity: 16})
		var batch []Query
		for _, w := range []float64{math.NaN(), math.Inf(1)} {
			q := []float64{0.5, w, 0.5}
			if _, err := ds.TopK(q, 5); err == nil {
				t.Errorf("%v: Dataset.TopK accepted weight %v", space, w)
			}
			if res := e.TopK(q, 5); res.Err == nil {
				t.Errorf("%v: Engine.TopK accepted weight %v", space, w)
			}
			batch = append(batch, Query{Vector: q, K: 5})
		}
		for i, res := range e.BatchTopK(batch) {
			if res.Err == nil {
				t.Errorf("%v: Engine.BatchTopK accepted %v", space, batch[i].Vector)
			}
		}
		if st := e.Stats(); e.Cache().Len() != 0 || st.Computed != 0 {
			t.Errorf("%v: refused queries left %d cache entries and %d computations", space, e.Cache().Len(), st.Computed)
		}
		good := space.Normalize([]float64{0.5, 0.25, 0.25})
		if res := e.TopK(good, 5); res.Err != nil {
			t.Errorf("%v: a finite query was refused: %v", space, res.Err)
		}
		e.Close()
	}
}

// TestZeroQueryRefused: the all-zero weight vector is an error from
// Dataset.TopK, Engine.TopK and Engine.BatchTopK in both query spaces. At
// w = 0 every record ties and no region exists, while every cached
// region's cone contains 0: a warm engine served any entry as its hit.
func TestZeroQueryRefused(t *testing.T) {
	points := randPoints(rand.New(rand.NewSource(34)), 2000, 3)
	zero := []float64{0, 0, 0}
	for _, space := range []Space{SpaceBox, SpaceSimplex} {
		ds, err := NewDatasetInSpace(points, space)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(ds, EngineOptions{CacheCapacity: 16})
		if res := e.TopK(space.Normalize([]float64{0.5, 0.25, 0.25}), 5); res.Err != nil || e.Cache().Len() != 1 {
			t.Fatalf("%v: the warm-up query: err %v, %d cache entries", space, res.Err, e.Cache().Len())
		}
		if _, err := ds.TopK(zero, 5); err == nil {
			t.Errorf("%v: Dataset.TopK accepted the zero query", space)
		}
		if res := e.TopK(zero, 5); res.Err == nil {
			t.Errorf("%v: Engine.TopK accepted the zero query (hit %v, records %v)", space, res.CacheHit, res.Records)
		}
		for _, res := range e.BatchTopK([]Query{{Vector: zero, K: 5}, {Vector: zero, K: 1}}) {
			if res.Err == nil {
				t.Errorf("%v: Engine.BatchTopK accepted the zero query", space)
			}
		}
		if st := e.Stats(); st.CacheHits != 0 || st.Computed != 1 {
			t.Errorf("%v: the refused queries left %d hits and %d computations, want 0 and the warm-up's 1", space, st.CacheHits, st.Computed)
		}
		e.Close()
	}
}
