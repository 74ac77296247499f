package gir_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	gir "github.com/girlib/gir"
)

func TestSaveOpenRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ds, err := gir.NewDataset(randomPoints(r, 2000, 3))
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{0.5, 0.7, 0.4}
	want, err := ds.TopK(q, 10)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "index.gir")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	reopened, err := gir.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Len() != ds.Len() || reopened.Dim() != ds.Dim() {
		t.Fatalf("metadata mismatch: %d/%d vs %d/%d", reopened.Len(), reopened.Dim(), ds.Len(), ds.Dim())
	}
	got, err := reopened.TopK(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Records {
		if got.Records[i].ID != want.Records[i].ID {
			t.Fatalf("rank %d differs after reopen", i)
		}
	}
	// GIR computation works on the reopened dataset and agrees.
	g1, err := ds.ComputeGIR(want, gir.FP)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := reopened.ComputeGIR(got, gir.FP)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		p := []float64{r.Float64(), r.Float64(), r.Float64()}
		if g1.Contains(p) != g2.Contains(p) {
			t.Fatalf("regions differ after reopen at %v", p)
		}
	}
	// Inserts still work on the reopened tree.
	if err := reopened.Insert(99999, []float64{0.5, 0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	if reopened.Len() != ds.Len()+1 {
		t.Error("insert after reopen did not register")
	}
}

// TestSaveOpenKeepsSpace pins that a dataset snapshot records its query
// space: a simplex dataset reopens as a simplex dataset — validation and
// freshly computed regions included.
func TestSaveOpenKeepsSpace(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	ds, err := gir.NewDatasetInSpace(randomPoints(r, 500, 3), gir.SpaceSimplex)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.gir")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	reopened, err := gir.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Space() != gir.SpaceSimplex {
		t.Fatalf("reopened space = %v, want simplex", reopened.Space())
	}
	if _, err := reopened.TopK([]float64{0.5, 0.7, 0.4}, 5); err == nil {
		t.Error("reopened simplex dataset accepted a non-normalized query")
	}
	q := gir.SpaceSimplex.Normalize([]float64{0.5, 0.7, 0.4})
	res, err := reopened.TopK(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	g, err := reopened.ComputeGIR(res, gir.FP)
	if err != nil {
		t.Fatal(err)
	}
	if g.Space() != gir.SpaceSimplex {
		t.Fatalf("region space = %v, want simplex", g.Space())
	}
}

// TestOnDiskDatasetKeepsSpace pins the disk-backed constructor: the
// space chosen at build time survives the Save + OpenOnDisk round trip
// inside NewDatasetOnDiskInSpace.
func TestOnDiskDatasetKeepsSpace(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	path := filepath.Join(t.TempDir(), "disk.gir")
	ds, err := gir.NewDatasetOnDiskInSpace(randomPoints(r, 300, 3), path, gir.SpaceSimplex)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if ds.Space() != gir.SpaceSimplex {
		t.Fatalf("disk dataset space = %v, want simplex", ds.Space())
	}
	if _, err := ds.TopK([]float64{0.5, 0.7, 0.4}, 3); err == nil {
		t.Error("disk-backed simplex dataset accepted a non-normalized query")
	}
	if _, err := ds.TopK(gir.SpaceSimplex.Normalize([]float64{0.5, 0.7, 0.4}), 3); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage")
	if err := os.WriteFile(path, []byte("not a snapshot at all, definitely"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := gir.Open(path); err == nil {
		t.Error("garbage file accepted")
	}
	if _, err := gir.Open(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestOnDiskDataset(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pts := randomPoints(r, 1500, 3)
	path := filepath.Join(t.TempDir(), "disk.gir")
	ds, err := gir.NewDatasetOnDisk(pts, path)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	q := []float64{0.6, 0.4, 0.8}
	ds.ResetIOStats()
	res, err := ds.TopK(q, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ds.IOStats().PageReads == 0 {
		t.Error("disk-backed top-k performed no file reads")
	}
	// Results must match the in-memory dataset exactly.
	mem, err := gir.NewDataset(pts)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := mem.TopK(q, 8)
	for i := range want.Records {
		if res.Records[i].ID != want.Records[i].ID {
			t.Fatalf("rank %d differs between disk and memory", i)
		}
	}
	g, err := ds.ComputeGIR(res, gir.FP)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Contains(q) {
		t.Error("query outside its own GIR on disk-backed dataset")
	}
}

// TestOnDiskSidecarLifecycle pins the sidecar contract: concurrent opens
// of one snapshot share a valid existing sidecar instead of clobbering it
// (and each other), Close removes it, a Close racing another live opener
// leaves that opener serving, and a rewritten snapshot never reuses the
// stale sidecar built from the old bytes.
func TestOnDiskSidecarLifecycle(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	pts := randomPoints(r, 800, 3)
	path := filepath.Join(t.TempDir(), "disk.gir")
	ds1, err := gir.NewDatasetOnDisk(pts, path)
	if err != nil {
		t.Fatal(err)
	}
	side := path + ".pages"
	info1, err := os.Stat(side)
	if err != nil {
		t.Fatalf("first open built no sidecar: %v", err)
	}

	// A second opener reuses the sidecar: no rewrite, same file.
	ds2, err := gir.OpenOnDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	info2, err := os.Stat(side)
	if err != nil {
		t.Fatal(err)
	}
	if !info2.ModTime().Equal(info1.ModTime()) || info2.Size() != info1.Size() {
		t.Error("second open rewrote a valid sidecar instead of reusing it")
	}
	q := []float64{0.6, 0.4, 0.8}
	want, err := ds1.TopK(q, 8)
	if err != nil {
		t.Fatal(err)
	}

	// First opener closes: the sidecar is removed, but the still-open
	// second dataset keeps serving from its handle.
	if err := ds1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(side); !os.IsNotExist(err) {
		t.Error("Close did not remove the sidecar")
	}
	got, err := ds2.TopK(q, 8)
	if err != nil {
		t.Fatalf("second opener broken by the first one's Close: %v", err)
	}
	for i := range want.Records {
		if got.Records[i].ID != want.Records[i].ID {
			t.Fatalf("rank %d differs across openers", i)
		}
	}
	if err := ds2.Close(); err != nil {
		t.Fatalf("double sidecar removal must be silent: %v", err)
	}

	// Rewriting the snapshot at the same path invalidates any sidecar
	// left behind: a fresh open must serve the NEW data.
	stale, err := gir.NewDatasetOnDisk(pts, path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crashed process: the sidecar outlives the dataset.
	pts2 := randomPoints(r, 800, 3)
	if _, err := gir.NewDatasetOnDisk(pts2, path); err != nil {
		t.Fatal(err)
	}
	ds3, err := gir.OpenOnDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ds3.Close()
	mem, err := gir.NewDataset(pts2)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := mem.TopK(q, 8)
	if err != nil {
		t.Fatal(err)
	}
	got3, err := ds3.TopK(q, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fresh.Records {
		if got3.Records[i].ID != fresh.Records[i].ID {
			t.Fatalf("open after snapshot rewrite served stale sidecar data at rank %d", i)
		}
	}
	_ = stale
}
