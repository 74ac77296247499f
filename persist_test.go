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
