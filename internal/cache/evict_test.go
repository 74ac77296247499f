package cache

import (
	"testing"
)

func TestPutComputesInscribedBox(t *testing.T) {
	_, q, reg, recs := setup(t, 11, 300, 3, 5)
	c := New(4)
	if !c.Put(reg, recs) {
		t.Fatal("Put failed")
	}
	e, ok := c.Lookup(q, 5)
	if !ok {
		t.Fatal("lookup missed")
	}
	if len(e.InnerLo) != reg.Dim || len(e.InnerHi) != reg.Dim {
		t.Fatalf("inscribed box dims: %d/%d", len(e.InnerLo), len(e.InnerHi))
	}
	for j := 0; j < reg.Dim; j++ {
		if !(e.InnerLo[j] <= q[j] && q[j] <= e.InnerHi[j]) {
			t.Fatalf("query outside its own inscribed box at dim %d: [%v, %v] vs %v",
				j, e.InnerLo[j], e.InnerHi[j], q[j])
		}
	}
	// Corners of the box must lie inside the region (it is inscribed).
	for corner := 0; corner < 1<<reg.Dim; corner++ {
		w := make([]float64, reg.Dim)
		for j := range w {
			if corner&(1<<j) != 0 {
				w[j] = e.InnerHi[j]
			} else {
				w[j] = e.InnerLo[j]
			}
		}
		if !reg.Contains(w, 1e-9) {
			t.Fatalf("inscribed box corner %v outside the region", w)
		}
	}
}
