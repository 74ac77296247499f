package cache

import (
	"math"
	"math/rand"
	"testing"

	"github.com/girlib/gir/internal/vec"
)

// TestPutComputesRays: an entry holds its region's extreme rays on Σw = 1,
// each inside the region, and they bound every linear function over the
// region's Σw = 1 slice from above, as its vertices must: no objective is
// larger at the entry's own query, scaled to Σ = 1, than at some ray.
func TestPutComputesRays(t *testing.T) {
	_, q, reg, recs := setup(t, 11, 300, 3, 5)
	c := New(4)
	if !c.Put(reg, recs) {
		t.Fatal("Put failed")
	}
	e, ok := c.Lookup(q, 5)
	if !ok {
		t.Fatal("lookup missed")
	}
	d := reg.Dim
	if len(e.Rays) < d || len(e.Rays)%d != 0 {
		t.Fatalf("%d ray coordinates at d = %d", len(e.Rays), d)
	}
	for g := e.Rays; len(g) > 0; g = g[d:] {
		ray, sum := vec.Vector(g[:d]), 0.0
		for _, x := range ray {
			if x < 0 {
				t.Fatalf("ray %v leaves the orthant", ray)
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("ray %v sums to %v, want 1", ray, sum)
		}
		if !reg.Contains(ray, 1e-9) {
			t.Fatalf("ray %v outside the region", ray)
		}
	}
	qs := vec.Scale(1/(q[0]+q[1]+q[2]), q)
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		obj := vec.Vector{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
		best := math.Inf(-1)
		for g := e.Rays; len(g) > 0; g = g[d:] {
			best = max(best, vec.Dot(vec.Vector(g[:d]), obj))
		}
		if at := vec.Dot(qs, obj); at > best+1e-12 {
			t.Fatalf("objective %v reaches %v at the query, only %v on the rays", obj, at, best)
		}
	}
}
