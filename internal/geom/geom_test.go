package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/girlib/gir/internal/vec"
)

func TestHalfspaceContains(t *testing.T) {
	h := Halfspace{A: vec.Vector{1, -1}, B: 0} // x ≥ y
	if !h.Contains(vec.Vector{2, 1}, 0) {
		t.Error("(2,1) should satisfy x ≥ y")
	}
	if h.Contains(vec.Vector{1, 2}, 0) {
		t.Error("(1,2) should not satisfy x ≥ y")
	}
	if !h.Contains(vec.Vector{1, 1}, 1e-12) {
		t.Error("boundary point should satisfy within tolerance")
	}
	if got := h.Slack(vec.Vector{3, 1}); math.Abs(got-2) > 1e-12 {
		t.Errorf("Slack = %v", got)
	}
}

func TestBoxHalfspaces(t *testing.T) {
	for d := 1; d <= 6; d++ {
		hs := BoxHalfspaces(d)
		if len(hs) != 2*d {
			t.Fatalf("d=%d: got %d half-spaces", d, len(hs))
		}
		mid := make(vec.Vector, d)
		for i := range mid {
			mid[i] = 0.5
		}
		if !ContainsAll(hs, mid, 0) {
			t.Errorf("d=%d: centre not inside box", d)
		}
		out := mid.Clone()
		out[0] = 1.5
		if ContainsAll(hs, out, 0) {
			t.Errorf("d=%d: point outside box accepted", d)
		}
		out[0] = -0.5
		if ContainsAll(hs, out, 0) {
			t.Errorf("d=%d: negative point accepted", d)
		}
	}
}

func TestReduceConeDropsObviousRedundancy(t *testing.T) {
	// In 2-d on the orthant: x ≥ y, 2y ≥ x, x ≥ y/2 (x ≥ y plus y ≥ 0) and
	// x + y ≥ 0, which the orthant implies.
	normals := []vec.Vector{{1, -1}, {-1, 2}, {1, -0.5}, {1, 1}}
	keep := ReduceCone(normals, 1e-12)
	if len(keep) != 2 || keep[0] != 0 || keep[1] != 1 {
		t.Errorf("keep = %v, want [0 1]", keep)
	}
	// The orthant's own rows bound the cone but are never kept.
	if keep := ReduceCone([]vec.Vector{{1, 0}, {0, 1}, {1, 1}}, 1e-12); len(keep) != 0 {
		t.Errorf("the orthant's rows: keep = %v, want none", keep)
	}
}

func TestReduceConeKeepsEssential(t *testing.T) {
	normals := []vec.Vector{{1, -1}, {-1, 2}}
	keep := ReduceCone(normals, 1e-12)
	if len(keep) != 2 {
		t.Errorf("keep = %v, want both", keep)
	}
}

func TestReduceConeDuplicates(t *testing.T) {
	normals := []vec.Vector{{1, -1}, {2, -2}, {0.5, -0.5}}
	keep := ReduceCone(normals, 1e-12)
	if len(keep) != 1 || keep[0] != 0 {
		t.Errorf("keep = %v, want [0]", keep)
	}
}

func TestReduceConeZeroNormal(t *testing.T) {
	normals := []vec.Vector{{0, 0}, {1, -1}}
	keep := ReduceCone(normals, 1e-12)
	if len(keep) != 1 || keep[0] != 1 {
		t.Errorf("keep = %v, want [1]", keep)
	}
}

// Property: the region defined by the reduced cone equals the original
// region at random sample points of the orthant.
func TestReduceConePreservesRegion(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 2 + r.Intn(3)
		n := 3 + r.Intn(8)
		normals := make([]vec.Vector, n)
		for i := range normals {
			normals[i] = make(vec.Vector, d)
			for j := range normals[i] {
				normals[i][j] = r.NormFloat64()
			}
		}
		keep := ReduceCone(normals, 1e-12)
		kept := make(map[int]bool, len(keep))
		for _, k := range keep {
			kept[k] = true
		}
		inside := func(set []vec.Vector, x vec.Vector) bool {
			for _, a := range set {
				if vec.Dot(a, x) < -1e-9 {
					return false
				}
			}
			return true
		}
		reduced := make([]vec.Vector, 0, len(keep))
		for _, k := range keep {
			reduced = append(reduced, normals[k])
		}
		for trial := 0; trial < 50; trial++ {
			x := make(vec.Vector, d)
			for j := range x {
				x[j] = math.Abs(r.NormFloat64())
			}
			// Membership in the full set must match membership in the
			// reduced set, except within numerical tolerance of a boundary.
			full := inside(normals, x)
			red := inside(reduced, x)
			if full != red {
				// Tolerate only genuine boundary cases.
				var minSlack float64 = math.Inf(1)
				for _, a := range normals {
					if s := math.Abs(vec.Dot(a, x)); s < minSlack {
						minSlack = s
					}
				}
				if minSlack > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(17))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
