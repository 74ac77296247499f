package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	cases := []struct {
		v, w Vector
		want float64
	}{
		{Vector{1, 2}, Vector{3, 4}, 11},
		{Vector{0, 0, 0}, Vector{1, 2, 3}, 0},
		{Vector{-1, 1}, Vector{1, 1}, 0},
		{Vector{0.5}, Vector{0.5}, 0.25},
	}
	for _, c := range cases {
		if got := Dot(c.v, c.w); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Dot(%v,%v) = %v, want %v", c.v, c.w, got, c.want)
		}
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched dimensions")
		}
	}()
	Dot(Vector{1}, Vector{1, 2})
}

func TestArithmetic(t *testing.T) {
	v, w := Vector{1, 2, 3}, Vector{4, 5, 6}
	if got := Sub(w, v); !Equal(got, Vector{3, 3, 3}, 0) {
		t.Errorf("Sub = %v", got)
	}
	if got := Add(v, w); !Equal(got, Vector{5, 7, 9}, 0) {
		t.Errorf("Add = %v", got)
	}
	if got := Scale(2, v); !Equal(got, Vector{2, 4, 6}, 0) {
		t.Errorf("Scale = %v", got)
	}
	y := v.Clone()
	AXPY(3, w, y)
	if !Equal(y, Vector{13, 17, 21}, 0) {
		t.Errorf("AXPY = %v", y)
	}
	if !Equal(v, Vector{1, 2, 3}, 0) {
		t.Errorf("Clone did not protect the original: %v", v)
	}
}

func TestNormDist(t *testing.T) {
	v := Vector{3, 4}
	if got := Norm(v); math.Abs(got-5) > 1e-12 {
		t.Errorf("Norm = %v", got)
	}
	if math.Abs(Dist(Vector{0, 0}, v)-5) > 1e-12 {
		t.Errorf("Dist = %v", Dist(Vector{0, 0}, v))
	}
}

func TestBasis(t *testing.T) {
	for d := 1; d <= 5; d++ {
		for i := 0; i < d; i++ {
			b := Basis(d, i)
			for j := 0; j < d; j++ {
				want := 0.0
				if j == i {
					want = 1
				}
				if b[j] != want {
					t.Fatalf("Basis(%d,%d)[%d] = %v", d, i, j, b[j])
				}
			}
		}
	}
}

func TestHyperplaneThrough2D(t *testing.T) {
	n, b, ok := HyperplaneThrough([]Vector{{0, 1}, {1, 0}}, 1e-12)
	if !ok {
		t.Fatal("HyperplaneThrough failed")
	}
	// The line x+y=1, up to sign.
	want := math.Sqrt(0.5)
	if math.Abs(math.Abs(n[0])-want) > 1e-9 || math.Abs(math.Abs(n[1])-want) > 1e-9 {
		t.Errorf("normal = %v", n)
	}
	if math.Abs(math.Abs(b)-want) > 1e-9 {
		t.Errorf("offset = %v", b)
	}
}

func TestHyperplaneThroughDegenerate(t *testing.T) {
	// Three collinear points in 3-d are affinely dependent.
	_, _, ok := HyperplaneThrough([]Vector{{0, 0, 0}, {1, 1, 1}, {2, 2, 2}}, 1e-9)
	if ok {
		t.Error("HyperplaneThrough accepted affinely dependent points")
	}
}

// Property: the hyperplane through d random points contains all of them and
// the normal is unit length.
func TestHyperplaneThroughProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 2 + r.Intn(5)
		pts := make([]Vector, d)
		for i := range pts {
			pts[i] = make(Vector, d)
			for j := range pts[i] {
				pts[i][j] = r.Float64()
			}
		}
		n, b, ok := HyperplaneThrough(pts, 1e-10)
		if !ok {
			return true // degenerate draw; nothing to check
		}
		if math.Abs(Norm(n)-1) > 1e-9 {
			return false
		}
		for _, p := range pts {
			if math.Abs(Dot(n, p)-b) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// nullVectorOf runs the hyperplane solve's null-vector step on the given
// rows (fewer than d).
func nullVectorOf(rows []Vector, d int, tol float64) (Vector, bool) {
	var ps planeScratch
	ps.size(len(rows), d)
	for i, r := range rows {
		copy(ps.a.Row(i), r)
	}
	x := make(Vector, d)
	return x, ps.nullVector(x, tol)
}

func TestNullVector(t *testing.T) {
	rows := []Vector{{1, 0, 0}, {0, 1, 0}}
	x, ok := nullVectorOf(rows, 3, 1e-12)
	if !ok {
		t.Fatal("nullVector failed")
	}
	if math.Abs(x[0]) > 1e-12 || math.Abs(x[1]) > 1e-12 || math.Abs(x[2]) < 1e-9 {
		t.Errorf("nullVector = %v, want multiple of e3", x)
	}
}

func TestNullVectorRankDeficient(t *testing.T) {
	rows := []Vector{{1, 2, 3}, {2, 4, 6}}
	if _, ok := nullVectorOf(rows, 3, 1e-9); ok {
		t.Error("nullVector accepted rank-deficient rows")
	}
}

func TestMatrixAccessors(t *testing.T) {
	m := Matrix{Rows: 2, Cols: 3, Data: make([]float64, 6)}
	m.Data[5] = 42
	if m.At(1, 2) != 42 {
		t.Error("At does not index row-major")
	}
	if len(m.Row(0)) != 3 {
		t.Error("Row length mismatch")
	}
	m.Row(0)[1] = 7
	if m.At(0, 1) != 7 {
		t.Error("Row must alias the underlying data")
	}
}

// TestDotColumnsMultiBitEqual pins the fused-traversal contract: every row
// of the multi-query kernel is bit-identical (not merely close) to both
// the single-query column kernel and the scalar Dot loop, across random
// tiles of every shape the leaf scorer sees.
func TestDotColumnsMultiBitEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		d := 2 + rng.Intn(7)
		n := 1 + rng.Intn(120)
		g := 1 + rng.Intn(9)
		cols := make([][]float64, d)
		for j := range cols {
			cols[j] = make([]float64, n)
			for i := range cols[j] {
				cols[j][i] = rng.Float64()
			}
		}
		qs := make([]Vector, g)
		for m := range qs {
			qs[m] = make(Vector, d)
			for j := range qs[m] {
				qs[m][j] = rng.Float64() * 3
			}
		}
		dst := make([][]float64, g)
		for m := range dst {
			dst[m] = make([]float64, n)
			for i := range dst[m] {
				dst[m][i] = math.NaN() // the kernel must overwrite, not accumulate
			}
		}
		DotColumnsMulti(dst, qs, cols)
		solo := make([]float64, n)
		p := make(Vector, d)
		for m := range qs {
			DotColumns(solo, qs[m], cols)
			for i := 0; i < n; i++ {
				if dst[m][i] != solo[i] {
					t.Fatalf("trial %d: row %d record %d: multi %v != DotColumns %v", trial, m, i, dst[m][i], solo[i])
				}
				for j := 0; j < d; j++ {
					p[j] = cols[j][i]
				}
				if dst[m][i] != Dot(qs[m], p) {
					t.Fatalf("trial %d: row %d record %d: multi %v != Dot %v", trial, m, i, dst[m][i], Dot(qs[m], p))
				}
			}
		}
	}
}
