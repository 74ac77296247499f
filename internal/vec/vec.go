// Package vec provides the small dense linear-algebra kernel used by the
// geometry, hull and LP packages: d-dimensional vectors, dot products,
// Gaussian elimination with partial pivoting, and affine-independence
// checks. Dimensions in this library are small (2..10), so everything is
// dense, allocation-conscious and unconditionally float64.
package vec

import (
	"fmt"
	"math"
)

// Vector is a point or direction in d-dimensional space.
type Vector []float64

// New returns a zero vector of dimension d.
func New(d int) Vector { return make(Vector, d) }

// Grown returns s resized to n elements, reallocating only when the
// capacity is short: the idiom by which pooled scratch buffers are reused.
// The contents are unspecified.
func Grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// Dot returns the inner product v·w. The vectors must have equal dimension.
func Dot(v, w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("vec: dot of mismatched dimensions %d and %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// Sub returns v − w as a new vector.
func Sub(v, w Vector) Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Add returns v + w as a new vector.
func Add(v, w Vector) Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Scale returns c·v as a new vector.
func Scale(c float64, v Vector) Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = c * v[i]
	}
	return out
}

// AXPY adds c·x to y in place.
func AXPY(c float64, x, y Vector) {
	for i := range y {
		y[i] += c * x[i]
	}
}

// DotColumns scores a column-major block of points against q:
// dst[i] = Σ_j q[j]·cols[j][i] for every point i. Each cols[j] holds
// coordinate j of every point contiguously (an R-tree leaf page's layout),
// so the inner loops are branch-free streams over dense float64 slices.
//
// The accumulation visits dimensions in the same order as Dot, adding
// q[j]·p[j] terms for j = 0..d−1, so every dst[i] is bit-identical to
// Dot(q, p_i).
//
// The inner loop is unrolled four-wide. One-wide, it is a 32-byte loop whose
// speed depends on where the linker places it: straddling a 64-byte fetch
// boundary it runs at about half speed, and a change anywhere earlier in the
// binary can move it there. Four-wide, it is bound by its loads and stores.
func DotColumns(dst []float64, q Vector, cols [][]float64) {
	for i := range dst {
		dst[i] = 0
	}
	for j, w := range q {
		col := cols[j][:len(dst)]
		i := 0
		for ; i+4 <= len(dst); i += 4 {
			d, c := dst[i:i+4:i+4], col[i:i+4:i+4]
			d[0] += w * c[0]
			d[1] += w * c[1]
			d[2] += w * c[2]
			d[3] += w * c[3]
		}
		for ; i < len(dst); i++ {
			dst[i] += w * col[i]
		}
	}
}

// DotColumnsMulti scores one column-major block of points against a whole
// block of queries: dst[g][i] = Σ_j qs[g][j]·cols[j][i]. It is the
// multi-query form of DotColumns — the tile is walked j-outer so each
// column is streamed once per dimension while it is hot for every query
// row, which is what lets a fused traversal score a decoded leaf for a
// whole query group in one pass.
//
// Per query the accumulation order is exactly DotColumns' (dimensions
// ascending, records ascending), so dst[g][i] is bit-identical to
// Dot(qs[g], p_i): a result served through the fused path cannot be told
// apart from a solo traversal's. Every dst[g] must have the same length
// (the record count) and every query the block's dimension.
func DotColumnsMulti(dst [][]float64, qs []Vector, cols [][]float64) {
	for _, row := range dst {
		for i := range row {
			row[i] = 0
		}
	}
	for j := range cols {
		for g, q := range qs {
			w := q[j]
			row := dst[g]
			col := cols[j][:len(row)]
			for i := range row {
				row[i] += w * col[i]
			}
		}
	}
}

// Norm returns the Euclidean norm of v.
func Norm(v Vector) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Dist returns the Euclidean distance between v and w.
func Dist(v, w Vector) float64 {
	var s float64
	for i := range v {
		d := v[i] - w[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Equal reports whether v and w are component-wise within tol of each other.
func Equal(v, w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}

// Basis returns the i-th standard basis vector of dimension d.
func Basis(d, i int) Vector {
	v := make(Vector, d)
	v[i] = 1
	return v
}

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// At returns element (i,j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Row returns a slice aliasing row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// HyperplaneThrough computes the hyperplane passing through the d points
// pts (each of dimension d): a unit normal n and offset b with n·x = b for
// every point. It returns ok=false if the points are affinely dependent.
// The normal's orientation is arbitrary; callers orient it against a
// reference point.
func HyperplaneThrough(pts []Vector, tol float64) (normal Vector, offset float64, ok bool) {
	d := len(pts)
	if d == 0 || len(pts[0]) != d {
		panic("vec: HyperplaneThrough requires d points of dimension d")
	}
	// Solve for n with n·(p_i − p_0) = 0, i = 1..d−1: a null vector of the
	// (d−1)×d difference matrix, then normalized.
	var ps planeScratch
	ps.size(d-1, d)
	for i := 1; i < d; i++ {
		row := ps.a.Row(i - 1)
		for j := range row {
			row[j] = pts[i][j] - pts[0][j]
		}
	}
	normal = make(Vector, d)
	if !ps.nullVector(normal, tol) {
		return nil, 0, false
	}
	n := Norm(normal)
	if n == 0 {
		panic("vec: normalize of zero vector")
	}
	inv := 1 / n
	for i := range normal {
		normal[i] *= inv
	}
	return normal, Dot(normal, pts[0]), true
}

// planeScratch is the hyperplane solve's workspace: the difference matrix
// it row-reduces and the pivot bookkeeping.
type planeScratch struct {
	a      Matrix
	pivCol []int
	isPiv  []bool
}

func (ps *planeScratch) size(m, d int) {
	ps.a = Matrix{Rows: m, Cols: d, Data: Grown(ps.a.Data, m*d)}
	ps.isPiv = Grown(ps.isPiv, d)
}

// nullVector row-reduces ps.a in place and writes a null vector into x.
func (ps *planeScratch) nullVector(x Vector, tol float64) bool {
	a := &ps.a
	m, d := a.Rows, a.Cols
	pivCols := ps.pivCol[:0]
	row := 0
	for col := 0; col < d && row < m; col++ {
		piv, pmax := row, math.Abs(a.At(row, col))
		for r := row + 1; r < m; r++ {
			if v := math.Abs(a.At(r, col)); v > pmax {
				piv, pmax = r, v
			}
		}
		if pmax < tol {
			continue
		}
		if piv != row {
			ri, rj := a.Row(row), a.Row(piv)
			for j := range ri {
				ri[j], rj[j] = rj[j], ri[j]
			}
		}
		inv := 1 / a.At(row, col)
		for r := 0; r < m; r++ {
			if r == row {
				continue
			}
			f := a.At(r, col) * inv
			if f == 0 {
				continue
			}
			rr, rp := a.Row(r), a.Row(row)
			for j := col; j < d; j++ {
				rr[j] -= f * rp[j]
			}
		}
		pivCols = append(pivCols, col)
		row++
	}
	ps.pivCol = pivCols
	if row < m {
		return false // rank-deficient rows: ambiguous null space
	}
	// Choose the first non-pivot column as the free variable.
	isPiv := ps.isPiv
	clear(isPiv)
	for _, c := range pivCols {
		isPiv[c] = true
	}
	free := -1
	for c := 0; c < d; c++ {
		if !isPiv[c] {
			free = c
			break
		}
	}
	if free < 0 {
		return false
	}
	clear(x)
	x[free] = 1
	// Back-substitute: for each pivot row, x[pivCol] = −a[row][free]/a[row][pivCol].
	for i, c := range pivCols {
		x[c] = -a.At(i, free) / a.At(i, c)
	}
	return true
}
