package hull

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"github.com/girlib/gir/internal/vec"
)

func randPoints(r *rand.Rand, n, d int) []vec.Vector {
	pts := make([]vec.Vector, n)
	for i := range pts {
		pts[i] = make(vec.Vector, d)
		for j := range pts[i] {
			pts[i][j] = r.Float64()
		}
	}
	return pts
}

// monotone chain: independent 2-d hull oracle returning vertex indices.
func chainHull2D(pts []vec.Vector) []int {
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		pa, pb := pts[idx[a]], pts[idx[b]]
		if pa[0] != pb[0] {
			return pa[0] < pb[0]
		}
		return pa[1] < pb[1]
	})
	cross := func(o, a, b vec.Vector) float64 {
		return (a[0]-o[0])*(b[1]-o[1]) - (a[1]-o[1])*(b[0]-o[0])
	}
	var hullIdx []int
	for _, i := range idx { // lower
		for len(hullIdx) >= 2 && cross(pts[hullIdx[len(hullIdx)-2]], pts[hullIdx[len(hullIdx)-1]], pts[i]) <= 0 {
			hullIdx = hullIdx[:len(hullIdx)-1]
		}
		hullIdx = append(hullIdx, i)
	}
	lower := len(hullIdx) + 1
	for k := len(idx) - 2; k >= 0; k-- { // upper
		i := idx[k]
		for len(hullIdx) >= lower && cross(pts[hullIdx[len(hullIdx)-2]], pts[hullIdx[len(hullIdx)-1]], pts[i]) <= 0 {
			hullIdx = hullIdx[:len(hullIdx)-1]
		}
		hullIdx = append(hullIdx, i)
	}
	return hullIdx[:len(hullIdx)-1]
}

// facets returns the hull's live facets.
func facets(h *Hull) []*Facet {
	var out []*Facet
	for _, f := range h.facets {
		if f.alive {
			out = append(out, &f.Facet)
		}
	}
	return out
}

// contains reports whether p lies inside or on the hull: below every
// facet plane, within Tol.
func contains(h *Hull, p vec.Vector) bool {
	for _, f := range facets(h) {
		if f.Slack(p) > Tol {
			return false
		}
	}
	return true
}

func TestBuildSquare(t *testing.T) {
	pts := []vec.Vector{{0, 0}, {1, 0}, {1, 1}, {0, 1}, {0.5, 0.5}, {0.2, 0.7}}
	h, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.VertexIndices(); len(got) != 4 {
		t.Errorf("vertices = %v, want the 4 corners", got)
	}
	if h.NumFacets() != 4 {
		t.Errorf("facets = %d, want 4", h.NumFacets())
	}
	if !contains(h, vec.Vector{0.5, 0.5}) {
		t.Error("interior point reported outside")
	}
	if contains(h, vec.Vector{1.5, 0.5}) {
		t.Error("exterior point reported inside")
	}
}

func TestBuildDegenerate(t *testing.T) {
	pts := []vec.Vector{{0, 0}, {1, 1}, {2, 2}, {3, 3}}
	if _, err := Build(pts); err == nil {
		t.Error("expected ErrDegenerate for collinear points")
	}
	if _, err := Build(nil); err == nil {
		t.Error("expected error for empty input")
	}
}

func TestBuildMatchesChain2D(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pts := randPoints(r, 5+r.Intn(60), 2)
		h, err := Build(pts)
		if err != nil {
			return true // degenerate random draw
		}
		got := h.VertexIndices()
		want := chainHull2D(pts)
		sort.Ints(want)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(31))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: in any dimension, every input point is inside the hull, and
// hull facet normals are unit length.
func TestBuildContainsAllInputs(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 2 + r.Intn(4) // 2..5
		pts := randPoints(r, d+2+r.Intn(40), d)
		h, err := Build(pts)
		if err != nil {
			return true
		}
		for _, p := range pts {
			if !contains(h, p) {
				return false
			}
		}
		for _, f := range facets(h) {
			if math.Abs(vec.Norm(f.Normal)-1) > 1e-9 {
				return false
			}
			if len(f.Vertices) != d {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(37))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestBuildHypercubeVertices(t *testing.T) {
	for d := 2; d <= 4; d++ {
		var pts []vec.Vector
		for mask := 0; mask < 1<<d; mask++ {
			p := make(vec.Vector, d)
			for j := 0; j < d; j++ {
				p[j] = float64(mask >> j & 1)
			}
			pts = append(pts, p)
		}
		// A few interior points that must not become vertices.
		pts = append(pts, func() vec.Vector {
			p := make(vec.Vector, d)
			for j := range p {
				p[j] = 0.5
			}
			return p
		}())
		h, err := Build(pts)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if got := len(h.VertexIndices()); got != 1<<d {
			t.Errorf("d=%d: %d vertices, want %d", d, got, 1<<d)
		}
	}
}

// Property: points strictly inside the hull of others are never vertices.
func TestInteriorPointNotVertex(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 2 + r.Intn(3)
		pts := randPoints(r, d+3+r.Intn(30), d)
		// Append the centroid — strictly interior (points span the space).
		c := make(vec.Vector, d)
		for _, p := range pts {
			vec.AXPY(1, p, c)
		}
		c = vec.Scale(1/float64(len(pts)), c)
		pts = append(pts, c)
		h, err := Build(pts)
		if err != nil {
			return true
		}
		for _, v := range h.VertexIndices() {
			if v == len(pts)-1 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(41))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// initialSimplexReference is the loop initialSimplex replaced, kept as its
// oracle: every round recomputes p − origin and projects out every basis
// row. It returns the chosen indices and the basis.
func initialSimplexReference(pts []vec.Vector, d int) ([]int, []float64, error) {
	if len(pts) < d+1 {
		return nil, nil, ErrDegenerate
	}
	var chosen []int
	used := make([]bool, len(pts))
	lo := 0
	for i, p := range pts {
		if p[0] < pts[lo][0] {
			lo = i
		}
	}
	chosen = append(chosen, lo)
	used[lo] = true
	origin := pts[chosen[0]]
	var basis []float64
	r, bestRes := make(vec.Vector, d), make(vec.Vector, d)
	for len(chosen) < d+1 {
		best, bestNorm := -1, 0.0
		for i, p := range pts {
			if used[i] {
				continue
			}
			for j := range r {
				r[j] = p[j] - origin[j]
			}
			for b := 0; b < len(basis); b += d {
				row := basis[b : b+d]
				vec.AXPY(-vec.Dot(r, row), row, r)
			}
			if n := vec.Norm(r); n > bestNorm {
				best, bestNorm = i, n
				r, bestRes = bestRes, r
			}
		}
		if best < 0 || bestNorm < Tol {
			return nil, basis, ErrDegenerate
		}
		chosen = append(chosen, best)
		used[best] = true
		inv := 1 / bestNorm
		for _, x := range bestRes {
			basis = append(basis, inv*x)
		}
	}
	return chosen, basis, nil
}

// TestInitialSimplexMatchesReference: keeping each point's residual and
// projecting out only the newest basis row chooses the reference loop's
// indices and builds its basis bit for bit — on random sets, on sets
// within Tol of a hyperplane (where the last round's residuals straddle
// the degeneracy threshold) and on too-small and duplicated sets, through
// one reused scratch.
func TestInitialSimplexMatchesReference(t *testing.T) {
	var sc simplexScratch
	for trial := 0; trial < 600; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		d := 2 + r.Intn(5) // 2..6
		pts := randPoints(r, 1+r.Intn(80), d)
		switch trial % 4 {
		case 1: // within Tol of a hyperplane
			for _, p := range pts {
				p[d-1] = 0.3 + 0.2*p[0] - 0.1*p[d-2] + (r.Float64()*2-1)*Tol
			}
		case 2: // duplicates
			for i := range pts {
				pts[i] = pts[r.Intn(i+1)]
			}
		}
		want, wantBasis, wantErr := initialSimplexReference(pts, d)
		got, err := initialSimplex(pts, d, &sc)
		if err != wantErr || !slices.Equal(got, want) {
			t.Fatalf("trial %d (d=%d, %d points): chose %v (%v), want %v (%v)", trial, d, len(pts), got, err, want, wantErr)
		}
		if len(pts) >= d+1 && !slices.EqualFunc(sc.basis, wantBasis, sameBits) {
			t.Fatalf("trial %d (d=%d, %d points): basis bits differ", trial, d, len(pts))
		}
	}
}

func TestBuildLimited(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	pts := randPoints(r, 500, 4)
	// A generous budget succeeds and matches Build exactly.
	full, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	limited, err := BuildLimited(pts, full.NumFacets()+16)
	if err != nil {
		t.Fatalf("generous budget failed: %v", err)
	}
	if limited.NumFacets() != full.NumFacets() {
		t.Errorf("limited build has %d facets, full %d", limited.NumFacets(), full.NumFacets())
	}
	// A tiny budget reports ErrBudget.
	if _, err := BuildLimited(pts, 8); err != ErrBudget {
		t.Errorf("tiny budget: err = %v, want ErrBudget", err)
	}
}
