package hull

import (
	"fmt"
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
	if !h.Contains(vec.Vector{0.5, 0.5}) {
		t.Error("interior point reported outside")
	}
	if h.Contains(vec.Vector{1.5, 0.5}) {
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
			if !h.Contains(p) {
				return false
			}
		}
		for _, f := range h.Facets() {
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

// apexAndPoints builds a random point set whose scores under direction q
// are strictly below the apex's, so the apex is a hull vertex — the FP
// setting.
func apexAndPoints(r *rand.Rand, n, d int) (vec.Vector, []vec.Vector) {
	apex := make(vec.Vector, d)
	for j := range apex {
		apex[j] = 0.75 + 0.2*r.Float64()
	}
	pts := make([]vec.Vector, n)
	for i := range pts {
		pts[i] = make(vec.Vector, d)
		for j := range pts[i] {
			pts[i][j] = 0.7 * r.Float64()
		}
	}
	return apex, pts
}

// TestStarMatchesFullHull is the key property test for FP's kernel: the
// star maintained incrementally must equal the apex-incident facets
// extracted from the full hull.
func TestStarMatchesFullHull(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 2 + r.Intn(3) // 2..4
		apex, pts := apexAndPoints(r, d+2+r.Intn(40), d)
		ids := make([]int64, len(pts))
		for i := range ids {
			ids[i] = int64(i)
		}
		star, err := NewStar(apex, pts, ids)
		if err != nil {
			return true
		}
		all := append([]vec.Vector{apex}, pts...)
		full, err := Build(all)
		if err != nil {
			return true
		}
		// Compare facet vertex sets. Full-hull ids are offset by 1
		// (apex is index 0 there).
		want := map[string]bool{}
		for _, f := range full.IncidentFacets(0) {
			verts := make([]int, len(f.Vertices))
			for i, v := range f.Vertices {
				verts[i] = v - 1 // apex → −1, matching Star ids
			}
			want[ridgeKey(verts)] = true
		}
		got := map[string]bool{}
		for _, f := range star.Facets() {
			got[ridgeKey(f.Vertices)] = true
		}
		if len(got) != len(want) {
			return false
		}
		for k := range got {
			if !want[k] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(43))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestStar2DHasTwoFacets(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		apex, pts := apexAndPoints(r, 3+r.Intn(30), 2)
		ids := make([]int64, len(pts))
		for i := range ids {
			ids[i] = int64(i)
		}
		star, err := NewStar(apex, pts, ids)
		if err != nil {
			continue
		}
		if star.NumFacets() != 2 {
			t.Fatalf("2-d star has %d facets, want 2", star.NumFacets())
		}
	}
}

func TestStarCriticalExcludesVirtual(t *testing.T) {
	apex := vec.Vector{0.8, 0.9}
	vpts, vids := VirtualSeeds(apex)
	if len(vpts) != 2 {
		t.Fatalf("VirtualSeeds returned %d points", len(vpts))
	}
	star, err := NewStar(apex, vpts, vids)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := star.Critical(); len(got) != 0 {
		t.Errorf("virtual-only star critical = %v, want empty", got)
	}
	// A dominated point (below the apex in both dimensions) can never
	// overtake the apex; the virtual-seed facets bound exactly the apex's
	// dominance region, so it must be discarded.
	if star.Add(vec.Vector{0.7, 0.7}, 7) {
		t.Error("dominated point should not change the star")
	}
	// A non-dominated point must become critical.
	if !star.Add(vec.Vector{0.85, 0.1}, 42) {
		t.Fatal("expected the star to change")
	}
	got, _ := star.Critical()
	if len(got) != 1 || got[0] != 42 {
		t.Errorf("critical = %v, want [42]", got)
	}
}

func TestStarDiscardsDominated(t *testing.T) {
	apex := vec.Vector{0.9, 0.9, 0.9}
	vpts, vids := VirtualSeeds(apex)
	star, err := NewStar(apex, vpts, vids)
	if err != nil {
		t.Fatal(err)
	}
	star.Add(vec.Vector{0.8, 0.1, 0.1}, 1)
	star.Add(vec.Vector{0.1, 0.8, 0.1}, 2)
	star.Add(vec.Vector{0.1, 0.1, 0.8}, 3)
	// A point deep inside the current hull must not change the star.
	if star.Add(vec.Vector{0.05, 0.05, 0.05}, 4) {
		t.Error("interior point changed the star")
	}
	crit, _ := star.Critical()
	for _, id := range crit {
		if id == 4 {
			t.Error("interior point became critical")
		}
	}
}

func TestMBBAboveAny(t *testing.T) {
	apex := vec.Vector{0.9, 0.9}
	vpts, vids := VirtualSeeds(apex)
	star, err := NewStar(apex, vpts, vids)
	if err != nil {
		t.Fatal(err)
	}
	// Initial star facets connect the apex to its axis projections; the
	// region below both is the dominance-region complement of the apex.
	if star.MBBAboveAny(vec.Vector{0.0, 0.0}, vec.Vector{0.1, 0.1}) {
		t.Error("box near the origin should be below both facets")
	}
	if !star.MBBAboveAny(vec.Vector{0.85, 0.85}, vec.Vector{0.95, 0.95}) {
		t.Error("box at the apex should poke above a facet")
	}
}

// Property: star pruning is consistent — AboveAny(p) is false exactly when
// Add(p) leaves the star unchanged.
func TestStarAboveAnyConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 2 + r.Intn(3)
		apex, pts := apexAndPoints(r, d+2+r.Intn(20), d)
		ids := make([]int64, len(pts))
		for i := range ids {
			ids[i] = int64(i)
		}
		star, err := NewStar(apex, pts[:d+1], ids[:d+1])
		if err != nil {
			return true
		}
		for i := d + 1; i < len(pts); i++ {
			above := star.AboveAny(pts[i])
			changed := star.Add(pts[i], ids[i])
			if above != changed {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(47))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: order independence — the final critical set does not depend on
// insertion order.
func TestStarOrderIndependence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 2 + r.Intn(2)
		apex, pts := apexAndPoints(r, d+3+r.Intn(20), d)
		ids := make([]int64, len(pts))
		for i := range ids {
			ids[i] = int64(i)
		}
		s1, err := NewStar(apex, pts, ids)
		if err != nil {
			return true
		}
		perm := r.Perm(len(pts))
		pts2 := make([]vec.Vector, len(pts))
		ids2 := make([]int64, len(pts))
		for i, pi := range perm {
			pts2[i], ids2[i] = pts[pi], ids[pi]
		}
		s2, err := NewStar(apex, pts2, ids2)
		if err != nil {
			return true
		}
		a, _ := s1.Critical()
		b, _ := s2.Critical()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(53))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// sameStar reports how two stars differ in what callers can observe:
// facets (order, vertex ids, normal and offset bits), the critical set and
// MBBAboveAny on random boxes. Empty means identical.
func sameStar(r *rand.Rand, a, b *Star) string {
	fa, fb := a.Facets(), b.Facets()
	if len(fa) != len(fb) {
		return fmt.Sprintf("%d facets against %d", len(fa), len(fb))
	}
	for i := range fa {
		if !slices.Equal(fa[i].Vertices, fb[i].Vertices) {
			return fmt.Sprintf("facet %d: vertices %v against %v", i, fa[i].Vertices, fb[i].Vertices)
		}
		if !slices.EqualFunc(fa[i].Normal, fb[i].Normal, sameBits) || !sameBits(fa[i].Offset, fb[i].Offset) {
			return fmt.Sprintf("facet %d: plane bits differ", i)
		}
	}
	ia, pa := a.Critical()
	ib, pb := b.Critical()
	if !slices.Equal(ia, ib) {
		return fmt.Sprintf("critical %v against %v", ia, ib)
	}
	for i := range pa {
		if !slices.EqualFunc(pa[i], pb[i], sameBits) {
			return fmt.Sprintf("critical point %d differs", ia[i])
		}
	}
	for trial := 0; trial < 50; trial++ {
		lo, hi := make(vec.Vector, a.Dim), make(vec.Vector, a.Dim)
		for j := range lo {
			lo[j] = r.Float64()
			hi[j] = lo[j] + 0.3*r.Float64()
		}
		if a.MBBAboveAny(lo, hi) != b.MBBAboveAny(lo, hi) {
			return fmt.Sprintf("MBBAboveAny(%v, %v) differs", lo, hi)
		}
	}
	return ""
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// TestStarBlockFeedMatchesPointFeed is the property the screen rests on:
// a point stream fed through AddBlock, in column-major blocks of any
// size, leaves exactly the star that feeding it one Add at a time leaves.
// The stream has what a leaf page has — records the apex dominates,
// repeated records — and what it rarely has: points within Tol of a facet
// plane, on either side.
func TestStarBlockFeedMatchesPointFeed(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		d := 2 + int(seed%5) // 2..6
		apex, pts := apexAndPoints(r, 40+r.Intn(200), d)
		for i := 0; i < 20; i++ {
			p := make(vec.Vector, d) // dominated: below the apex in every coordinate
			for j := range p {
				p[j] = apex[j] * r.Float64()
			}
			pts = append(pts, p, pts[r.Intn(len(pts))].Clone())
		}
		r.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		ids := make([]int64, len(pts))
		for i := range ids {
			ids[i] = int64(i)
		}
		// Points on the planes of the star half the stream builds, nudged
		// by less than Tol: the second half meets them.
		vpts, vids := VirtualSeeds(apex)
		half, err := NewStar(apex, append(vpts, pts[:len(pts)/2]...), append(vids, ids[:len(ids)/2]...))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, f := range half.Facets() {
			p := make(vec.Vector, d)
			for _, v := range f.Vertices {
				switch {
				case v == apexID:
					vec.AXPY(1/float64(d), apex, p)
				case v < 0:
					vec.AXPY(1/float64(d), vpts[-1-v], p)
				default:
					vec.AXPY(1/float64(d), pts[v], p)
				}
			}
			vec.AXPY((r.Float64()*4-2)*Tol, f.Normal, p)
			pts = append(pts, p)
			ids = append(ids, int64(len(ids)))
		}

		one, err := NewStar(apex, vpts, vids)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		blocked, _ := NewStar(apex, vpts, vids)
		for i, p := range pts {
			one.Add(p, ids[i])
		}
		for at := 0; at < len(pts); {
			n := min(1+r.Intn(96), len(pts)-at)
			cols := make([][]float64, d)
			for j := range cols {
				cols[j] = make([]float64, n)
				for i := range cols[j] {
					cols[j][i] = pts[at+i][j]
				}
			}
			blocked.AddBlock(cols, ids[at:at+n])
			at += n
		}
		if diff := sameStar(r, one, blocked); diff != "" {
			t.Fatalf("seed %d (d=%d, %d points): %s", seed, d, len(pts), diff)
		}
	}
}

// TestStarRejectedAddLeavesNoTrace: a point that sees every facet sharing
// a ridge has no horizon, so Add creates nothing and must roll back — the
// point is not kept, and the star goes on exactly as one that never saw it.
func TestStarRejectedAddLeavesNoTrace(t *testing.T) {
	apex := vec.Vector{0.9, 0.9}
	vpts, vids := VirtualSeeds(apex)
	seen, _ := NewStar(apex, vpts, vids)
	clean, _ := NewStar(apex, vpts, vids)
	if seen.Add(vec.Vector{0.95, 0.95}, 7) { // above both edges of the 2-d star
		t.Fatal("a point with no horizon changed the star")
	}
	if len(seen.ids) != len(clean.ids) || len(seen.pts) != len(clean.pts) {
		t.Fatalf("rejected point kept: %d ids, %d coordinates; want %d, %d", len(seen.ids), len(seen.pts), len(clean.ids), len(clean.pts))
	}
	for i, p := range []vec.Vector{{0.85, 0.2}, {0.3, 0.88}, {0.5, 0.5}} {
		if seen.Add(p, int64(i)) != clean.Add(p, int64(i)) {
			t.Fatalf("point %d: the stars disagree on whether it changed them", i)
		}
	}
	if diff := sameStar(rand.New(rand.NewSource(1)), seen, clean); diff != "" {
		t.Fatal(diff)
	}
}

func TestVirtualSeedsSkipZero(t *testing.T) {
	pts, ids := VirtualSeeds(vec.Vector{0.5, 0, 0.25})
	if len(pts) != 2 {
		t.Fatalf("got %d seeds, want 2 (zero coordinate skipped)", len(pts))
	}
	if ids[0] != -1 || ids[1] != -3 {
		t.Errorf("ids = %v", ids)
	}
}

func TestIncidentFacets(t *testing.T) {
	pts := []vec.Vector{{0, 0}, {1, 0}, {1, 1}, {0, 1}}
	h, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	inc := h.IncidentFacets(0)
	if len(inc) != 2 {
		t.Errorf("corner of a square has %d incident edges, want 2", len(inc))
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
