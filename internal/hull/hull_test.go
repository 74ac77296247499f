package hull

import (
	"cmp"
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
	vpts, vids := virtualSeeds(apex)
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
	vpts, vids := virtualSeeds(apex)
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
	vpts, vids := virtualSeeds(apex)
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

// Property: star pruning is consistent — MBBAboveAny(p, p), the box
// test on a single point, is false exactly when Add(p) leaves the star
// unchanged.
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
			above := star.MBBAboveAny(pts[i], pts[i])
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
		vpts, vids := virtualSeeds(apex)
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

		// Blocks cut from the shuffled stream, and blocks cut from it sorted
		// on one axis, so that each is narrow along it as a leaf is: shuffled
		// blocks have boxes too wide for the screen's box skip to fire. (At
		// d = 6 the sorted stream passes through stars of thousands of
		// facets, a minute of test time; TestScreenMaskMatchesDefinition
		// covers narrow blocks there.)
		for _, sorted := range []bool{false, true} {
			if sorted && d == 6 {
				continue
			}
			order := make([]int, len(pts))
			for i := range order {
				order[i] = i
			}
			if sorted {
				axis := int(seed) % d
				slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(pts[a][axis], pts[b][axis]) })
			}
			var cuts [][]int
			for at := 0; at < len(order); {
				n := min(1+r.Intn(96), len(order)-at)
				cuts = append(cuts, order[at:at+n])
				at += n
			}
			if sorted {
				// A leaf's records in no order, the leaves in FP's order:
				// best maxscore first, for the query (1, …, 1) the apex wins.
				ones := make(vec.Vector, d)
				for j := range ones {
					ones[j] = 1
				}
				maxScore := func(cut []int) (m float64) {
					for _, o := range cut {
						m = max(m, vec.Dot(pts[o], ones))
					}
					return m
				}
				for _, cut := range cuts {
					r.Shuffle(len(cut), func(i, j int) { cut[i], cut[j] = cut[j], cut[i] })
				}
				slices.SortStableFunc(cuts, func(a, b []int) int { return cmp.Compare(maxScore(b), maxScore(a)) })
			}
			one, err := NewStar(apex, vpts, vids)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			blocked, _ := NewStar(apex, vpts, vids)
			for _, cut := range cuts {
				blk, blkIDs := make([]vec.Vector, len(cut)), make([]int64, len(cut))
				for i, o := range cut {
					blk[i], blkIDs[i] = pts[o], ids[o]
					one.Add(pts[o], ids[o])
				}
				blocked.AddBlock(columns(blk, d), blkIDs)
			}
			if diff := sameStar(r, one, blocked); diff != "" {
				t.Fatalf("seed %d (d=%d, %d points, sorted %v): %s", seed, d, len(pts), sorted, diff)
			}
		}
	}
}

// columns transposes d-dimensional points into a column-major block.
func columns(pts []vec.Vector, d int) [][]float64 {
	cols := make([][]float64, d)
	for j := range cols {
		cols[j] = make([]float64, len(pts))
		for i, p := range pts {
			cols[j][i] = p[j]
		}
	}
	return cols
}

// TestScreenMaskMatchesDefinition: the screen, skipping every facet the
// block's box lies below, sets exactly the definition's bits — point
// i ≥ from is masked iff some facet f ≥ first has Dot(n_f, p_i) >
// off_f + Tol. The blocks are built so that the skip fires, and at its
// edge: cuts of points sorted on one axis, tight clusters, box corners
// within ±2·Tol of a facet plane (the corner a record or not), zero-width
// boxes, duplicates and one-record blocks; every block is also
// re-screened from a later record against the later facets, with the
// whole block's box, as AddBlock does after an Add that changed the star.
func TestScreenMaskMatchesDefinition(t *testing.T) {
	screens, skipped, edges, edgeSkips := 0, 0, 0, 0
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		d := 2 + int(seed%5) // 2..6
		apex, pts := apexAndPoints(r, 60+r.Intn(200), d)
		vpts, vids := virtualSeeds(apex)
		ids := make([]int64, 30)
		for i := range ids {
			ids[i] = int64(i)
		}
		star, err := NewStar(apex, append(vpts, pts[:30]...), append(vids, ids...))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if star.AddBlock(make([][]float64, d), nil) {
			t.Fatalf("seed %d: an empty block changed the star", seed)
		}

		var blocks [][]vec.Vector
		target := map[int]int{} // block → the facet its box corner is near
		sorted, axis := slices.Clone(pts), r.Intn(d)
		slices.SortFunc(sorted, func(a, b vec.Vector) int { return cmp.Compare(a[axis], b[axis]) })
		for at := 0; at < len(sorted); at += 16 {
			blocks = append(blocks, sorted[at:min(at+16, len(sorted))])
		}
		for c := 0; c < 10; c++ {
			center := pts[r.Intn(len(pts))]
			cluster := make([]vec.Vector, 1+r.Intn(20))
			for i := range cluster {
				cluster[i] = center.Clone()
				for j := range center {
					cluster[i][j] += 1e-3 * r.NormFloat64()
				}
			}
			blocks = append(blocks, cluster, []vec.Vector{center}, []vec.Vector{center, center.Clone(), center})
		}
		for f := 0; f < star.NumFacets(); f++ {
			normal := vec.Vector(star.normals[f*d : f*d+d])
			corner := make(vec.Vector, d)
			for _, v := range star.verts[f*d : f*d+d] {
				if v == apexID {
					vec.AXPY(1/float64(d), star.apex, corner)
				} else {
					vec.AXPY(1/float64(d), star.pts[int(v)*d:int(v)*d+d], corner)
				}
			}
			vec.AXPY((r.Float64()*4-2)*Tol, normal, corner)
			// Records below the corner in every coordinate the normal
			// rewards, so vec.MaxOverBox for f is attained at the corner.
			blk := make([]vec.Vector, 1+r.Intn(12))
			for i := range blk {
				blk[i] = corner.Clone()
				for j, nj := range normal {
					if nj > 0 {
						blk[i][j] -= 0.01 * r.Float64()
					} else {
						blk[i][j] += 0.01 * r.Float64()
					}
				}
			}
			// The corner itself in some blocks, so a record sits on it.
			if r.Intn(2) == 0 {
				blk[0] = corner
			}
			blocks = append(blocks, blk)
			target[len(blocks)-1] = f
		}

		for b, blk := range blocks {
			cols := columns(blk, d)
			star.box(cols, len(blk))
			for f := 0; f < star.NumFacets(); f++ {
				skip := vec.MaxOverBox(star.normals[f*d:f*d+d], star.lo, star.hi) <= star.offsets[f]+Tol
				screens++
				if skip {
					skipped++
				}
				if tf, ok := target[b]; ok && tf == f {
					edges++
					if skip {
						edgeSkips++
					}
				}
			}
			from, first := 0, 0
			for pass := 0; pass < 2; pass++ {
				mask := make([]bool, len(blk))
				star.screen(cols, mask, from, first)
				for i, p := range blk {
					want := false
					for f := first; i >= from && f < star.NumFacets(); f++ {
						want = want || vec.Dot(star.normals[f*d:f*d+d], p) > star.offsets[f]+Tol
					}
					if mask[i] != want {
						t.Fatalf("seed %d, block %d (%d records), from %d, first %d: record %d masked %v, want %v", seed, b, len(blk), from, first, i, mask[i], want)
					}
				}
				from, first = 1+r.Intn(len(blk)), r.Intn(star.NumFacets())
			}
		}
	}
	if skipped == 0 || skipped == screens || edgeSkips == 0 || edgeSkips == edges {
		t.Fatalf("the box skip fired on %d of %d (facet, block) screens and %d of %d at a plane: the blocks do not test it", skipped, screens, edgeSkips, edges)
	}
	t.Logf("the box skip fired on %d of %d (facet, block) screens, and on %d of %d whose box corner is within 2·Tol of the facet's plane", skipped, screens, edgeSkips, edges)
}

// initialSimplexReference is the loop initialSimplex replaced, kept as its
// oracle: every round recomputes p − origin and projects out every basis
// row. It returns the chosen indices and the basis.
func initialSimplexReference(pts []vec.Vector, d int, force int) ([]int, []float64, error) {
	if len(pts) < d+1 {
		return nil, nil, ErrDegenerate
	}
	var chosen []int
	used := make([]bool, len(pts))
	if force >= 0 {
		chosen = append(chosen, force)
		used[force] = true
	} else {
		lo, hi := 0, 0
		for i, p := range pts {
			if p[0] < pts[lo][0] {
				lo = i
			}
			if p[0] > pts[hi][0] {
				hi = i
			}
		}
		if lo == hi {
			hi = (lo + 1) % len(pts)
		}
		chosen = append(chosen, lo)
		used[lo] = true
	}
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
// the degeneracy threshold), on too-small and duplicated sets, with the
// apex forced (Reset) and without (Build), through one reused scratch.
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
		force := -1
		if r.Intn(2) == 0 {
			force = r.Intn(len(pts))
		}
		want, wantBasis, wantErr := initialSimplexReference(pts, d, force)
		got, err := initialSimplex(pts, d, force, &sc)
		if err != wantErr || !slices.Equal(got, want) {
			t.Fatalf("trial %d (d=%d, %d points, force %d): chose %v (%v), want %v (%v)", trial, d, len(pts), force, got, err, want, wantErr)
		}
		if len(pts) >= d+1 && !slices.EqualFunc(sc.basis, wantBasis, sameBits) {
			t.Fatalf("trial %d (d=%d, %d points, force %d): basis bits differ", trial, d, len(pts), force)
		}
	}
}

// TestStarRejectedAddLeavesNoTrace: a point that sees every facet sharing
// a ridge has no horizon, so Add creates nothing and must roll back — the
// point is not kept, and the star goes on exactly as one that never saw it.
func TestStarRejectedAddLeavesNoTrace(t *testing.T) {
	apex := vec.Vector{0.9, 0.9}
	vpts, vids := virtualSeeds(apex)
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

// virtualSeeds is VirtualSeeds into fresh buffers.
func virtualSeeds(apex vec.Vector) ([]vec.Vector, []int64) {
	var slab []float64
	return VirtualSeeds(nil, nil, &slab, apex)
}

// TestVirtualSeedsSpanWithApex holds VirtualSeeds to its contract for
// apexes with no, one and d − 1 zero coordinates, the origin and one
// coordinate within Tol of zero: d points, each dominated by the apex,
// that with it span a full-dimensional simplex (the star's initial
// simplex takes all of them), and the paper's projection apex[i]·e_i on
// every axis where it lands on neither the origin nor the apex.
func TestVirtualSeedsSpanWithApex(t *testing.T) {
	for _, apex := range []vec.Vector{
		{0.8, 0.9, 0.3}, {0.5, 0, 0.25}, {0.5, 0, 0}, {0, 0, 0},
		{0, 0, 0.7, 0}, {1e-11, 0.4, 0.2, 0.9, 0.1, 0},
	} {
		d := len(apex)
		pts, ids := virtualSeeds(apex)
		if len(pts) != d {
			t.Fatalf("apex %v: %d seeds, want %d", apex, len(pts), d)
		}
		above := 0
		for _, x := range apex {
			if x > Tol {
				above++
			}
		}
		for i, p := range pts {
			if ids[i] != int64(-1-i) {
				t.Fatalf("apex %v: seed %d has id %d", apex, i, ids[i])
			}
			for j, x := range p {
				if x > apex[j] {
					t.Fatalf("apex %v: seed %v is not dominated by it", apex, p)
				}
			}
			if apex[i] > Tol && above > 1 {
				proj := make(vec.Vector, d)
				proj[i] = apex[i]
				if !slices.Equal(p, proj) {
					t.Fatalf("apex %v: seed %d is %v, want the projection %v", apex, i, p, proj)
				}
			}
		}
		star, err := NewStar(apex, pts, ids)
		if err != nil {
			t.Fatalf("apex %v: %v", apex, err)
		}
		if star.NumFacets() != d {
			t.Fatalf("apex %v: the seeds' star has %d facets, want the simplex's %d", apex, star.NumFacets(), d)
		}
	}
	// Reused buffers: the seeds follow what the slices held, and a slab
	// holding an earlier apex's seeds is overwritten whole.
	slab := []float64{7, 7, 7, 7, 7, 7, 7, 7, 7}
	pts, ids := VirtualSeeds([]vec.Vector{{1, 2, 3}}, []int64{4}, &slab, vec.Vector{0.5, 0, 0.25})
	want := []vec.Vector{{1, 2, 3}, {0.5, 0, 0}, {0.5, -1, 0.25}, {0, 0, 0.25}}
	if !slices.EqualFunc(pts, want, slices.Equal) || !slices.Equal(ids, []int64{4, -1, -2, -3}) {
		t.Errorf("appended seeds = %v %v, want %v [4 -1 -2 -3]", pts, ids, want)
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
