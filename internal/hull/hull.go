// Package hull implements convex hulls in arbitrary (low) dimension:
//
//   - Build: a full incremental convex hull (quickhull with conflict lists,
//     in the spirit of Clarkson's randomized incremental construction),
//     used by the CP algorithm and by the facet-counting experiments.
//   - Star: an incremental structure that maintains ONLY the hull facets
//     incident to a pinned apex vertex. This is the kernel of the paper's
//     FP (Facet Pruning) algorithm: the apex is the k-th result record p_k,
//     and the star's non-apex vertices are the critical records.
//
// Correctness of star-only maintenance rests on two facts proved in the
// paper (Section 6): (i) a ridge containing the
// apex is shared by exactly two facets that both contain the apex, so
// horizon ridges through the apex are discoverable inside the star; and
// (ii) a new point changes the star iff it lies strictly above one of the
// star's facet planes.
package hull

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"github.com/girlib/gir/internal/vec"
)

// Tol is the default geometric tolerance: points within Tol of a facet
// plane are treated as lying on it (and therefore "not above" it, the safe
// direction for pruning).
const Tol = 1e-10

// ErrDegenerate is returned when the input points do not span the space
// (they lie in a lower-dimensional flat), so no full-dimensional hull
// exists.
var ErrDegenerate = errors.New("hull: input points are affinely dependent (degenerate)")

// Facet is one (d−1)-dimensional face of a hull: d vertex indices, an
// outward unit normal and its offset (Normal·x = Offset on the plane;
// interior points satisfy Normal·x < Offset).
type Facet struct {
	Vertices []int
	Normal   vec.Vector
	Offset   float64
}

// Above reports whether p lies strictly above the facet plane (outside).
func (f *Facet) Above(p vec.Vector) bool { return vec.Dot(f.Normal, p) > f.Offset+Tol }

// Slack returns Normal·p − Offset.
func (f *Facet) Slack(p vec.Vector) float64 { return vec.Dot(f.Normal, p) - f.Offset }

// simplexScratch holds initialSimplex's working buffers so a reused Star
// selects its simplex without allocating; the zero value is ready.
type simplexScratch struct {
	chosen []int
	used   []bool
	basis  []float64 // orthonormal rows spanning the chosen points' affine hull
	res    []float64 // point i's residual against the basis is res[i*d:(i+1)*d]
}

// initialSimplex greedily selects d+1 affinely independent point indices,
// optionally forcing the inclusion of index `force` (pass -1 to disable).
// It returns ErrDegenerate if the points span a lower-dimensional flat.
// The result and sc.used (which marks it) alias sc until its next use.
//
// Every point keeps its residual across rounds, and a round projects out
// only the basis row the last one added: the same operations, in the same
// order, as recomputing p − origin and projecting out every row each
// round, so the choice and the basis bits are that loop's, at O(|pts|·d²)
// rather than O(|pts|·d³).
func initialSimplex(pts []vec.Vector, d int, force int, sc *simplexScratch) ([]int, error) {
	if len(pts) < d+1 {
		return nil, ErrDegenerate
	}
	chosen := sc.chosen[:0]
	used := vec.Grown(sc.used, len(pts))
	clear(used)
	sc.used = used
	if force >= 0 {
		chosen = append(chosen, force)
		used[force] = true
	} else {
		// Start from the two points with extreme first coordinates.
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
	// Each round takes the point with the largest residual against the
	// affine hull of the points chosen so far.
	origin := pts[chosen[0]]
	basis := sc.basis[:0]
	sc.res = vec.Grown(sc.res, len(pts)*d)
	for len(chosen) < d+1 {
		best, bestNorm := -1, 0.0
		for i, p := range pts {
			if used[i] {
				continue
			}
			r := vec.Vector(sc.res[i*d : i*d+d])
			if len(basis) == 0 {
				for j := range r {
					r[j] = p[j] - origin[j]
				}
			} else {
				row := vec.Vector(basis[len(basis)-d:])
				vec.AXPY(-vec.Dot(r, row), row, r)
			}
			if n := vec.Norm(r); n > bestNorm {
				best, bestNorm = i, n
			}
		}
		if best < 0 || bestNorm < Tol {
			sc.chosen, sc.basis = chosen, basis
			return nil, ErrDegenerate
		}
		chosen = append(chosen, best)
		used[best] = true
		inv := 1 / bestNorm
		for _, x := range sc.res[best*d : best*d+d] {
			basis = append(basis, inv*x)
		}
	}
	sc.chosen, sc.basis = chosen, basis
	return chosen, nil
}

// centroidOf writes the mean of the indexed points into c.
func centroidOf(c vec.Vector, pts []vec.Vector, idx []int) vec.Vector {
	clear(c)
	for _, i := range idx {
		vec.AXPY(1, pts[i], c)
	}
	inv := 1 / float64(len(idx))
	for j := range c {
		c[j] *= inv
	}
	return c
}

// facetThrough builds the oriented facet through the d points indexed by
// verts, with `interior` strictly below it. ok=false on degeneracy.
func facetThrough(pts []vec.Vector, verts []int, interior vec.Vector) (*Facet, bool) {
	d := len(interior)
	span := make([]vec.Vector, d)
	for i, v := range verts {
		span[i] = pts[v]
	}
	n, off, ok := vec.HyperplaneThrough(span, Tol)
	if !ok {
		return nil, false
	}
	if vec.Dot(n, interior) > off {
		n, off = vec.Scale(-1, n), -off
	}
	vcopy := make([]int, d)
	copy(vcopy, verts)
	return &Facet{Vertices: vcopy, Normal: n, Offset: off}, true
}

// ridgeKey builds a canonical string key from sorted vertex ids.
func ridgeKey(ids []int) string {
	s := make([]int, len(ids))
	copy(s, ids)
	sort.Ints(s)
	b := make([]byte, 0, 8*len(s))
	for _, v := range s {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24), byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
	return string(b)
}

// Hull is a full convex hull built by Build.
type Hull struct {
	Dim    int
	Points []vec.Vector
	facets []*bFacet
	alive  int
}

type bFacet struct {
	Facet
	neighbors []int // facet id opposite each vertex position
	outside   []int // conflict list (point ids strictly above)
	furthest  int   // position in outside of the max-slack point
	alive     bool
}

// ErrBudget is returned by BuildLimited when the facet count exceeds the
// caller's budget.
var ErrBudget = errors.New("hull: facet budget exceeded")

// BuildLimited is Build with an abort threshold on the number of live
// facets. Counting experiments (Figure 8a) use it so that exploding hulls
// in high dimension report "over budget" instead of running for hours.
func BuildLimited(points []vec.Vector, maxFacets int) (*Hull, error) {
	return build(points, maxFacets)
}

// Build computes the convex hull of the points (each of dimension d ≥ 2,
// all equal dimension). It requires the points to span the full space.
func Build(points []vec.Vector) (*Hull, error) {
	return build(points, 0)
}

func build(points []vec.Vector, maxFacets int) (*Hull, error) {
	if len(points) == 0 {
		return nil, ErrDegenerate
	}
	d := len(points[0])
	if d < 2 {
		return nil, fmt.Errorf("hull: dimension %d not supported", d)
	}
	simplex, err := initialSimplex(points, d, -1, new(simplexScratch))
	if err != nil {
		return nil, err
	}
	h := &Hull{Dim: d, Points: points}
	interior := centroidOf(make(vec.Vector, d), points, simplex)

	// d+1 simplex facets: facet i omits simplex[i]; its neighbor opposite
	// vertex simplex[j] is facet j.
	ids := make([]int, d+1)
	for i := 0; i <= d; i++ {
		verts := make([]int, 0, d)
		for j := 0; j <= d; j++ {
			if j != i {
				verts = append(verts, simplex[j])
			}
		}
		f, ok := facetThrough(points, verts, interior)
		if !ok {
			return nil, ErrDegenerate
		}
		bf := &bFacet{Facet: *f, alive: true}
		ids[i] = len(h.facets)
		h.facets = append(h.facets, bf)
		h.alive++
	}
	for i := 0; i <= d; i++ {
		bf := h.facets[ids[i]]
		bf.neighbors = make([]int, d)
		for pos, v := range bf.Vertices {
			// The ridge omitting vertex v is shared with the facet that
			// omits every simplex vertex except... by construction, facet j
			// where simplex[j] == v.
			for j := 0; j <= d; j++ {
				if simplex[j] == v {
					bf.neighbors[pos] = ids[j]
					break
				}
			}
		}
	}

	// Distribute points into conflict lists.
	inSimplex := make(map[int]bool, d+1)
	for _, s := range simplex {
		inSimplex[s] = true
	}
	for pi := range points {
		if inSimplex[pi] {
			continue
		}
		h.assign(pi, ids)
	}

	// Process facets with nonempty conflict lists.
	queue := make([]int, 0, len(h.facets))
	for _, id := range ids {
		if len(h.facets[id].outside) > 0 {
			queue = append(queue, id)
		}
	}
	for len(queue) > 0 {
		fid := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		f := h.facets[fid]
		if !f.alive || len(f.outside) == 0 {
			continue
		}
		p := f.outside[f.furthest]
		newIDs, err := h.addPoint(p, fid, interior)
		if err != nil {
			return nil, err
		}
		if maxFacets > 0 && h.alive > maxFacets {
			return nil, ErrBudget
		}
		for _, id := range newIDs {
			if len(h.facets[id].outside) > 0 {
				queue = append(queue, id)
			}
		}
	}
	return h, nil
}

// assign places point pi into the conflict list of the first facet (among
// candidates) it lies strictly above. Returns true if assigned.
func (h *Hull) assign(pi int, candidates []int) bool {
	p := h.Points[pi]
	for _, id := range candidates {
		f := h.facets[id]
		if !f.alive {
			continue
		}
		if s := f.Slack(p); s > Tol {
			if len(f.outside) == 0 || s > f.Slack(h.Points[f.outside[f.furthest]]) {
				f.furthest = len(f.outside)
			}
			f.outside = append(f.outside, pi)
			return true
		}
	}
	return false
}

// addPoint inserts point pi, known to be above facet startID, and returns
// the ids of the newly created facets.
func (h *Hull) addPoint(pi, startID int, interior vec.Vector) ([]int, error) {
	p := h.Points[pi]
	// BFS for the visible set.
	visible := map[int]bool{startID: true}
	stack := []int{startID}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range h.facets[id].neighbors {
			if visible[nb] || !h.facets[nb].alive {
				continue
			}
			if h.facets[nb].Slack(p) > Tol {
				visible[nb] = true
				stack = append(stack, nb)
			}
		}
	}
	// Horizon ridges: (facet in visible) × (neighbor not visible).
	type horizon struct {
		ridge  []int // d−1 vertex ids
		hidden int   // facet id on the far side
	}
	var ridges []horizon
	for id := range visible {
		f := h.facets[id]
		for pos, nb := range f.neighbors {
			if visible[nb] {
				continue
			}
			ridge := make([]int, 0, len(f.Vertices)-1)
			for j, v := range f.Vertices {
				if j != pos {
					ridge = append(ridge, v)
				}
			}
			ridges = append(ridges, horizon{ridge, nb})
		}
	}
	// Build one new facet per horizon ridge.
	newIDs := make([]int, 0, len(ridges))
	ridgeToNew := make(map[string][2]int, len(ridges)*h.Dim) // key → (facet id, vertex pos)
	for _, hz := range ridges {
		verts := append(append(make([]int, 0, h.Dim), hz.ridge...), pi)
		f, ok := facetThrough(h.Points, verts, interior)
		if !ok {
			return nil, fmt.Errorf("hull: degenerate facet while inserting point %d", pi)
		}
		bf := &bFacet{Facet: *f, alive: true, neighbors: make([]int, h.Dim)}
		id := len(h.facets)
		h.facets = append(h.facets, bf)
		h.alive++
		newIDs = append(newIDs, id)
		// Neighbor opposite pi (the last vertex) is the hidden facet.
		for pos, v := range bf.Vertices {
			if v == pi {
				bf.neighbors[pos] = hz.hidden
			}
		}
		// Fix the hidden facet's back-pointer (it pointed at a dying facet).
		hidden := h.facets[hz.hidden]
		hk := ridgeKey(hz.ridge)
		for pos := range hidden.neighbors {
			ridge := make([]int, 0, h.Dim-1)
			for j, v := range hidden.Vertices {
				if j != pos {
					ridge = append(ridge, v)
				}
			}
			if ridgeKey(ridge) == hk {
				hidden.neighbors[pos] = id
				break
			}
		}
		// Ridges of the new facet that contain pi pair up new facets.
		for pos, v := range bf.Vertices {
			if v == pi {
				continue
			}
			ridge := make([]int, 0, h.Dim-1)
			for j, w := range bf.Vertices {
				if j != pos {
					ridge = append(ridge, w)
				}
			}
			key := ridgeKey(ridge)
			if prev, seen := ridgeToNew[key]; seen {
				bf.neighbors[pos] = prev[0]
				h.facets[prev[0]].neighbors[prev[1]] = id
			} else {
				ridgeToNew[key] = [2]int{id, pos}
			}
		}
	}
	// Reassign orphaned conflict points; kill the visible facets.
	for id := range visible {
		f := h.facets[id]
		f.alive = false
		h.alive--
		for _, opi := range f.outside {
			if opi != pi {
				h.assign(opi, newIDs)
			}
		}
		f.outside = nil
	}
	return newIDs, nil
}

// NumFacets returns the number of facets on the hull.
func (h *Hull) NumFacets() int { return h.alive }

// Facets returns the live facets.
func (h *Hull) Facets() []*Facet {
	out := make([]*Facet, 0, h.alive)
	for _, f := range h.facets {
		if f.alive {
			out = append(out, &f.Facet)
		}
	}
	return out
}

// VertexIndices returns the sorted indices of points that are hull
// vertices.
func (h *Hull) VertexIndices() []int {
	seen := map[int]bool{}
	for _, f := range h.facets {
		if !f.alive {
			continue
		}
		for _, v := range f.Vertices {
			seen[v] = true
		}
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Contains reports whether p lies inside or on the hull (below every
// facet plane, within tolerance).
func (h *Hull) Contains(p vec.Vector) bool {
	for _, f := range h.facets {
		if f.alive && f.Slack(p) > Tol {
			return false
		}
	}
	return true
}

// IncidentFacets returns the facets having the given point index as a
// vertex (the "star" of that vertex, extracted from the full hull).
func (h *Hull) IncidentFacets(idx int) []*Facet {
	var out []*Facet
	for _, f := range h.facets {
		if !f.alive {
			continue
		}
		for _, v := range f.Vertices {
			if v == idx {
				out = append(out, &f.Facet)
				break
			}
		}
	}
	return out
}

// --- Star: facets incident to a pinned apex --------------------------------

// Star incrementally maintains the convex-hull facets incident to a pinned
// apex over a growing point set. Points are fed one at a time with Add or
// a column-major block at a time with AddBlock; the structure is exact
// provided every added point has apex-score strictly below the apex in
// the pinning direction (guaranteed in FP, where the apex is the k-th
// result record and added points are non-result records).
//
// The layout is flat: only live facets are kept (an Add that changes the
// star compacts the facets it replaced away), their normals row-major in
// one slice with offsets and fixed-stride vertex ids beside them, the
// points in one slab. Every buffer — including the scratch of Add,
// AddBlock and Critical — is reused by Reset, so a pooled Star runs
// without allocating once it has seen its largest input.
type Star struct {
	Dim int

	apex, interior vec.Vector // interior: fixed reference for orientation
	pts            []float64  // non-apex points referenced by facets: point v is pts[v*Dim:(v+1)*Dim]
	ids            []int64    // caller's id per point; virtual points get negative ids

	// Facet f has outward unit normal normals[f*Dim:(f+1)*Dim], offset
	// offsets[f] and vertices verts[f*Dim:(f+1)*Dim] (positions into pts,
	// apexID for the apex).
	normals []float64
	offsets []float64
	verts   []int32

	plane   vec.PlaneScratch
	simplex simplexScratch
	all     []vec.Vector // Reset: the apex followed by the seeds
	span    []vec.Vector // addFacet: the new facet's points
	nv      []int32      // add: the new facet's vertices
	vis     []int        // add: facets the point sees, ascending
	ridges  []int32      // add: candidate horizon ridges, Dim values each
	order   []int        // add: ridge indices sorted by vertex tuple
	point   vec.Vector   // AddBlock: the record gathered from its columns
	lo, hi  vec.Vector   // AddBlock: the block's coordinate box
	dots    []float64    // screen: one facet's products with the block
	mask    []bool       // AddBlock: records above some facet; Critical: points in use
	view    [][]float64  // screen: the block's columns from some record on
	cols    [][]float64  // Reset: unused seeds, column-major, over colbuf
	colbuf  []float64
	blockID []int64
	crit    []int // Critical: positions of the critical points
	critID  []int64
	critPt  []vec.Vector
}

// apexID is the sentinel vertex id for the apex inside Star facets.
const apexID = -1

// seedBlock is how many seeds Reset transposes and screens at a time.
const seedBlock = 128

// NewStar builds the initial star from the apex and at least d seed points
// (with caller ids). Seeds that are affinely dependent are skipped; if no
// non-degenerate simplex exists among them, ErrDegenerate is returned.
// Virtual seeds (axis projections of the apex, per Section 6.2/6.3 of the
// paper) should be given negative ids; they participate in the geometry but
// are excluded from Critical().
func NewStar(apex vec.Vector, seeds []vec.Vector, seedIDs []int64) (*Star, error) {
	s := new(Star)
	if err := s.Reset(apex, seeds, seedIDs); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset rebuilds s as NewStar(apex, seeds, seedIDs) would build a fresh
// star, reusing every buffer. The arguments are copied, not retained
// (s.all keeps the slice headers until the next Reset).
func (s *Star) Reset(apex vec.Vector, seeds []vec.Vector, seedIDs []int64) error {
	d := len(apex)
	if d < 2 {
		return fmt.Errorf("hull: dimension %d not supported", d)
	}
	if len(seeds) != len(seedIDs) {
		panic("hull: seeds and seedIDs length mismatch")
	}
	s.Dim = d
	s.pts, s.ids = s.pts[:0], s.ids[:0]
	s.normals, s.offsets, s.verts = s.normals[:0], s.offsets[:0], s.verts[:0]
	s.all = append(append(s.all[:0], apex), seeds...)
	simplex, err := initialSimplex(s.all, d, 0, &s.simplex) // force apex (index 0)
	if err != nil {
		return err
	}
	s.apex = append(s.apex[:0], apex...)
	s.interior = centroidOf(vec.Grown(s.interior, d), s.all, simplex)
	s.span, s.point = vec.Grown(s.span, d), vec.Grown(s.point, d)
	// Register the chosen seeds: simplex[i] (i ≥ 1, the apex is first) is
	// point i−1.
	for _, si := range simplex[1:] {
		s.pts = append(s.pts, s.all[si]...)
		s.ids = append(s.ids, seedIDs[si-1])
	}
	// Simplex facets containing the apex: omit one non-apex vertex each.
	for omit := 1; omit <= d; omit++ {
		nv := append(s.nv[:0], apexID)
		for i := 1; i <= d; i++ {
			if i != omit {
				nv = append(nv, int32(i-1))
			}
		}
		s.nv = nv
		if !s.addFacet(nv) {
			return ErrDegenerate
		}
	}
	// Feed the unused seeds through the normal incremental path, a
	// column-major block at a time.
	s.colbuf, s.cols, s.blockID = vec.Grown(s.colbuf, d*seedBlock), vec.Grown(s.cols, d), vec.Grown(s.blockID, seedBlock)
	for j := range s.cols {
		s.cols[j] = s.colbuf[j*seedBlock : (j+1)*seedBlock]
	}
	used := s.simplex.used
	for i := 1; i < len(s.all); {
		n := 0
		for ; i < len(s.all) && n < seedBlock; i++ {
			if used[i] {
				continue
			}
			for j, x := range s.all[i] {
				s.cols[j][n] = x
			}
			s.blockID[n] = seedIDs[i-1]
			n++
		}
		s.AddBlock(s.cols, s.blockID[:n])
	}
	return nil
}

// addFacet appends the oriented facet through the given vertices (one of
// which must be apexID; verts is copied). Returns false on degeneracy.
func (s *Star) addFacet(verts []int32) bool {
	d := s.Dim
	for i, v := range verts {
		if v == apexID {
			s.span[i] = s.apex
		} else {
			s.span[i] = s.pts[int(v)*d : int(v)*d+d]
		}
	}
	at := len(s.normals)
	s.normals = slices.Grow(s.normals, d)[:at+d]
	n := vec.Vector(s.normals[at:])
	off, ok := s.plane.Hyperplane(n, s.span, Tol)
	if !ok {
		s.normals = s.normals[:at]
		return false
	}
	if vec.Dot(n, s.interior) > off {
		for i := range n {
			n[i] = -n[i]
		}
		off = -off
	}
	s.offsets = append(s.offsets, off)
	s.verts = append(s.verts, verts...)
	return true
}

// Add processes a new point with the caller's id. It returns true if the
// star changed (p is a new critical-candidate vertex), false if p was
// discarded (below every incident facet) — in which case the star is
// exactly as it was.
func (s *Star) Add(p vec.Vector, id int64) bool { return s.add(p, id) > 0 }

// add is Add returning how many facets it created; they are the last
// ones, after the surviving facets in their old order.
func (s *Star) add(p vec.Vector, id int64) int {
	d := s.Dim
	vis := s.vis[:0]
	for f, off := range s.offsets {
		var dot float64
		for j, x := range s.normals[f*d : f*d+d] {
			dot += x * p[j]
		}
		if dot > off+Tol {
			vis = append(vis, f)
		}
	}
	s.vis = vis
	if len(vis) == 0 {
		return 0
	}
	// Horizon ridges through the apex: each apex-ridge (a facet minus one
	// non-apex vertex) is shared by exactly two star facets; it is a
	// horizon ridge iff exactly one of them is visible. A candidate is
	// stored as its d−2 non-apex vertices in ascending order followed by
	// the facet and vertex position it came from; sorting the candidates
	// by vertex tuple puts the ones seen from two visible facets side by
	// side.
	w, stride := d-2, d
	rid := s.ridges[:0]
	for _, f := range vis {
		fv := s.verts[f*d : f*d+d]
		for pos, omit := range fv {
			if omit == apexID {
				continue // omitting the apex gives a non-apex ridge
			}
			at := len(rid)
			for j, v := range fv {
				if j != pos && v != apexID {
					rid = append(rid, v)
				}
			}
			slices.Sort(rid[at:])
			rid = append(rid, int32(f), int32(pos))
		}
	}
	s.ridges = rid
	order := s.order[:0]
	for r := 0; r < len(rid); r += stride {
		order = append(order, r)
	}
	s.order = order
	byTuple := func(a, b int) int { return slices.Compare(rid[a:a+w], rid[b:b+w]) }
	slices.SortFunc(order, byTuple)
	for i := 0; i < len(order); {
		j := i + 1
		for j < len(order) && byTuple(order[i], order[j]) == 0 {
			j++
		}
		if j-i > 1 { // interior ridge of the visible region
			for _, r := range order[i:j] {
				rid[r+w] = -1
			}
		}
		i = j
	}
	// One new facet per horizon ridge: the ridge's vertices in their
	// facet's order, then p.
	pID, old := int32(len(s.ids)), len(s.offsets)
	s.pts = append(s.pts, p...)
	s.ids = append(s.ids, id)
	for r := 0; r < len(rid); r += stride {
		f, pos := int(rid[r+w]), int(rid[r+w+1])
		if f < 0 {
			continue
		}
		nv := s.nv[:0]
		for j, v := range s.verts[f*d : f*d+d] {
			if j != pos {
				nv = append(nv, v)
			}
		}
		s.nv = append(nv, pID)
		s.addFacet(s.nv)
	}
	created := len(s.offsets) - old
	if created == 0 {
		// Degenerate corner case: p would swallow every facet it saw
		// without replacements (numerically near-coplanar). Keep the old
		// facets to stay conservative, and forget p.
		s.pts, s.ids = s.pts[:len(s.pts)-d], s.ids[:pID]
		return 0
	}
	// Compact the visible facets away.
	to, next := vis[0], 1
	for f := vis[0] + 1; f < len(s.offsets); f++ {
		if next < len(vis) && vis[next] == f {
			next++
			continue
		}
		copy(s.normals[to*d:to*d+d], s.normals[f*d:f*d+d])
		copy(s.verts[to*d:to*d+d], s.verts[f*d:f*d+d])
		s.offsets[to] = s.offsets[f]
		to++
	}
	s.normals, s.offsets, s.verts = s.normals[:to*d], s.offsets[:to], s.verts[:to*d]
	return created
}

// AddBlock feeds the points of a column-major block — cols[j][i] is
// coordinate j of point i, ids[i] its caller id, an R-tree leaf's layout
// — in order, and reports whether the star changed. The outcome is
// exactly that of calling Add for every point in turn: the block is
// first screened against every facet with vec.DotColumns (bit-identical
// to Add's own products), only points above some facet go through Add,
// and whenever an Add changes the star the rest of the block is screened
// against the facets it created. A point the screen passes is above a
// facet of some earlier star, not necessarily the current one; Add
// decides, so the screen can only skip points Add would discard.
//
// The screen skips every facet the block's coordinate box lies below
// (MBBAboveAny's test); vec.MaxOverBox says why no such facet sets a bit.
func (s *Star) AddBlock(cols [][]float64, ids []int64) bool {
	n := len(ids)
	if n == 0 {
		return false
	}
	s.box(cols, n)
	s.mask = vec.Grown(s.mask, n)
	mask := s.mask
	clear(mask)
	s.screen(cols, mask, 0, 0)
	changed := false
	for i, id := range ids {
		if !mask[i] {
			continue
		}
		for j, col := range cols {
			s.point[j] = col[i]
		}
		if created := s.add(s.point, id); created > 0 {
			changed = true
			s.screen(cols, mask, i+1, len(s.offsets)-created)
		}
	}
	return changed
}

// box sets [s.lo, s.hi] to the coordinate box of the block's first n ≥ 1
// points.
func (s *Star) box(cols [][]float64, n int) {
	s.lo, s.hi = vec.Grown(s.lo, s.Dim), vec.Grown(s.hi, s.Dim)
	for j, col := range cols {
		lo, hi := col[0], col[0]
		for _, x := range col[1:n] {
			if x < lo {
				lo = x
			} else if x > hi {
				hi = x
			}
		}
		s.lo[j], s.hi[j] = lo, hi
	}
}

// screen sets mask[i] for every point i ≥ from of the block that lies
// strictly above one of the facets from first on, skipping the facets the
// block's box [s.lo, s.hi] lies below.
func (s *Star) screen(cols [][]float64, mask []bool, from, first int) {
	n, d := len(mask)-from, s.Dim
	if n <= 0 {
		return
	}
	s.dots, s.view = vec.Grown(s.dots, n), vec.Grown(s.view, d)
	for j := range s.view {
		s.view[j] = cols[j][from:]
	}
	mask = mask[from:]
	for f := first; f < len(s.offsets); f++ {
		normal, limit := s.normals[f*d:f*d+d], s.offsets[f]+Tol
		if vec.MaxOverBox(normal, s.lo, s.hi) <= limit {
			continue
		}
		vec.DotColumns(s.dots, normal, s.view)
		for i, dot := range s.dots {
			if dot > limit {
				mask[i] = true
			}
		}
	}
}

// MBBAboveAny reports whether any point of the axis-aligned box [lo,hi]
// lies strictly above some star facet. R-tree nodes for which this is
// false are pruned by FP's second step.
func (s *Star) MBBAboveAny(lo, hi vec.Vector) bool {
	d := s.Dim
	for f, off := range s.offsets {
		if vec.MaxOverBox(s.normals[f*d:f*d+d], lo, hi) > off+Tol {
			return true
		}
	}
	return false
}

// NumFacets returns the number of facets incident to the apex.
func (s *Star) NumFacets() int { return len(s.offsets) }

// Critical returns the non-virtual records incident to the star's facets
// — the paper's critical records — as caller ids in ascending order with
// their coordinates alongside. Both slices (and the coordinates) alias
// the star's buffers: they are valid until its next Add, AddBlock, Reset
// or Critical.
func (s *Star) Critical() (ids []int64, pts []vec.Vector) {
	d := s.Dim
	s.mask = vec.Grown(s.mask, len(s.ids))
	clear(s.mask)
	for _, v := range s.verts {
		if v != apexID {
			s.mask[v] = true
		}
	}
	crit := s.crit[:0]
	for v, inUse := range s.mask {
		if inUse && s.ids[v] >= 0 {
			crit = append(crit, v)
		}
	}
	s.crit = crit
	slices.SortFunc(crit, func(a, b int) int { return cmp.Compare(s.ids[a], s.ids[b]) })
	ids, pts = s.critID[:0], s.critPt[:0]
	for _, v := range crit {
		ids = append(ids, s.ids[v])
		pts = append(pts, s.pts[v*d:v*d+d:v*d+d])
	}
	s.critID, s.critPt = ids, pts
	return ids, pts
}

// Facets returns copies of the facets (vertex ids use −1 for the apex and
// otherwise the caller ids passed to Add/NewStar).
func (s *Star) Facets() []Facet {
	d := s.Dim
	out := make([]Facet, len(s.offsets))
	for f, off := range s.offsets {
		verts := make([]int, d)
		for i, v := range s.verts[f*d : f*d+d] {
			verts[i] = apexID
			if v != apexID {
				verts[i] = int(s.ids[v])
			}
		}
		out[f] = Facet{Vertices: verts, Normal: vec.Vector(s.normals[f*d : f*d+d]).Clone(), Offset: off}
	}
	return out
}

// VirtualSeeds appends to pts and ids one virtual point per dimension i,
// with negative id −1−i: the paper's axis projection apex[i]·e_i (Section
// 6.2 and footnote 6), or apex − e_i wherever that projection would land
// within Tol of the origin or of the apex — apex[i] ≤ Tol, or at most one
// coordinate of the apex above Tol. Every one is dominated by the apex, so
// its half-space is w_i ≥ 0 at worst, which every query space holds, and
// together with the apex they span a full-dimensional simplex, so they
// seed the star however few real points are known. They are excluded
// from Critical(). The points are written into *slab, grown as needed, so
// a caller that reuses its buffers allocates nothing.
func VirtualSeeds(pts []vec.Vector, ids []int64, slab *[]float64, apex vec.Vector) ([]vec.Vector, []int64) {
	d := len(apex)
	*slab = vec.Grown(*slab, d*d)
	above := 0
	for _, x := range apex {
		if x > Tol {
			above++
		}
	}
	for i, x := range apex {
		v := vec.Vector((*slab)[i*d : (i+1)*d : (i+1)*d])
		if x > Tol && above > 1 {
			clear(v)
			v[i] = x
		} else {
			copy(v, apex)
			v[i]--
		}
		pts = append(pts, v)
		ids = append(ids, int64(-1-i))
	}
	return pts, ids
}
