// Package hull implements convex hulls in arbitrary (low) dimension: Build
// is a full incremental convex hull (quickhull with conflict lists, in the
// spirit of Clarkson's randomized incremental construction), used by the CP
// algorithm, the GIR*'s result pruning and the facet-counting experiments.
package hull

import (
	"errors"
	"fmt"
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

// Slack returns Normal·p − Offset.
func (f *Facet) Slack(p vec.Vector) float64 { return vec.Dot(f.Normal, p) - f.Offset }

// simplexScratch holds initialSimplex's working buffers; the zero value is
// ready.
type simplexScratch struct {
	chosen []int
	used   []bool
	basis  []float64 // orthonormal rows spanning the chosen points' affine hull
	res    []float64 // point i's residual against the basis is res[i*d:(i+1)*d]
}

// initialSimplex greedily selects d+1 affinely independent point indices.
// It returns ErrDegenerate if the points span a lower-dimensional flat.
// The result and sc.used (which marks it) alias sc until its next use.
//
// Every point keeps its residual across rounds, and a round projects out
// only the basis row the last one added: the same operations, in the same
// order, as recomputing p − origin and projecting out every row each
// round, so the choice and the basis bits are that loop's, at O(|pts|·d²)
// rather than O(|pts|·d³).
func initialSimplex(pts []vec.Vector, d int, sc *simplexScratch) ([]int, error) {
	if len(pts) < d+1 {
		return nil, ErrDegenerate
	}
	chosen := sc.chosen[:0]
	used := vec.Grown(sc.used, len(pts))
	clear(used)
	sc.used = used
	// Start from the point with the least first coordinate.
	lo := 0
	for i, p := range pts {
		if p[0] < pts[lo][0] {
			lo = i
		}
	}
	chosen = append(chosen, lo)
	used[lo] = true
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
	simplex, err := initialSimplex(points, d, new(simplexScratch))
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
