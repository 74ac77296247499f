// Package geom provides the geometric primitives behind GIR computation:
// half-spaces, H-polytopes, minimal representations of polyhedral cones
// and their extreme rays.
//
// The GIR of a top-k query is the intersection of half-spaces whose bounding
// hyperplanes pass through the origin (a polyhedral cone) clipped to the
// query space [0,1]^d. This package supplies the machinery; the gir package
// attaches top-k semantics (which records produced which half-space).
package geom

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync"

	"github.com/girlib/gir/internal/lp"
	"github.com/girlib/gir/internal/vec"
)

// Halfspace is the closed region {x : A·x ≥ B}.
type Halfspace struct {
	A vec.Vector
	B float64
}

// Contains reports whether x satisfies the half-space within tol.
func (h Halfspace) Contains(x vec.Vector, tol float64) bool {
	return vec.Dot(h.A, x) >= h.B-tol
}

// Slack returns A·x − B, the signed margin of x (≥ 0 inside).
func (h Halfspace) Slack(x vec.Vector) float64 { return vec.Dot(h.A, x) - h.B }

// BoxHalfspaces returns the 2d half-spaces describing [0,1]^d.
func BoxHalfspaces(d int) []Halfspace {
	out := make([]Halfspace, 0, 2*d)
	for i := 0; i < d; i++ {
		lo := Halfspace{A: vec.Basis(d, i), B: 0}
		hi := Halfspace{A: vec.Scale(-1, vec.Basis(d, i)), B: -1}
		out = append(out, lo, hi)
	}
	return out
}

// ContainsAll reports whether x satisfies every half-space within tol.
func ContainsAll(hs []Halfspace, x vec.Vector, tol float64) bool {
	for _, h := range hs {
		if !h.Contains(x, tol) {
			return false
		}
	}
	return true
}

// ReduceCone returns the indices of a minimal subset of the given
// origin-anchored half-space normals {x : a_i·x ≥ 0} whose intersection
// equals the intersection of all of them.
//
// Zero normals (no longer than tol) and duplicate directions are
// collapsed first, keeping the lowest index, since a pair of mutually
// redundant constraints would otherwise survive the one-at-a-time
// elimination below. The rest is decided on one of two paths:
//
//   - By the extreme rays, at tol = 1e-12, the zero length of Cone's own
//     filter. The double description runs over the rows, and in a
//     pointed, full-dimensional cone a row is irredundant exactly when the
//     rays on it span d − 1 dimensions (Fukuda & Prodon 1996). A row is
//     kept only when its rays clear every rank with a margin and their sum
//     lies clearly inside every other row, and dropped only when its rays
//     clearly fall short; so the rays never drop a doubtful row, nor keep
//     one a membership program would call redundant within its tolerance.
//   - By membership programs, for every row at once, whenever the rays
//     leave any row in doubt, the cone is not pointed or not
//     full-dimensional, more than MaxConeRows distinct rows remain, or the
//     rays outgrow their budget; and at d > 4, where a double description
//     of its own is no cheaper than the programs (Cone.Reduce continues
//     one at any d). By LP duality (Farkas' lemma), a_i is redundant iff
//     it lies in the conical hull of the others, and the rows are tried
//     one at a time in index order against those still kept.
//
// Both paths return the same set wherever the rays decide. The work runs
// in a pooled reducer — unit normals, a Cone, the membership programs'
// generator matrix and the simplex tableau — so only the returned index
// slice is allocated.
func ReduceCone(normals []vec.Vector, tol float64) []int {
	r := reducers.Get().(*reducer)
	defer reducers.Put(r)
	r.cone.Reset(nil, nil)
	keep, _ := r.reduce(&r.cone, normals, tol, maxFreshDim)
	return keep
}

// Reduce is ReduceCone continuing c's double description: only the rows
// after those of the last Reset are cut, and when that Reset gave up on its
// ray budget the membership programs decide at once. The last Reset must
// have seen a prefix of normals, the same rows in the same order, or
// nothing (Reset(nil, nil)): the rays of other rows give a wrong set. It
// leaves c's screen unpinned.
func (c *Cone) Reduce(normals []vec.Vector, tol float64) []int {
	r := reducers.Get().(*reducer)
	defer reducers.Put(r)
	c.pointed = false // the rays change under the screen's apex products
	keep, _ := r.reduce(c, normals, tol, maxFreshDim)
	return keep
}

// reduce is ReduceCone on c's rays, starting a double description of its
// own only up to maxFresh dimensions; it also reports whether the rays
// decided, the membership programs not running. The cone's own filter —
// zero rows at coneZeroRow, duplicate directions, the lowest index kept —
// is dedupe's, so on the rays' path its kept rows are r.alive's.
func (r *reducer) reduce(c *Cone, normals []vec.Vector, tol float64, maxFresh int) ([]int, bool) {
	if len(normals) == 0 {
		return nil, true
	}
	if tol == coneZeroRow && c.reduceRays(normals, maxFresh) {
		if drop, ok := c.redundant(); ok {
			r.alive = vec.Grown(r.alive, len(normals))
			clear(r.alive)
			for j, i := range c.idx[:c.m] {
				r.alive[i] = drop&(1<<j) == 0
			}
			return r.indices(c.m - bits.OnesCount64(drop)), true
		}
	}
	return r.indices(r.eliminate(r.dedupe(normals, tol))), false
}

// indices returns, ascending, the kept rows r.alive marks.
func (r *reducer) indices(kept int) []int {
	keep := make([]int, 0, kept)
	for i, alive := range r.alive {
		if alive {
			keep = append(keep, i)
		}
	}
	return keep
}

// dedupe scales the normals into r.unit, marks in r.alive those neither
// zero nor a duplicate direction of an earlier one, and returns their
// number.
func (r *reducer) dedupe(normals []vec.Vector, tol float64) int {
	n, d := len(normals), len(normals[0])
	r.d, r.unit, r.alive = d, vec.Grown(r.unit, n*d), vec.Grown(r.alive, n)
	for i, a := range normals {
		r.alive[i] = scaleTo(r.row(i), a, tol)
	}
	kept := 0
	for i := 0; i < n; i++ {
		if !r.alive[i] {
			continue
		}
		kept++
		for j := i + 1; j < n; j++ {
			if r.alive[j] && vec.Equal(r.row(i), r.row(j), coneDupRow) {
				r.alive[j] = false
			}
		}
	}
	return kept
}

// eliminate runs the one-at-a-time conical membership elimination over
// the kept rows — is unit(i) in {Σ λ_j g_j : λ ≥ 0} over the other live
// normals g_j? — and returns how many are left.
func (r *reducer) eliminate(kept int) int {
	for i := 0; i < len(r.alive) && kept > 1; i++ {
		if !r.alive[i] {
			continue
		}
		r.membership(kept-1, r.row(i))
		col := 0
		for j, alive := range r.alive {
			if j == i || !alive {
				continue
			}
			for row, x := range r.row(j) {
				r.rows[row].Coef[col] = x
			}
			col++
		}
		if r.lp.Feasible(kept-1, r.rows) {
			r.alive[i] = false
			kept--
		}
	}
	return kept
}

// ConeCuts returns, ascending, the indices of the added normals whose
// half-space {x : a·x ≥ 0} still cuts once the kept ones hold — the
// incremental face of ReduceCone, for a kept set that is already minimal.
// The added normals are visited most binding at the point at first
// (smallest a·at/‖a‖), each tested against the kept normals and the added
// ones accepted before it: a zero normal or one that ImpliedByOne proves
// (an exact duplicate direction at λ = 1) is dropped in closed form, the
// rest by one membership program with a column per accepted normal, which
// is where a near-duplicate direction goes. What is dropped is
// implied on the nonnegative orthant, where every query space lies; an
// accepted normal may make a kept one redundant, so a caller that wants
// the minimal set reduces kept plus the result.
func ConeCuts(kept, added []vec.Vector, at vec.Vector, tol float64) []int {
	r := reducers.Get().(*reducer)
	defer reducers.Put(r)
	d := len(at)
	r.unit, r.order = vec.Grown(r.unit, (len(kept)+len(added))*d), vec.Grown(r.order, len(added))
	gen := func(i int) vec.Vector { return r.unit[i*d : (i+1)*d] }
	g := 0
	for _, a := range kept {
		if scaleTo(gen(g), a, tol) {
			g++
		}
	}
	for i, a := range added {
		r.order[i] = visit{vec.Dot(a, at) / vec.Norm(a), i}
	}
	slices.SortFunc(r.order, func(x, y visit) int {
		return cmp.Or(cmp.Compare(x.slack, y.slack), cmp.Compare(x.i, y.i))
	})
	var cuts []int
	for _, v := range r.order {
		if u := gen(g); scaleTo(u, added[v.i], tol) && !r.implied(u, g) {
			cuts = append(cuts, v.i)
			g++
		}
	}
	slices.Sort(cuts)
	return cuts
}

// ImpliedByOne reports whether a·w ≥ 0 follows from n·w ≥ 0 alone on the
// nonnegative orthant: whether a − λn is componentwise nonnegative for
// some λ ≥ 0, in which case a·w = (a − λn)·w + λ(n·w) ≥ 0 for every
// w ≥ 0 with n·w ≥ 0. Each component bounds λ from one side — a_i/n_i from
// above where n_i > 0, from below where n_i < 0, and a_i ≥ 0 where
// n_i = 0 — so the test is an interval intersection, no LP. It is a
// certificate, not a decision: true is a proof, false says nothing.
//
// A negative n_i below 1e-9 of n's largest component counts as zero, as
// lp's presolve reads it: it could only rescue a negative a_i with a λ so
// large that the proof would rest on n·w being exactly, not numerically,
// nonnegative (found by internal/repair's fuzz target, corpus entry
// ef40aeaa2d409d8c).
func ImpliedByOne(a, n vec.Vector) bool {
	var scale float64
	for _, ni := range n {
		scale = max(scale, math.Abs(ni))
	}
	lo, hi := 0.0, math.Inf(1)
	for i, ni := range n {
		switch {
		case ni > 0:
			hi = min(hi, a[i]/ni)
		case ni < -1e-9*scale:
			lo = max(lo, a[i]/ni)
		case !(a[i] >= 0):
			return false
		}
	}
	return lo <= hi
}

// scaleTo writes a scaled to unit length into dst and reports whether a is
// longer than tol (a zero normal constrains nothing).
func scaleTo(dst, a vec.Vector, tol float64) bool {
	nm := vec.Norm(a)
	if !(nm > tol) {
		return false
	}
	inv := 1 / nm
	for j, x := range a {
		dst[j] = inv * x
	}
	return true
}

// reducer is ReduceCone's and ConeCuts' pooled workspace.
type reducer struct {
	d     int
	unit  []float64 // the normals scaled to unit length, row-major
	alive []bool
	cone  Cone            // ReduceCone: the rays
	order []visit         // ConeCuts: the added normals, most binding first
	gen   []float64       // a membership program's rows, back to back
	rows  []lp.Constraint // over gen
	lp    lp.Solver
}

// visit is one added normal in ConeCuts' order.
type visit struct {
	slack float64
	i     int
}

func (r *reducer) row(i int) vec.Vector { return r.unit[i*r.d : (i+1)*r.d] }

// membership sizes the program "is target in the conical hull of m
// generators": one equality row per dimension, one column per generator,
// which the caller fills.
func (r *reducer) membership(m int, target vec.Vector) {
	d := len(target)
	r.gen, r.rows = vec.Grown(r.gen, d*m), vec.Grown(r.rows, d)
	for row := range r.rows {
		r.rows[row] = lp.Constraint{Coef: r.gen[row*m : (row+1)*m], Op: lp.EQ, RHS: target[row]}
	}
}

// implied reports whether the unit normal u is implied by the first g unit
// normals of r.unit: closed form against each, then the membership program
// against all.
func (r *reducer) implied(u vec.Vector, g int) bool {
	if g == 0 {
		return false
	}
	d := len(u)
	for j := 0; j < g; j++ {
		if ImpliedByOne(u, r.unit[j*d:(j+1)*d]) {
			return true
		}
	}
	r.membership(g, u)
	for j := 0; j < g; j++ {
		for row, x := range r.unit[j*d : (j+1)*d] {
			r.rows[row].Coef[j] = x
		}
	}
	return r.lp.Feasible(g, r.rows)
}

var reducers = sync.Pool{New: func() any { return new(reducer) }}
