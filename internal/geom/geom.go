// Package geom provides the geometric primitives behind GIR computation:
// half-spaces, H-polytopes, minimal representations of polyhedral cones
// and their extreme rays.
//
// The GIR of a top-k query is the intersection of half-spaces whose bounding
// hyperplanes pass through the origin (a polyhedral cone) clipped to the
// query space, the unit box or the simplex. Both lie in the nonnegative
// orthant, so the cones here are taken on it: their rays start from its
// unit axes, and a minimal form leaves out what the orthant implies. This
// package supplies the machinery; the gir package attaches top-k semantics
// (which records produced which half-space).
package geom

import (
	"math/bits"
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
// with the nonnegative orthant O = {x ≥ 0} equals that of all of them.
// Every query space lies in O, so this is the minimal form on the query
// space; O's d unit rows bound the cone but are never returned, so a
// componentwise nonnegative normal, which O implies, is never kept.
//
// Zero normals (no longer than tol) and duplicate directions are
// collapsed first, keeping the lowest index, since a pair of mutually
// redundant constraints would otherwise survive the one-at-a-time
// elimination below. The rest is decided on one of two paths:
//
//   - By the extreme rays of the cone on O, at tol = 1e-12, the zero
//     length of Cone's own filter. The double description runs over the
//     rows from O, and in a full-dimensional cone a row that O does not
//     imply is irredundant exactly when the rays on it span d − 1
//     dimensions (Fukuda & Prodon 1996). A row is kept only when its rays
//     clear every rank with a margin and their sum lies clearly inside
//     every other row and O's, and dropped only when its rays clearly fall
//     short; so the rays never drop a doubtful row, nor keep one a
//     membership program would call redundant within its tolerance.
//   - By membership programs, for every row at once, whenever the rays
//     leave any row in doubt, the cone is not full-dimensional, more than
//     MaxConeRows distinct rows remain, or the rays outgrow their budget;
//     and at d > 4, where a double description of its own is no cheaper
//     than the programs (Cone.Reduce continues one at any d). By LP
//     duality (Farkas' lemma), a_i is redundant on O iff it lies in the
//     conical hull of the others and e_1…e_d, and the rows are tried one
//     at a time in index order against those still kept.
//
// Both paths return the same set wherever the rays decide. The work runs
// in a pooled reducer — unit normals, a Cone, the membership programs'
// generator matrix and the simplex tableau — so only the returned index
// slice is allocated.
func ReduceCone(normals []vec.Vector, tol float64) []int {
	r := reducers.Get().(*reducer)
	defer reducers.Put(r)
	r.cone.Reset(0, nil)
	keep, _ := r.reduce(&r.cone, normals, tol, maxFreshDim)
	return keep
}

// Reduce is ReduceCone continuing c's double description: only the rows
// after those of the last Reset and the Cuts that kept a row are cut, and
// when that Reset gave up on its ray budget, or a Cut capped the cone, the
// membership programs decide at once. The last Reset's rows followed by
// the rows Cut kept must be a prefix of normals, the same rows in the
// same order, or nothing (Reset(0, nil)): the rays of other rows give a
// wrong set. It leaves c's screen pinned to the cut cone.
func (c *Cone) Reduce(normals []vec.Vector, tol float64) []int {
	r := reducers.Get().(*reducer)
	defer reducers.Put(r)
	keep, _ := r.reduce(c, normals, tol, maxFreshDim)
	c.pin()
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
// the kept rows — is unit(i) in {Σ λ_j g_j + μ : λ, μ ≥ 0} over the other
// live normals g_j and O's rows, that is Σ λ_j g_j ≤ unit(i)
// componentwise? — and returns how many are left.
func (r *reducer) eliminate(kept int) int {
	for i := 0; i < len(r.alive) && kept > 0; i++ {
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

// reducer is ReduceCone's pooled workspace.
type reducer struct {
	d     int
	unit  []float64 // the normals scaled to unit length, row-major
	alive []bool
	cone  Cone            // the rays
	gen   []float64       // a membership program's rows, back to back
	rows  []lp.Constraint // over gen
	lp    lp.Solver
}

func (r *reducer) row(i int) vec.Vector { return r.unit[i*r.d : (i+1)*r.d] }

// membership sizes the program "is target in the conical hull of m
// generators and O's rows": one row per dimension, Σ λ_j g_j ≤ target,
// one column per generator, which the caller fills.
func (r *reducer) membership(m int, target vec.Vector) {
	d := len(target)
	r.gen, r.rows = vec.Grown(r.gen, d*m), vec.Grown(r.rows, d)
	for row := range r.rows {
		r.rows[row] = lp.Constraint{Coef: r.gen[row*m : (row+1)*m], Op: lp.LE, RHS: target[row]}
	}
}

var reducers = sync.Pool{New: func() any { return new(reducer) }}
