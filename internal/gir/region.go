// Package gir implements the paper's contribution: computation of the
// Global Immutable Region of a top-k query — the maximal locus of query
// vectors that preserve the current result — via the three Phase-2
// algorithms SP (Skyline Pruning), CP (Convex-hull Pruning) and FP (Facet
// Pruning), plus the order-insensitive variant GIR* and an exhaustive
// baseline used for validation (Section 3.3).
package gir

import (
	"fmt"

	"github.com/girlib/gir/internal/domain"
	"github.com/girlib/gir/internal/geom"
	"github.com/girlib/gir/internal/vec"
)

// ConstraintKind distinguishes the two condition families of Definition 1.
type ConstraintKind int8

// Constraint kinds.
const (
	// Reorder constraints preserve the order between adjacent result
	// records: crossing the boundary swaps records A and B in the result.
	Reorder ConstraintKind = iota
	// Replace constraints keep non-result record B below result record A:
	// crossing the boundary lets B replace (or, in GIR*, reach) A.
	Replace
)

func (k ConstraintKind) String() string {
	if k == Reorder {
		return "reorder"
	}
	return "replace"
}

// Constraint is one bounding half-space {q' : Normal·q' ≥ 0} of a GIR,
// annotated with the pair of records responsible for it. The hyperplane
// passes through the origin of query space (Section 3.2).
type Constraint struct {
	Normal vec.Vector
	Kind   ConstraintKind
	A, B   int64 // record ids: A stays ahead of B on the inside
}

// Describe renders the result perturbation incurred when the query vector
// moves onto this constraint's boundary (Section 3.2).
func (c Constraint) Describe() string {
	if c.Kind == Reorder {
		return fmt.Sprintf("records %d and %d swap positions", c.A, c.B)
	}
	return fmt.Sprintf("record %d overtakes result record %d", c.B, c.A)
}

// Halfspace converts the constraint to its geometric form.
func (c Constraint) Halfspace() geom.Halfspace {
	return geom.Halfspace{A: c.Normal, B: 0}
}

// Region is a computed (order-sensitive or order-insensitive) global
// immutable region: the polyhedral cone ∩{Normal_i·q' ≥ 0} clipped to the
// active query-space domain (internal/domain; the unit box [0,1]^d or the
// Σw=1 simplex). Constraints hold a minimal (irredundant) set unless the
// computation was asked to skip reduction.
type Region struct {
	Dim            int
	Query          vec.Vector // the original query vector (always inside)
	Constraints    []Constraint
	OrderSensitive bool
	// Domain is the query space the cone is clipped to. nil means the
	// unit box, so regions constructed before the Domain seam existed —
	// and zero-value regions in tests — keep their historical behavior.
	Domain domain.Domain
}

// Space returns the region's domain, defaulting nil to the unit box.
func (r *Region) Space() domain.Domain {
	if r.Domain == nil {
		return domain.UnitBox(r.Dim)
	}
	return r.Domain
}

// Contains reports whether q lies inside the region (within tol): in the
// domain and on the nonnegative side of every cone constraint.
func (r *Region) Contains(q vec.Vector, tol float64) bool {
	if len(q) != r.Dim {
		return false
	}
	if !r.Space().Contains(q, tol) {
		return false
	}
	for _, c := range r.Constraints {
		if vec.Dot(c.Normal, q) < -tol {
			return false
		}
	}
	return true
}

// Rays returns the extreme rays of the region's cone on the nonnegative
// orthant, each scaled to Σw = 1, as one fresh row-major slab of Dim-wide
// rows: the vertices of the region's Σw = 1 slice, so the largest value a
// linear function takes there is its largest on a ray. They come from one
// geom.Cone.Reset on a pooled cone, whose shortcuts all err toward a larger
// cone (rows past the 64th dropped, a cut past the ray budget not made, a
// ray within its tolerance of a hyperplane kept): the rays may span more
// than the region, never less.
func (r *Region) Rays() []float64 {
	sc := scratchPool.Get().(*scratch)
	defer func() { // the pool must not keep the receiver's normals reachable
		clear(sc.rows)
		scratchPool.Put(sc)
	}()
	sc.rows = sc.rows[:0]
	for _, c := range r.Constraints {
		sc.rows = append(sc.rows, c.Normal)
	}
	sc.cone.Reset(r.Dim, sc.rows)
	rays := make([]float64, 0, sc.cone.NumRays()*r.Dim)
	for i := range sc.cone.NumRays() {
		g, _ := sc.cone.Ray(i)
		var sum float64 // ≥ 1: g is a unit vector in the orthant
		for _, x := range g {
			sum += x
		}
		for _, x := range g {
			rays = append(rays, x/sum)
		}
	}
	return rays
}

// Halfspaces returns the cone constraints as half-spaces (without the box).
func (r *Region) Halfspaces() []geom.Halfspace {
	out := make([]geom.Halfspace, len(r.Constraints))
	for i, c := range r.Constraints {
		out[i] = c.Halfspace()
	}
	return out
}

// Shrink returns a new region equal to r intersected with the added
// half-spaces {Normal·q' ≥ 0}, its constraint set a minimal representation.
// The receiver is not modified — regions stay immutable, which is what lets
// cached entries be read lock-free — and the result aliases neither it nor
// added: the query and every kept normal are copied into one fresh slab,
// so a caller may build the added normals in memory it reuses.
//
// The result is geom.ReduceCone over the receiver's constraints followed
// by the added ones: the minimal form on the nonnegative orthant, where
// every query space lies, so an added half-space that holds there (a
// componentwise nonnegative normal, or one a receiver's constraint implies
// on the orthant) is dropped, and one that cuts can make a receiver's
// redundant. It backs the root package's GIR.Shrink and internal/repair,
// which only the benchmark's probes reach; the engine's drain evicts an
// entry a write perturbs and never shrinks one.
func (r *Region) Shrink(added []Constraint) *Region {
	sc := scratchPool.Get().(*scratch)
	defer func() { // the pool must not keep the receiver's and the caller's normals reachable
		clear(sc.cons)
		clear(sc.rows)
		scratchPool.Put(sc)
	}()
	sc.cons, sc.rows = append(append(sc.cons[:0], r.Constraints...), added...), sc.rows[:0]
	for _, c := range sc.cons {
		sc.rows = append(sc.rows, c.Normal)
	}
	cons, query := slabbed(r.Dim, r.Query, sc.cons, geom.ReduceCone(sc.rows, 1e-12))
	return &Region{
		Dim:            r.Dim,
		Query:          query,
		Constraints:    cons,
		OrderSensitive: r.OrderSensitive,
		Domain:         r.Domain,
	}
}

// slabbed copies the query and the constraints src[keep[i]] into one fresh
// slab, so a Region never aliases pooled or caller-owned memory.
func slabbed(d int, q vec.Vector, src []Constraint, keep []int) ([]Constraint, vec.Vector) {
	slab := make([]float64, (len(keep)+1)*d)
	query := vec.Vector(slab[:d:d])
	copy(query, q)
	cons := make([]Constraint, len(keep))
	for i, k := range keep {
		cons[i] = src[k]
		cons[i].Normal = slab[(i+1)*d : (i+2)*d : (i+2)*d]
		copy(cons[i].Normal, src[k].Normal)
	}
	return cons, query
}

// Stats reports what a GIR computation did — the quantities plotted in the
// paper's Figures 6, 8 and 15–18, under the column names girbench's figure
// tables record them by.
//
// FP's two counts describe its cone (fpPhase): StarFacets is the final
// cone's extreme rays on the orthant — the normals of the facets incident
// to p_k, the star's own, with the orthant's — and Critical the records
// that cut it (past its row or ray cap, that beat an anchor on one of its
// rays). Every FP build has some of the first.
type Stats struct {
	Method         string `json:"method,omitempty"`
	TSize          int    `json:"t_size,omitempty"`          // non-result records retained by BRS
	SkylineSize    int    `json:"sl,omitempty"`              // |SL| (SP, CP)
	HullVertices   int    `json:"sl_ch,omitempty"`           // |SL ∩ CH| (CP)
	StarFacets     int    `json:"star_facets,omitempty"`     // facets incident to p_k at the end (FP): the final cone's rays
	Critical       int    `json:"critical,omitempty"`        // critical records (FP): those that cut the cone; possibly 0
	RMinus         int    `json:"r_minus,omitempty"`         // |R⁻| (GIR* only)
	NodesRead      int    `json:"nodes_read,omitempty"`      // index nodes fetched in Phase 2
	NodesPruned    int    `json:"nodes_pruned,omitempty"`    // heap entries pruned without a read in Phase 2 (FP)
	RawConstraints int    `json:"constraints_raw,omitempty"` // constraints before redundancy elimination
	Constraints    int    `json:"constraints,omitempty"`     // constraints in the final minimal representation
}
