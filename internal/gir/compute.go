package gir

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/girlib/gir/internal/domain"
	"github.com/girlib/gir/internal/geom"
	"github.com/girlib/gir/internal/hull"
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/skyline"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

// Method selects the Phase-2 algorithm.
type Method int8

// Phase-2 algorithms. The zero value is FP, so an unset Method means the
// paper's headline algorithm, not the slowest one.
const (
	// FP computes only the convex-hull facets incident to p_k, refining
	// them against the R-tree (Section 6): it cuts the Phase-1 cone on the
	// orthant by the records that beat p_k on its rays. Linear scoring
	// only. This is the paper's headline algorithm.
	FP Method = iota
	// SP prunes non-result records to the skyline of D\R (Section 5.1).
	// It is the only method valid for non-linear monotone scoring
	// functions (Section 7.2).
	SP
	// CP prunes to skyline records on the convex hull of the skyline,
	// SL ∩ CH (Section 5.2). Linear scoring only.
	CP
	// Exhaustive is the Section 3.3 baseline: every record contributes a
	// half-space. Only viable on small data; used for validation.
	Exhaustive
)

func (m Method) String() string {
	switch m {
	case FP:
		return "FP"
	case SP:
		return "SP"
	case CP:
		return "CP"
	case Exhaustive:
		return "Exhaustive"
	}
	return fmt.Sprintf("gir.Method(%d)", int8(m))
}

// Options configures a GIR computation.
type Options struct {
	Method Method
	// SkipReduce keeps the raw constraint set instead of computing the
	// minimal representation (useful when only membership tests are
	// needed, or to measure the reduction step separately).
	SkipReduce bool
	// Domain is the query space the region is clipped to (nil = the unit
	// box [0,1]^d, the historical behavior). The cone constraints are
	// domain-independent — pairwise score comparisons are half-spaces
	// through the origin either way — but the computed Region carries the
	// domain so that membership, maintenance, volume and reporting all
	// clip consistently.
	Domain domain.Domain
}

// domainOrBox resolves Options.Domain against the data dimensionality.
func (o Options) domainOrBox(d int) domain.Domain {
	if o.Domain == nil {
		return domain.UnitBox(d)
	}
	return o.Domain
}

// Compute derives the order-sensitive GIR of the given top-k result.
// It consumes the retained search heap inside res; compute the GIR before
// reusing res for anything else.
func Compute(tree *rtree.Tree, res *topk.Result, opt Options) (*Region, *Stats, error) {
	return compute(tree, res, opt, true)
}

// ComputeStar derives the order-insensitive GIR* (Definition 2, Section
// 7.1): the maximal locus where the composition of the top-k result is
// preserved, ignoring the order among result records. It consumes the
// retained search heap inside res.
func ComputeStar(tree *rtree.Tree, res *topk.Result, opt Options) (*Region, *Stats, error) {
	return compute(tree, res, opt, false)
}

// compute runs both variants. They differ in Phase 1 (the GIR keeps the
// result's order, the GIR* does not) and in the anchors — the result
// records Phase 2 keeps every non-result record below: p_k alone for the
// GIR, the pruned result R⁻ for the GIR*.
func compute(tree *rtree.Tree, res *topk.Result, opt Options, ordered bool) (*Region, *Stats, error) {
	d := tree.Dim()
	st := &Stats{Method: opt.Method.String(), TSize: len(res.T) + res.DroppedT}
	if res.Cone != nil && (opt.Method != FP || !ordered) {
		return nil, nil, errors.New("gir: a screened traversal (topk.ScreenedGroup) builds only an FP GIR")
	}
	if _, ok := res.Func.(score.Function); !ok {
		return nil, nil, fmt.Errorf("gir: scoring function %q is not separable; exact GIRs need S(p,q)=Σ wᵢ·gᵢ(pᵢ) — use BuildOracle for an approximate region (Section 7.2)", res.Func.Name())
	}
	if opt.Method != SP && opt.Method != Exhaustive && !score.IsLinear(res.Func) {
		return nil, nil, fmt.Errorf("gir: method %v requires a linear scoring function; use SP (Section 7.2)", opt.Method)
	}

	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.reset(d, sepFunc(res).Transform)

	anchors := res.Records[len(res.Records)-1:]
	if ordered {
		sc.phase1(res)
	} else {
		st.Method += "*"
		anchors = resultMinus(res)
		st.RMinus = len(anchors)
	}

	if opt.Method == SP || opt.Method == CP {
		// The skyline seeds from T in the record order (skyline.InMemory);
		// FP sorts T itself (fpPhase).
		topk.SortRecords(res.T)
	}
	var err error
	switch opt.Method {
	case SP:
		// SL (and for CP, SL ∩ CH) is computed once and reused for every
		// anchor (Section 7.1).
		sc.spPhase(tree, res, anchors, st)
	case CP:
		err = sc.cpPhase(tree, res, anchors, st)
	case FP:
		sc.fpPhase(tree, res, anchors, st)
	case Exhaustive:
		if !ordered {
			// The baseline applies Definition 2 literally — every result
			// record is an anchor — providing an independent check that the
			// R⁻ pruning used by SP/CP/FP is sound.
			anchors = res.Records
		}
		sc.exhaustivePhase(tree, res, anchors, st)
	default:
		err = fmt.Errorf("gir: unknown method %v", opt.Method)
	}
	if err != nil {
		return nil, nil, err
	}
	st.RawConstraints = len(sc.cons)
	cons, query := sc.finish(res.Query, opt.SkipReduce)
	st.Constraints = len(cons)
	return &Region{Dim: d, Query: query, Constraints: cons, OrderSensitive: ordered, Domain: opt.domainOrBox(d)}, st, nil
}

// sepFunc returns the separable scoring function of a result; compute
// guarantees the assertion before any helper runs.
func sepFunc(res *topk.Result) score.Function { return res.Func.(score.Function) }

// scratch is the pooled workspace of one region computation: the raw
// constraints, FP's cone with the page block and buffers that feed it, and
// the buffers of the final ordering. Everything in it is
// private to the compute call holding it; finish copies what the Region
// keeps into fresh slabs, so a Region never aliases pooled memory.
type scratch struct {
	d int
	g func(vec.Vector) vec.Vector // the scoring function's transform

	cons    []Constraint // raw constraints; finish points Normal into normals
	normals []float64    // constraint i's normal is normals[i*d:(i+1)*d]
	rows    []vec.Vector // finish: the normals as ReduceCone's input
	slack   []float64    // finish: every raw constraint's Normal·q

	blk     rtree.NodeBlock
	rects   []float64    // FP step 2: the MBBs of the heap entries it pushes
	cone    geom.Cone    // FP: the Phase-1 cone's rays on O, pinned to the anchors; Phase 2 cuts them, and finish continues them
	anchors []vec.Vector // FP: the anchors' points, for the cone's pin
	tbuf    []float64    // FP: T, column-major, for the cone's screen
	tcols   [][]float64
	keep    []bool     // FP: which records of T or of a leaf the cone keeps
	point   vec.Vector // FP: a leaf record gathered from its columns
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func (sc *scratch) reset(d int, g func(vec.Vector) vec.Vector) {
	sc.d, sc.g = d, g
	sc.cons, sc.normals, sc.rects = sc.cons[:0], sc.normals[:0], sc.rects[:0]
	sc.cone.Reset(0, nil) // finish continues only this computation's cone
}

// add appends the half-space keeping record b below record a, given
// their points: (g(pa) − g(pb))·q' ≥ 0.
func (sc *scratch) add(kind ConstraintKind, a, b int64, pa, pb vec.Vector) {
	ga, gb := sc.g(pa), sc.g(pb)
	for j := range ga {
		sc.normals = append(sc.normals, ga[j]-gb[j])
	}
	sc.cons = append(sc.cons, Constraint{Kind: kind, A: a, B: b})
}

// phase1 derives the k−1 reorder constraints that preserve the score order
// within the result (Section 4): (g(p_i) − g(p_{i+1}))·q' ≥ 0.
func (sc *scratch) phase1(res *topk.Result) {
	for i := 0; i+1 < len(res.Records); i++ {
		a, b := res.Records[i], res.Records[i+1]
		sc.add(Reorder, a.ID, b.ID, a.Point, b.Point)
	}
}

// phase1Cone computes the extreme rays of O ∩ P1, where
// P1 = {q : (g(p_i) − g(p_{i+1}))·q ≥ 0} for a GIR and R^d for a GIR*,
// pinned to the anchors. It reads the constraints phase1 just emitted. A
// traversal whose tail already built it on the same rows
// (topk.ScreenedGroup) hands it over in res.Cone: the cone's buffers are
// swapped with the scratch's, so it is reset once, and res keeps no
// reference to it. It reports whether the cone was handed over, so res.T
// is already screened by it.
func (sc *scratch) phase1Cone(res *topk.Result, anchors []topk.Record) (screened bool) {
	if c := res.Cone; c != nil {
		sc.cone, *c, res.Cone = *c, sc.cone, nil
		return true
	}
	d := sc.d
	sc.rows, sc.anchors = sc.rows[:0], sc.anchors[:0]
	for i := range sc.cons {
		sc.rows = append(sc.rows, sc.normals[i*d:(i+1)*d])
	}
	for _, a := range anchors {
		sc.anchors = append(sc.anchors, a.Point)
	}
	sc.cone.Reset(d, sc.rows, sc.anchors...)
	clear(sc.anchors) // the pool must not keep the result's points reachable
	return false
}

// replace appends one Phase-2 half-space per (anchor, record) pair,
// anchor-major: each keeps a non-result record below a result record.
func (sc *scratch) replace(anchors, recs []topk.Record) {
	for _, a := range anchors {
		for _, p := range recs {
			sc.add(Replace, a.ID, p.ID, a.Point, p.Point)
		}
	}
}

// finish turns the raw constraints into what the Region keeps: the
// minimal set (unless skipReduce), Phase-1 constraints first and Phase-2
// constraints in descending score of their non-result record at the query
// — the most binding first, which is what Contains' first-violation exit
// wants — copied with the query into one fresh slab. The reduction sees
// the constraints in the order the phases emitted them, so the kept set
// does not depend on the final order. It reads the minimal set on the
// orthant off the cone's extreme rays (geom.Cone.Reduce): after FP every
// row is already cut into them, and any other computation starts the
// double description afresh. Raw constraints are returned as emitted.
func (sc *scratch) finish(q vec.Vector, skipReduce bool) ([]Constraint, vec.Vector) {
	d := sc.d
	sc.rows = sc.rows[:0]
	for i := range sc.cons {
		sc.cons[i].Normal = sc.normals[i*d : (i+1)*d]
		sc.rows = append(sc.rows, sc.cons[i].Normal)
	}
	var keep []int
	if skipReduce {
		keep = make([]int, len(sc.cons))
		for i := range keep {
			keep[i] = i
		}
	} else {
		keep = sc.cone.Reduce(sc.rows, 1e-12)
		sc.slack = sc.slack[:0]
		for _, n := range sc.rows {
			sc.slack = append(sc.slack, vec.Dot(n, q))
		}
		slices.SortStableFunc(keep, func(a, b int) int {
			if ka, kb := sc.cons[a].Kind, sc.cons[b].Kind; ka != kb || ka == Reorder {
				return cmp.Compare(ka, kb)
			}
			return cmp.Compare(sc.slack[a], sc.slack[b])
		})
	}
	return slabbed(d, q, sc.cons, keep)
}

// spPhase implements Skyline Pruning: one constraint per anchor and
// skyline record of D\R.
func (sc *scratch) spPhase(tree *rtree.Tree, res *topk.Result, anchors []topk.Record, st *Stats) {
	sc.replace(anchors, skylineOf(tree, res, st))
}

// skylineOf computes SL of D\R, consuming the retained heap.
func skylineOf(tree *rtree.Tree, res *topk.Result, st *Stats) []topk.Record {
	before := tree.Store().Stats().Reads
	sl := skyline.OfNonResult(tree, res)
	st.NodesRead = int(tree.Store().Stats().Reads - before)
	st.SkylineSize = len(sl.Records)
	return sl.Records
}

// cpPhase implements Convex-hull Pruning: constraints only from skyline
// records that are vertices of the convex hull of SL (Section 5.2: the
// hull is computed over the skyline records only, never the full D\R).
func (sc *scratch) cpPhase(tree *rtree.Tree, res *topk.Result, anchors []topk.Record, st *Stats) error {
	onHull := skylineOf(tree, res, st)
	if len(onHull) > tree.Dim()+1 {
		pts := make([]vec.Vector, len(onHull))
		for i, r := range onHull {
			pts[i] = r.Point
		}
		h, err := hull.Build(pts)
		switch err {
		case nil:
			verts := h.VertexIndices()
			sl := onHull
			onHull = make([]topk.Record, len(verts))
			for i, v := range verts {
				onHull[i] = sl[v]
			}
		case hull.ErrDegenerate:
			// The skyline lies in a lower-dimensional flat: every record
			// may be extreme, so fall back to the full skyline (a correct
			// superset; SP semantics).
		default:
			return err
		}
	}
	st.HullVertices = len(onHull)
	sc.replace(anchors, onHull)
	return nil
}

// exhaustivePhase is the Section 3.3 baseline: scan the dataset, one
// half-space per anchor and non-result record. Exponential-grade
// intersection cost is deferred to the reduction step; do not use beyond
// small n.
func (sc *scratch) exhaustivePhase(tree *rtree.Tree, res *topk.Result, anchors []topk.Record, st *Stats) {
	inResult := make(map[int64]bool, len(res.Records))
	for _, r := range res.Records {
		inResult[r.ID] = true
	}
	before := tree.Store().Stats().Reads
	// One block per depth: a node's children are read into the next.
	blks := make([]rtree.NodeBlock, tree.Height())
	sc.point = vec.Grown(sc.point, sc.d)
	var walk func(blk *rtree.NodeBlock, depth int)
	walk = func(blk *rtree.NodeBlock, depth int) {
		for _, child := range blk.Children {
			walk(tree.ReadBlock(child, &blks[depth+1]), depth+1)
		}
		for i, id := range blk.RecIDs {
			if !inResult[id] {
				p := blk.Point(i, sc.point)
				for _, a := range anchors {
					sc.add(Replace, a.ID, id, a.Point, p)
				}
			}
		}
	}
	walk(tree.ReadBlock(tree.Root(), &blks[0]), 0)
	st.NodesRead = int(tree.Store().Stats().Reads - before)
}
