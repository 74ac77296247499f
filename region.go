package gir

import (
	"fmt"
	"time"

	girint "github.com/girlib/gir/internal/gir"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
	"github.com/girlib/gir/internal/viz"
	"github.com/girlib/gir/internal/volume"
)

// GIR is a computed immutable region. It is immutable and safe for
// concurrent readers.
type GIR struct {
	region *girint.Region
	// Stats describes the computation that produced the region.
	Stats ComputeStats
	build *girint.Stats // the build's own counts, ComputeStats' source
}

// ComputeStats mirrors the quantities the paper's evaluation plots.
type ComputeStats struct {
	Method         string
	Elapsed        time.Duration // wall-clock time of the GIR computation
	PageReads      int64         // simulated disk reads during it
	SkylineSize    int           // |SL| (SP, CP)
	HullVertices   int           // |SL ∩ CH| (CP)
	StarFacets     int           // facets incident to p_k (FP): the final cone's rays
	CriticalCount  int           // critical records (FP): those that cut the cone; possibly 0
	RawConstraints int           // half-spaces before reduction
	Constraints    int           // half-spaces in the minimal form
}

// Constraint describes one bounding half-space of the region together with
// the result perturbation its boundary induces (Section 3.2 of the paper).
type Constraint struct {
	// Normal is the half-space normal: the region side satisfies
	// Normal·q' ≥ 0.
	Normal []float64
	// Kind is "reorder" (two adjacent result records swap) or "replace"
	// (a non-result record enters the result).
	Kind string
	// A and B are the record ids involved: A stays ahead of B inside.
	A, B int64
	// Description is a human-readable rendering of the perturbation.
	Description string
}

// ComputeGIR computes the order-sensitive GIR of a top-k result.
// The result is consumed (see TopKResult).
func (ds *Dataset) ComputeGIR(res *TopKResult, m Method) (*GIR, error) {
	return ds.computeGIR(res, m, false)
}

// ComputeGIRStar computes the order-insensitive GIR* (the maximal region
// preserving the result's composition, ignoring order; Section 7.1).
func (ds *Dataset) ComputeGIRStar(res *TopKResult, m Method) (*GIR, error) {
	return ds.computeGIR(res, m, true)
}

func (ds *Dataset) computeGIR(res *TopKResult, m Method, star bool) (*GIR, error) {
	inner, err := res.take()
	if err != nil {
		return nil, err
	}
	sn := ds.pinSnap()
	defer sn.release()
	// The retained BRS heap refers to pages of the version the traversal
	// ran against; Phase 2 must resume into exactly those pages. A pinned
	// snapshot of a LATER version is a different tree, so the mismatch is
	// an error rather than an inconsistent region.
	if res.version != sn.version {
		return nil, fmt.Errorf("gir: the top-k result was computed at dataset version %d but the index is now at %d — rerun TopK", res.version, sn.version)
	}
	return ds.computeGIRSnap(sn, inner, m, star)
}

// computeGIRSnap runs Phase 2 over a retained traversal against a pinned
// snapshot; the caller guarantees sn is the snapshot the traversal ran
// on, so the resumed heap and the tree pages are consistent.
func (ds *Dataset) computeGIRSnap(sn *treeSnap, inner *topk.Result, m Method, star bool) (*GIR, error) {
	readsBefore := ds.store.Stats().Reads
	start := time.Now()
	opts := girint.Options{Method: m, Domain: sn.space.domain(sn.tree.Dim())}
	var region *girint.Region
	var st *girint.Stats
	var err error
	if star {
		region, st, err = girint.ComputeStar(sn.tree, inner, opts)
	} else {
		region, st, err = girint.Compute(sn.tree, inner, opts)
	}
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	return &GIR{
		region: region,
		build:  st,
		Stats: ComputeStats{
			Method:         st.Method,
			Elapsed:        elapsed,
			PageReads:      ds.store.Stats().Reads - readsBefore,
			SkylineSize:    st.SkylineSize,
			HullVertices:   st.HullVertices,
			StarFacets:     st.StarFacets,
			CriticalCount:  st.Critical,
			RawConstraints: st.RawConstraints,
			Constraints:    st.Constraints,
		},
	}, nil
}

// groupAnswer is one member's share of an answerGroup call: its records
// and, when a region was asked for, its region — both computed against one
// dataset version.
type groupAnswer struct {
	recs    []Record
	g       *GIR // nil with girErr set when only the region build failed
	version int64
	err     error // the member was invalid at the pinned version; nothing else is set
	girErr  error
}

// answerGroup is the one way a miss is computed, for one query or many,
// with or without a region: it validates each member against ONE pinned
// snapshot, answers the valid ones with one fused traversal (a single
// member is a group of one) and, when build is set, computes each
// member's GIR with FP under the same pin, so no mutation can land
// between a traversal and its region build and each retained heap
// resumes into exactly the pages its traversal read. What the traversal
// copies out follows what the build reads, with the same reads and the
// same records bit for bit either way:
//   - no build: just the records (topk.RecordsGroup);
//   - a build: the records, and of T and the heap only what the Phase-1
//     cone on the orthant lets beat p_k, screened in the traversal's tail
//     (topk.ScreenedGroup).
//
// Validation is done here even when the caller already vetted the
// queries: the pin may be a later version than the one that check saw,
// and a racing delete can shrink the dataset below a member's k. Answers
// are positionally aligned with qs as passed; qs and ks themselves are
// consumed (the invalid members are compacted out of them in place).
// Every member's records are byte-identical to a solo Dataset.TopK at the
// pinned version. A member whose region build fails still carries its
// records (girErr set).
func (ds *Dataset) answerGroup(qs []vec.Vector, ks []int, build bool) ([]groupAnswer, topk.GroupStats) {
	sn := ds.pinSnap()
	defer sn.release()
	out := make([]groupAnswer, len(qs))
	valid := 0
	for i := range out {
		out[i].version = sn.version
		if out[i].err = sn.validate(qs[i], ks[i]); out[i].err == nil {
			qs[valid], ks[valid] = qs[i], ks[i]
			valid++
		}
	}
	if valid == 0 {
		return out, topk.GroupStats{}
	}
	brs := topk.RecordsGroup
	if build {
		brs = topk.ScreenedGroup
	}
	gs := topk.AcquireGroupScratch(sn.tree)
	defer gs.Release() // after the builds: each takes its Phase-1 cone from gs
	results, stats := brs(gs, sn.tree, score.Linear{}, qs[:valid], ks[:valid])
	next := 0
	for i := range out {
		a := &out[i]
		if a.err != nil {
			continue
		}
		res := results[next]
		next++
		a.recs = make([]Record, len(res.Records))
		for j, r := range res.Records {
			a.recs[j] = Record{ID: r.ID, Attrs: r.Point, Score: r.Score}
		}
		if build {
			a.g, a.girErr = ds.computeGIRSnap(sn, res, FP, false)
		}
	}
	return out, stats
}

// Dim returns the query-space dimensionality.
func (g *GIR) Dim() int { return g.region.Dim }

// Space returns the query-space domain the region was computed over.
func (g *GIR) Space() Space { return spaceOfKind(g.region.Space().Kind()) }

// Query returns the original query vector (always inside the region).
func (g *GIR) Query() []float64 { return append([]float64(nil), g.region.Query...) }

// OrderSensitive reports whether this is a GIR (true) or GIR* (false).
func (g *GIR) OrderSensitive() bool { return g.region.OrderSensitive }

// Contains reports whether the query vector q' preserves the top-k result
// — i.e. whether q' lies inside the region.
func (g *GIR) Contains(q []float64) bool {
	return g.region.Contains(vec.Vector(q), 1e-12)
}

// Constraints lists the bounding half-spaces with their perturbation
// attributions.
func (g *GIR) Constraints() []Constraint {
	out := make([]Constraint, len(g.region.Constraints))
	for i, c := range g.region.Constraints {
		out[i] = Constraint{
			Normal:      append([]float64(nil), c.Normal...),
			Kind:        c.Kind.String(),
			A:           c.A,
			B:           c.B,
			Description: c.Describe(),
		}
	}
	return out
}

// Shrink returns a new GIR equal to this one intersected with the
// additional half-spaces {w : normal·w ≥ 0}, with the combined constraint
// set reduced to a minimal representation. The receiver is unchanged.
// Normals must have the region's dimension.
//
// It narrows a region to the weights that also meet further linear
// conditions — a user's own bounds on the weights, or the pairwise
// constraint p − p_k of a record p that would have to stay behind the
// k-th. The Engine does not use it: a write that can perturb a cached
// result evicts the entry, and the next miss refills it.
func (g *GIR) Shrink(normals [][]float64) (*GIR, error) {
	added := make([]girint.Constraint, 0, len(normals))
	for i, n := range normals {
		if len(n) != g.region.Dim {
			return nil, fmt.Errorf("gir: shrink normal %d has dimension %d, want %d", i, len(n), g.region.Dim)
		}
		added = append(added, girint.Constraint{
			Normal: n, // Region.Shrink copies what it keeps
			Kind:   girint.Replace,
			A:      -1,
			B:      -1,
		})
	}
	return &GIR{region: g.region.Shrink(added), Stats: g.Stats}, nil
}

// VolumeRatio returns vol(GIR)/vol(query space): the probability that a
// uniformly random query vector OF THE ACTIVE SPACE preserves the result
// — the robustness measure of the paper's Figure 14 (the LIK measure of
// [30]). In the simplex space both volumes are taken in the simplex's
// relative (d−1)-dimensional measure, which is what keeps the ratio
// comparable to the paper's plots at higher d. The ratio is exact in every
// dimension: internal/volume enumerates the region's vertices and sums
// pyramids over its facets. It returns an error when the region has no
// interior.
func (g *GIR) VolumeRatio() (float64, error) {
	return volume.RatioIn(g.region.Space(), g.region.Halfspaces())
}

// Interval is a per-weight validity range; see LIRs.
type Interval struct {
	Lo, Hi float64
	// LoPerturbation / HiPerturbation describe the result change when the
	// weight reaches each bound. When the query-space domain rather than
	// a result-perturbation constraint is what binds, the text names the
	// active domain's boundary facet (e.g. "query space boundary
	// (w1 = 0)" in the box, "simplex boundary (w1 = 0)" / "simplex
	// vertex (w1 = 1, ...)" in the Σw=1 space).
	LoPerturbation, HiPerturbation string
}

// LIRs returns, for each dimension, the interval within which that weight
// can move without changing the result: the slide-bar bounds of the
// paper's Figure 1, equal to the local immutable regions of [24], derived
// by interactive projection (Section 7.3). In the box space the other
// weights stay fixed; in the simplex space the slide rebalances — the
// other weights keep their relative proportions so the vector stays
// sum-normalized (see internal/viz).
func (g *GIR) LIRs() []Interval {
	ivs := viz.LIRs(g.region, g.region.Query)
	out := make([]Interval, len(ivs))
	for i, iv := range ivs {
		out[i] = Interval{
			Lo: iv.Lo, Hi: iv.Hi,
			LoPerturbation: g.describeBound(iv.LoConstraint, iv.LoBoundary),
			HiPerturbation: g.describeBound(iv.HiConstraint, iv.HiBoundary),
		}
	}
	return out
}

func (g *GIR) describeBound(ci int, boundary string) string {
	if ci < 0 {
		return boundary
	}
	return g.region.Constraints[ci].Describe()
}

// MAH returns a maximal axis-parallel hyper-rectangle [lo, hi] containing
// the query and inscribed in the region's CONE clipped to [0,1]^d
// (Section 7.3). In the box space that is the region itself: bounds that
// stay valid under simultaneous independent readjustment of all weights.
// In the simplex space the region is the cone's Σw=1 slice, so the box
// is the envelope of valid rebalanced settings: a point of [lo, hi] is a
// preserved query iff it is also sum-normalized (box ∩ {Σw=1} ⊆ region);
// sample with Space.Normalize or use LIRs for per-weight bounds.
func (g *GIR) MAH() (lo, hi []float64) {
	l, h := viz.MAH(g.region, g.region.Query)
	return l, h
}

// RadarBounds returns the inner and outer tipping-point marks of the
// radar-chart visualization (Figure 1(b)).
func (g *GIR) RadarBounds() (inner, outer []float64) {
	in, out := viz.RadarBounds(g.region, g.region.Query)
	return in, out
}

// String summarizes the region.
func (g *GIR) String() string {
	kind := "GIR"
	if !g.region.OrderSensitive {
		kind = "GIR*"
	}
	return fmt.Sprintf("%s{d=%d, constraints=%d, method=%s}",
		kind, g.region.Dim, len(g.region.Constraints), g.Stats.Method)
}

// internalRegion exposes the region to sibling root-package files (cache).
func (g *GIR) internalRegion() *girint.Region { return g.region }
