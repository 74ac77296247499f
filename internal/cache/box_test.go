package cache

import (
	"math/rand"
	"testing"

	"github.com/girlib/gir/internal/domain"
	"github.com/girlib/gir/internal/geom"
	"github.com/girlib/gir/internal/gir"
	"github.com/girlib/gir/internal/pager"
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

// TestLookupBoxMatchesConeScan: a lookup that tests an entry's cone only
// where its ray box holds the query returns the entry, and so the
// complete or partial verdict, that a scan testing every cone returns. The
// cache holds FP regions of four kinds in both spaces at d = 2–6: random
// data, records on a line through p_k, tied 1/4-grid data, and raw
// constraint sets past the cone's 64-row cap, whose rays come from a
// capped (wider) cone. Each entry is asked at its rays, at the midpoints of
// ray pairs (its faces among them), at convex combinations of all its
// rays, and at points just outside one of its constraints, rescaled in the
// unit box so Σq is not 1. Every query in the orthant that an entry's cone
// holds must pass that entry's box.
func TestLookupBoxMatchesConeScan(t *testing.T) {
	r := rand.New(rand.NewSource(48))
	kinds := []string{"random", "collinear", "grid", "capped"}
	var asked, inCone, boxOnly, boxOut, hits, partial int
	for _, space := range []func(int) domain.Domain{domain.UnitBox, domain.Simplex} {
		c := New(1024)
		for d := 2; d <= 6; d++ {
			for _, kind := range kinds {
				for i := 0; i < boxRegions; i++ {
					reg, recs := boxRegion(t, r, kind, space(d))
					if !c.Put(reg, recs) {
						t.Fatalf("%s d=%d: Put refused the region", kind, d)
					}
				}
			}
		}
		entries := c.Entries()
		if len(entries) != 5*len(kinds)*boxRegions {
			t.Fatalf("%d entries cached, want %d", len(entries), 5*len(kinds)*boxRegions)
		}
		for _, owner := range entries {
			for _, q := range boxQueries(r, owner) {
				var sum float64
				for _, x := range q {
					sum += x
				}
				for _, e := range entries {
					if e.dim != len(q) || !inOrthant(q) {
						continue
					}
					cone, box := e.coneContains(q), e.boxHolds(q, sum)
					switch {
					case cone && !box:
						t.Fatalf("%s d=%d: the cone holds %v, its ray box %v does not", owner.space.Name(), e.dim, q, e.box)
					case cone:
						inCone++
					case box:
						boxOnly++
					default:
						boxOut++
					}
				}
				for _, k := range []int{1, owner.K, owner.K + 3} {
					want := coneScan(c.Entries(), q, k)
					got, ok := c.Lookup(q, k)
					if got != want || ok != (want != nil) {
						t.Fatalf("%s d=%d: q = %v at k = %d: the box scan returned %p (ok %v), the cone scan %p",
							owner.space.Name(), owner.dim, q, k, got, ok, want)
					}
					asked++
					if ok && k <= got.K {
						hits++
					} else if ok {
						partial++
					}
				}
			}
		}
	}
	t.Logf("%d lookups, %d complete and %d partial hits; over every (query, entry): %d in the cone, %d in the box only, %d outside the box",
		asked, hits, partial, inCone, boxOnly, boxOut)
	if hits == 0 || partial == 0 || boxOnly == 0 || boxOut == 0 {
		t.Fatal("a verdict never occurred: the test is vacuous")
	}
}

// boxRegions is how many regions TestLookupBoxMatchesConeScan draws per
// kind, dimension and space.
const boxRegions = 8

// coneScan is bestContaining without the box: every entry past the dim and
// domain checks is cone-tested.
func coneScan(view []*Entry, q vec.Vector, k int) *Entry {
	var best *Entry
	for _, e := range view {
		if e.dim != len(q) || !e.space.Contains(q, 0) || !e.coneContains(q) {
			continue
		}
		if e.K >= k {
			return e
		}
		if best == nil || e.K > best.K {
			best = e
		}
	}
	return best
}

func inOrthant(q vec.Vector) bool {
	for _, x := range q {
		if x < 0 {
			return false
		}
	}
	return true
}

// boxRegion builds one FP region of the given kind in dom, with its result.
func boxRegion(t *testing.T, r *rand.Rand, kind string, dom domain.Domain) (*gir.Region, []topk.Record) {
	t.Helper()
	d := dom.Dim()
	n, k := 200, 2+r.Intn(8)
	if kind == "capped" {
		n, k = 400, 70
	}
	coord := r.Float64
	if kind == "grid" {
		coord = func() float64 { return float64(r.Intn(5)) / 4 }
	}
	pts := make([]vec.Vector, n)
	for i := range pts {
		pts[i] = make(vec.Vector, d)
		for j := range pts[i] {
			pts[i][j] = coord()
		}
	}
	q := make(vec.Vector, d)
	for j := range q {
		q[j] = 0.15 + 0.7*r.Float64()
	}
	q = dom.Normalize(q)
	if kind == "collinear" { // records on a line through p_k, below it at q
		pk := topk.BRS(rtree.BulkLoad(pager.NewMemStore(), d, pts, nil), score.Linear{}, q, k).Records[k-1].Point
		v := make(vec.Vector, d)
		for j := range v {
			v[j] = r.NormFloat64()
		}
		if vec.Dot(q, v) < 0 {
			v = vec.Scale(-1, v)
		}
		for i := 1; i <= 8; i++ {
			pts = append(pts, vec.Sub(pk, vec.Scale(0.01*float64(i), v)))
		}
	}
	tree := rtree.BulkLoad(pager.NewMemStore(), d, pts, nil)
	res := topk.BRS(tree, score.Linear{}, q, k)
	reg, _, err := gir.Compute(tree, res, gir.Options{Method: gir.FP, Domain: dom, SkipReduce: kind == "capped"})
	if err != nil {
		t.Fatal(err)
	}
	if kind == "capped" && len(reg.Constraints) <= geom.MaxConeRows {
		t.Fatalf("a raw region of %d rows does not pass the cone's row cap", len(reg.Constraints))
	}
	return reg, res.Records
}

// boxQueries draws the queries TestLookupBoxMatchesConeScan asks about one
// entry: up to 8 of its rays, 8 midpoints of ray pairs, 8 convex
// combinations of all its rays, and 8 of those combinations moved just
// past one constraint, each put back on Σw = 1 in the simplex and scaled
// into the unit box otherwise.
func boxQueries(r *rand.Rand, e *Entry) []vec.Vector {
	d, rays := e.dim, e.Rays
	m := len(rays) / d
	ray := func(i int) vec.Vector { return vec.Vector(rays[i*d : (i+1)*d]) }
	combo := func() vec.Vector {
		w := make(vec.Vector, d)
		var total float64
		for i := 0; i < m; i++ {
			x := r.ExpFloat64()
			total += x
			for j, g := range ray(i) {
				w[j] += x * g
			}
		}
		return vec.Scale(1/total, w)
	}
	var out []vec.Vector
	for i := 0; i < min(m, 8); i++ {
		out = append(out, ray(r.Intn(m)).Clone())
	}
	for i := 0; i < 8; i++ {
		a, b := ray(r.Intn(m)), ray(r.Intn(m))
		out = append(out, vec.Scale(0.5, vec.Add(a, b)))
	}
	for i := 0; i < 8; i++ {
		out = append(out, combo())
	}
	for i := 0; i < 8 && len(e.Region.Constraints) > 0; i++ {
		x := combo()
		a := e.Region.Constraints[r.Intn(len(e.Region.Constraints))].Normal
		gap := []float64{1e-12, 1e-9, 1e-6}[r.Intn(3)]
		out = append(out, vec.Sub(x, vec.Scale((vec.Dot(a, x)+gap)/vec.Dot(a, a), a)))
	}
	for i, q := range out {
		var sum, top float64
		for _, x := range q {
			sum, top = sum+x, max(top, x)
		}
		switch {
		case e.kind == domain.KindSimplex && sum > 0:
			out[i] = vec.Scale(1/sum, q)
		case e.kind != domain.KindSimplex && top > 0:
			out[i] = vec.Scale((0.2+0.8*r.Float64())/top, q)
		}
	}
	return out
}

// TestDisjointBoxesConeTestOneEntry: three hand-built regions in d = 2
// whose ray boxes are disjoint. A hit looks at every entry up to its own
// but cone-tests only its own, and a query in the gap between two boxes
// looks at all three and cone-tests none.
func TestDisjointBoxesConeTestOneEntry(t *testing.T) {
	c := New(4)
	for _, normals := range [][]vec.Vector{
		{{1, -3}},          // w1 ≥ 3·w2: rays (1, 0) and (3, 1)/4
		{{-3, 1}},          // w2 ≥ 3·w1
		{{2, -1}, {-1, 2}}, // between w1 = 2·w2 and w2 = 2·w1: rays (2, 1)/3 and (1, 2)/3
	} {
		reg := &gir.Region{Dim: 2, Query: vec.Vector{0.5, 0.5}, OrderSensitive: true}
		for _, n := range normals {
			reg.Constraints = append(reg.Constraints, gir.Constraint{Normal: n})
		}
		if !c.Put(reg, []topk.Record{{ID: 1, Point: vec.Vector{1, 1}}}) {
			t.Fatal("Put refused the region")
		}
	}
	entries := c.Entries()
	for _, tc := range []struct {
		q                 vec.Vector
		want              *Entry
		probes, coneTests int64
	}{
		{vec.Vector{0.9, 0.1}, entries[0], 1, 1},
		{vec.Vector{0.1, 0.9}, entries[1], 2, 1},
		{vec.Vector{0.5, 0.5}, entries[2], 3, 1},
		{vec.Vector{0.4, 0.6}, entries[2], 3, 1},
		{vec.Vector{0.7, 0.3}, nil, 3, 0}, // between the boxes of the first and the last
	} {
		probes, coneTests := c.Probes(), c.ConeTests()
		got, _ := c.Lookup(tc.q, 1)
		if got != tc.want {
			t.Fatalf("q = %v: got entry %p, want %p", tc.q, got, tc.want)
		}
		if p, ct := c.Probes()-probes, c.ConeTests()-coneTests; p != tc.probes || ct != tc.coneTests {
			t.Fatalf("q = %v: the lookup looked at %d entries and cone-tested %d, want %d and %d", tc.q, p, ct, tc.probes, tc.coneTests)
		}
	}
}
