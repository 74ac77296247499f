package gir

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/girlib/gir/internal/datagen"
	"github.com/girlib/gir/internal/domain"
	"github.com/girlib/gir/internal/geom"
	"github.com/girlib/gir/internal/pager"
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

// TestConeFPMatchesSP is the differential of FP's cone against the
// methods that keep every candidate record: every region is the minimal
// form on the nonnegative orthant, so FP, which cuts the orthant's cone by
// only the records that beat an anchor on its rays, must give SP's region
// byte for byte, and Exhaustive's on small data. FP is built from BRS's
// whole T and, for a GIR, from a fill's screened tail too, with the same
// region and Stats. A region that lies in a hyperplane has no unique
// minimal form — rows that agree on the hyperplane are one constraint
// there, and each method keeps the first it met — so there the regions
// must be the same set on the orthant, by their rays. It runs IND, ANTI
// and COR data at d = 2…6 and data tied on a 1/4 and a 1/8 grid, box and
// simplex queries, each also with a zero coordinate, k from 1 to 70 (past
// the 64 Phase-1 rows the cone can hold), and the GIR* at k = 5.
func TestConeFPMatchesSP(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	type dataset struct {
		name string
		pts  []vec.Vector
	}
	grid := func(n, d, steps int) []vec.Vector {
		pts := make([]vec.Vector, n)
		for i := range pts {
			pts[i] = make(vec.Vector, d)
			for j := range pts[i] {
				pts[i][j] = float64(r.Intn(steps+1)) / float64(steps)
			}
		}
		return pts
	}
	sets := func(n int) []dataset {
		var out []dataset
		for _, kind := range []datagen.Kind{datagen.IND, datagen.ANTI, datagen.COR} {
			for d := 2; d <= 6; d++ {
				pts, err := datagen.Generate(kind, n, d, int64(44+d))
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, dataset{fmt.Sprintf("%s d=%d", kind, d), pts})
			}
		}
		for _, steps := range []int{4, 8} {
			for d := 2; d <= 5; d++ {
				out = append(out, dataset{fmt.Sprintf("1/%d-grid d=%d", steps, d), grid(n, d, steps)})
			}
		}
		return out
	}
	region := func(reg *Region) []byte {
		h := sha256.New()
		hashRegion(h, reg)
		return h.Sum(nil)
	}
	// same fails unless got and want are the same bytes, but for which of
	// several records whose rows below one anchor share a direction bounds
	// the region (each method keeps the first it met), or, where want
	// lies in a hyperplane, the same set on the orthant.
	hyperplane, parallel := 0, 0
	same := func(name, what string, got, want *Region) {
		if bytes.Equal(region(got), region(want)) {
			return
		}
		if sameDirections(got, want) {
			parallel++
			return
		}
		d := got.Dim
		if !flat(d, normals(want)) {
			t.Fatalf("%s: FP's region differs from %s's:\n%v\n%v", name, what, got.Constraints, want.Constraints)
		}
		if !inside(rays(d, normals(got)), normals(want)) || !inside(rays(d, normals(want)), normals(got)) {
			t.Fatalf("%s: FP's region and %s's, in a hyperplane, are not the same set on the orthant:\n%v\n%v", name, what, got.Constraints, want.Constraints)
		}
		hyperplane++
	}
	type build func(*rtree.Tree, *topk.Result, Options) (*Region, *Stats, error)
	compute := func(name string, f build, tree *rtree.Tree, q vec.Vector, k int, m Method) (*Region, *Stats) {
		reg, st, err := f(tree, topk.BRS(tree, score.Linear{}, q, k), Options{Method: m})
		if err != nil {
			t.Fatalf("%s %v: %v", name, m, err)
		}
		return reg, st
	}
	queries := func(d int) []vec.Vector {
		var qs []vec.Vector
		for range coneQueryPairs {
			for _, dom := range []domain.Domain{domain.UnitBox(d), domain.Simplex(d)} {
				q := dom.Normalize(dom.Sample(r))
				zero := q.Clone()
				zero[r.Intn(d)] = 0
				qs = append(qs, q, dom.Normalize(zero))
			}
		}
		return qs
	}

	builds, past64, exhaustive := 0, 0, 0
	for _, set := range sets(2000) {
		d := len(set.pts[0])
		tree := rtree.BulkLoad(pager.NewMemStore(), d, set.pts, nil)
		for qi, q := range queries(d) {
			for _, k := range []int{1, 2, d, d + 1, 2*d + 1, 10, 20, 40, 70} {
				name := fmt.Sprintf("%s q%d %v k=%d", set.name, qi, q, k)
				got, st := compute(name, Compute, tree, q, k, FP)
				want, _ := compute(name, Compute, tree, q, k, SP)
				same(name, "SP", got, want)
				gs := topk.AcquireGroupScratch(tree)
				tail, _ := topk.ScreenedGroup(gs, tree, score.Linear{}, []vec.Vector{q}, []int{k})
				screened, sst, err := Compute(tree, tail[0], Options{Method: FP})
				gs.Release()
				if err != nil {
					t.Fatalf("%s: the screened tail: %v", name, err)
				}
				if !bytes.Equal(region(screened), region(got)) || *sst != *st {
					t.Fatalf("%s: the screened tail's build (%+v) differs from the whole T's (%+v)", name, *sst, *st)
				}
				builds++
				if k > 65 {
					past64++
				}
				if k == 5 {
					got, _ := compute(name+" GIR*", ComputeStar, tree, q, k, FP)
					want, _ := compute(name+" GIR*", ComputeStar, tree, q, k, SP)
					same(name+" GIR*", "SP", got, want)
					builds++
				}
			}
		}
	}
	for _, set := range sets(150) {
		d := len(set.pts[0])
		tree := rtree.BulkLoad(pager.NewMemStore(), d, set.pts, nil)
		for qi, q := range queries(d)[:4] {
			for _, k := range []int{1, d + 1, 10} {
				name := fmt.Sprintf("n=150 %s q%d %v k=%d", set.name, qi, q, k)
				got, _ := compute(name, Compute, tree, q, k, FP)
				want, _ := compute(name, Compute, tree, q, k, Exhaustive)
				same(name, "Exhaustive", got, want)
				exhaustive++
			}
			got, _ := compute(fmt.Sprintf("n=150 %s q%d GIR*", set.name, qi), ComputeStar, tree, q, 5, FP)
			want, _ := compute(fmt.Sprintf("n=150 %s q%d GIR*", set.name, qi), ComputeStar, tree, q, 5, Exhaustive)
			same(fmt.Sprintf("n=150 %s q%d GIR*", set.name, qi), "Exhaustive", got, want)
			exhaustive++
		}
	}
	if past64 == 0 || hyperplane == 0 {
		t.Fatalf("%d builds passed 64 Phase-1 rows and %d regions lay in a hyperplane; the test needs both", past64, hyperplane)
	}
	t.Logf("%d builds against SP (%d past 64 Phase-1 rows) and %d against Exhaustive; %d regions in a hyperplane, the same set by their rays, and %d bounded by another record of a row's direction",
		builds, past64, exhaustive, hyperplane, parallel)
}

// sameDirections reports whether two regions have the same query and the
// same constraints up to the records that bound them: one each of every
// kind, anchor and normal direction. Records whose rows below one anchor
// share a direction (on a line through it) bound the region alike.
func sameDirections(a, b *Region) bool {
	if !slices.Equal(a.Query, b.Query) || len(a.Constraints) != len(b.Constraints) {
		return false
	}
	used := make([]bool, len(b.Constraints))
	for _, c := range a.Constraints {
		u, found := vec.Scale(1/vec.Norm(c.Normal), c.Normal), false
		for j, o := range b.Constraints {
			if !used[j] && o.Kind == c.Kind && o.A == c.A && vec.Equal(u, vec.Scale(1/vec.Norm(o.Normal), o.Normal), 1e-12) {
				used[j], found = true, true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// coneQueryPairs is how many box and simplex query pairs (a query and its
// zero-coordinate twin) TestConeFPMatchesSP draws per dataset;
// race_test.go lowers it for the race build.
var coneQueryPairs = 2

// normals returns the region's constraint normals.
func normals(reg *Region) []vec.Vector {
	rows := make([]vec.Vector, len(reg.Constraints))
	for i, c := range reg.Constraints {
		rows[i] = c.Normal
	}
	return rows
}

// rays returns the extreme rays of the cone of the rows on the orthant of
// R^d (the orthant's own for no rows).
func rays(d int, rows []vec.Vector) []vec.Vector {
	var c geom.Cone
	n := c.Enumerate(append(rows[:len(rows):len(rows)], make(vec.Vector, d)))
	out := make([]vec.Vector, n)
	for r := range out {
		g, _ := c.Ray(r)
		out[r] = g.Clone()
	}
	return out
}

// flat reports whether the cone of the rows on the orthant lies in a
// hyperplane: whether every ray lies on some row or has some coordinate
// zero.
func flat(d int, rows []vec.Vector) bool {
	rs := rays(d, rows)
	if len(rs) == 0 {
		return false
	}
	for j := 0; j < d; j++ {
		rows = append(rows, vec.Basis(d, j))
	}
	for _, a := range rows {
		on := true
		for _, g := range rs {
			on = on && math.Abs(vec.Dot(a, g)) <= 1e-9
		}
		if on {
			return true
		}
	}
	return false
}

// inside reports whether every ray satisfies every row within 1e-9.
func inside(rays, rows []vec.Vector) bool {
	for _, g := range rays {
		for _, a := range rows {
			if vec.Dot(a, g) < -1e-9 {
				return false
			}
		}
	}
	return true
}
