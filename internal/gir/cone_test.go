package gir

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/girlib/gir/internal/datagen"
	"github.com/girlib/gir/internal/domain"
	"github.com/girlib/gir/internal/geom"
	"github.com/girlib/gir/internal/hull"
	"github.com/girlib/gir/internal/pager"
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

// TestConeFPMatchesStar is the differential of FP's two Phase-2 paths on
// every build whose Phase-1 cone is pointed: Compute cuts the cone by the
// records that beat p_k on its rays, and the reference (computeOnStar)
// grows the star over T and the leaves it reads. Their regions must be
// the same bytes, and the cone must read no more index nodes than the
// star, built from BRS's whole T and, for the cone, from a fill's
// screened tail too (with the same region and Stats). The one exception
// is the star's own: its virtual seeds bound its region too, so where that
// region leaves their half-spaces (a zero weight, an apex on a face of
// the box), the records that bound the region only out there are on no
// facet of the star. There the two regions must be the same set inside
// those half-spaces, and so on the query space, and the cone may read
// the pages that hold those records. It runs IND, ANTI
// and COR data at d = 2…6 and data tied on a 1/4 and a 1/8 grid, box and
// simplex queries, each also with a zero coordinate, and k from d + 1 to
// 70, past the 64 Phase-1 rows the cone can hold. On the grid a zero
// weight ties records that differ only on its axis, so some Phase-1 cones
// lie in a hyperplane; there the minimal form is the membership
// programs', and the cone, which never emits a row its rays already
// satisfy, must still give the star's bytes.
func TestConeFPMatchesStar(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	type dataset struct {
		name string
		pts  []vec.Vector
	}
	var sets []dataset
	for _, kind := range []datagen.Kind{datagen.IND, datagen.ANTI, datagen.COR} {
		for d := 2; d <= 6; d++ {
			pts, err := datagen.Generate(kind, 2000, d, int64(44+d))
			if err != nil {
				t.Fatal(err)
			}
			sets = append(sets, dataset{fmt.Sprintf("%s d=%d", kind, d), pts})
		}
	}
	for _, steps := range []int{4, 8} {
		for d := 2; d <= 5; d++ {
			pts := make([]vec.Vector, 2000)
			for i := range pts {
				pts[i] = make(vec.Vector, d)
				for j := range pts[i] {
					pts[i][j] = float64(r.Intn(steps+1)) / float64(steps)
				}
			}
			sets = append(sets, dataset{fmt.Sprintf("1/%d-grid d=%d", steps, d), pts})
		}
	}
	region := func(reg *Region) []byte {
		h := sha256.New()
		hashRegion(h, reg)
		return h.Sum(nil)
	}
	builds, past64, hyperplane, outside, differ, coneReads, starReads := 0, 0, 0, 0, 0, 0, 0
	for _, set := range sets {
		d := len(set.pts[0])
		tree := rtree.BulkLoad(pager.NewMemStore(), d, set.pts, nil)
		var qs []vec.Vector
		for _, dom := range []domain.Domain{domain.UnitBox(d), domain.Simplex(d), domain.UnitBox(d), domain.Simplex(d)} {
			q := dom.Normalize(dom.Sample(r))
			zero := q.Clone()
			zero[r.Intn(d)] = 0
			qs = append(qs, q, dom.Normalize(zero))
		}
		for qi, q := range qs {
			for _, k := range []int{d + 1, d + 2, 2*d + 1, 10, 20, 40, 70} {
				name := fmt.Sprintf("%s q%d %v k=%d", set.name, qi, q, k)
				res := topk.BRS(tree, score.Linear{}, q, k)
				rows := make([]vec.Vector, k-1)
				for i := range rows {
					rows[i] = vec.Sub(res.Records[i].Point, res.Records[i+1].Point)
				}
				var p1 geom.Cone
				if !p1.Reset(rows, res.Kth().Point) {
					continue // the star's build either way
				}
				onAll := ^uint64(0)
				for r := 0; r < p1.NumRays(); r++ {
					_, on := p1.Ray(r)
					onAll &= on
				}
				got, st, err := Compute(tree, res, Options{Method: FP})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, wst, err := computeOnStar(tree, topk.BRS(tree, score.Linear{}, q, k))
				if err != nil {
					t.Fatalf("%s: the star: %v", name, err)
				}
				// The star's virtual seeds bound it as well. Where its region
				// leaves their half-spaces, a record that bounds the region
				// only out there is on no facet of the star, and the cone
				// may read the pages that can hold one and keeps it. A region that
				// lies in a hyperplane has no unique minimal form: rows that
				// agree on the hyperplane are one constraint there, and the
				// star keeps the one on its hull, the cone the first it met.
				virtual := virtualRows(res.Kth().Point)
				leaves := !inside(rays(normals(want)), virtual)
				if !bytes.Equal(region(got), region(want)) {
					if !leaves && !flat(normals(want)) {
						t.Fatalf("%s: the cone's region differs from the star's:\n%v\n%v", name, got.Constraints, want.Constraints)
					}
					if !inside(rays(normals(got)), normals(want)) || !inside(rays(append(normals(want), virtual...)), normals(got)) {
						t.Fatalf("%s: the cone's region and the star's are not the same set inside the virtual seeds' half-spaces:\n%v\n%v", name, got.Constraints, want.Constraints)
					}
					differ++
				}
				if leaves {
					outside++
				} else if st.NodesRead > wst.NodesRead {
					t.Fatalf("%s: the cone read %d nodes, the star %d", name, st.NodesRead, wst.NodesRead)
				}
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
				coneReads += st.NodesRead
				starReads += wst.NodesRead
				if k > 65 {
					past64++
				}
				if onAll != 0 {
					hyperplane++
				}
			}
		}
	}
	if past64 == 0 || hyperplane == 0 || outside == 0 {
		t.Fatalf("%d pointed builds passed 64 Phase-1 rows, %d had a Phase-1 cone in a hyperplane and %d a star's region outside its virtual seeds' half-spaces; the test needs all three", past64, hyperplane, outside)
	}
	t.Logf("%d pointed builds (%d past 64 Phase-1 rows, %d with a Phase-1 cone in a hyperplane, %d with a star's region outside its virtual seeds' half-spaces; %d not the same bytes): the cone read %d nodes, the star %d",
		builds, past64, hyperplane, outside, differ, coneReads, starReads)
}

// virtualRows returns the rows of the half-spaces of the star's virtual
// seeds at the apex, apex − v.
func virtualRows(apex vec.Vector) []vec.Vector {
	var slab []float64
	seeds, _ := hull.VirtualSeeds(nil, nil, &slab, apex)
	rows := make([]vec.Vector, len(seeds))
	for i, v := range seeds {
		rows[i] = vec.Sub(apex, v)
	}
	return rows
}

// normals returns the region's constraint normals.
func normals(reg *Region) []vec.Vector {
	rows := make([]vec.Vector, len(reg.Constraints))
	for i, c := range reg.Constraints {
		rows[i] = c.Normal
	}
	return rows
}

// rays returns the extreme rays of the cone of the rows.
func rays(rows []vec.Vector) []vec.Vector {
	var c geom.Cone
	n := c.Enumerate(rows)
	out := make([]vec.Vector, n)
	for r := range out {
		g, _ := c.Ray(r)
		out[r] = g.Clone()
	}
	return out
}

// flat reports whether the cone of the rows lies in a hyperplane: whether
// every ray lies on some row.
func flat(rows []vec.Vector) bool {
	rs := rays(rows)
	if len(rs) == 0 {
		return false
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
