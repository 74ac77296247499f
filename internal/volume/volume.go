// Package volume computes the ratio of a GIR's volume to the volume of its
// query space — the sensitivity measure of the paper's Figure 14
// (equivalently, the LIK probability of [30]: the chance that a uniformly
// random query vector preserves the result). Both query-space domains are
// supported: the unit box [0,1]^d and the paper's Σw=1 simplex, where the
// ratio is taken in the simplex's relative (d−1)-dimensional measure — a
// uniformly random SUM-NORMALIZED preference vector.
//
// The ratio is exact in every dimension. RatioIn maps the region into the
// domain's parameter space (Domain.Param*: the box itself; the simplex
// with its last coordinate dropped, w_d = 1 − Σu, an affine map of
// constant Jacobian, so relative volumes carry over exactly) and measures
// the region and the base by one routine.
//
// Vertices: each row a·x ≥ b becomes (a, −b)·(x, t) ≥ 0, beside t ≥ 0.
// geom.Cone's double description gives that cone's extreme rays, and a ray
// (x, t) is the vertex x/t with the rows it lies on.
//
// Volume: the facet recursion of Lasserre (1983), as Büeler, Enge & Fukuda
// ("Exact volume computation for polytopes: a practical study", 2000) run
// it. Pulling an m-face F from one of its points v₀,
//
//	vol_m(F) = (1/m) · Σ_G dist(v₀, aff G) · vol_{m−1}(G)
//
// over the facets G of F that do not hold v₀, down to points, whose volume
// is 1. A facet of F is the set of F's points that lie on one more row,
// when its affine rank is m − 1. Two rows that give the same set are one
// facet, and a face is measured once however many paths reach it.
//
// Why it stays exact. The DD's tolerances keep redundant rays: points of
// the polytope that are not vertices, marked only on rows they lie on. The
// recursion stays exact as long as three things hold: every true vertex is
// present, every point lies in the polytope, and every tight mark is sound.
// Then F's points on a row span the face that row cuts from F, so a facet
// is found with its true hull, and the pyramids from v₀ — a vertex or
// not — over the facets that miss it tile F.
package volume

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"github.com/girlib/gir/internal/domain"
	"github.com/girlib/gir/internal/geom"
	"github.com/girlib/gir/internal/vec"
)

// ErrEmpty is returned when the region has no interior: its vertices'
// affine rank is below the parameter dimension.
var ErrEmpty = errors.New("volume: region has empty interior")

// rankTol is the offset from a face's affine hull below which a point adds
// no dimension to it.
const rankTol = 1e-12

// RatioIn returns vol(∩h_i ∩ domain) / vol(domain) in the domain's own
// measure (relative (d−1)-dimensional measure for the simplex), exactly.
// The half-spaces should NOT include the domain; it is added internally.
// Region and domain together may have at most geom.MaxConeRows − 1 rows.
func RatioIn(dom domain.Domain, hs []geom.Halfspace) (float64, error) {
	base, ph := paramProblem(dom, hs)
	whole, err := polytopeVolume(base)
	if err != nil {
		return 0, err
	}
	part, err := polytopeVolume(append(ph, base...))
	if err != nil {
		return 0, err
	}
	return part / whole, nil
}

// paramProblem maps the region into the domain's parameter space.
func paramProblem(dom domain.Domain, hs []geom.Halfspace) (base, ph []geom.Halfspace) {
	base = dom.ParamBase()
	ph = make([]geom.Halfspace, len(hs))
	for i, h := range hs {
		ph[i] = dom.ParamHalfspace(h)
	}
	return base, ph
}

// polytopeVolume returns the volume of the bounded polytope
// {x : a·x ≥ b for every row}.
func polytopeVolume(rows []geom.Halfspace) (float64, error) {
	if len(rows) >= geom.MaxConeRows {
		return 0, fmt.Errorf("volume: %d rows and t ≥ 0 exceed the %d a tight mask holds", len(rows), geom.MaxConeRows)
	}
	n := len(rows[0].A)
	normals := make([]vec.Vector, 0, len(rows)+1)
	for _, h := range rows {
		normals = append(normals, append(h.A.Clone(), -h.B))
	}
	normals = append(normals, vec.Basis(n+1, n)) // t ≥ 0
	var c geom.Cone
	p := polytope{memo: map[string]float64{}}
	var all []int
	for r := range c.Enumerate(normals) {
		g, tight := c.Ray(r)
		p.pts = append(p.pts, vec.Scale(1/g[n], g[:n]))
		p.tight = append(p.tight, tight)
		all = append(all, r)
	}
	if len(all) == 0 {
		return 0, ErrEmpty
	}
	basis := p.affine(all)
	if len(basis) < n {
		return 0, ErrEmpty
	}
	return p.volume(all, basis), nil
}

// polytope is one polytope's points, their tight rows, and the volumes of
// the faces measured so far, keyed by point set.
type polytope struct {
	pts   []vec.Vector
	tight []uint64
	memo  map[string]float64
}

// volume returns the m-dimensional volume of the face whose points are
// face, ascending, where basis is an orthonormal basis of the face's
// m-dimensional affine hull's direction space.
func (p *polytope) volume(face []int, basis []vec.Vector) float64 {
	m := len(basis)
	if m == 0 {
		return 1
	}
	key := faceKey(face)
	if v, ok := p.memo[key]; ok {
		return v
	}
	v0 := face[0]
	var sum float64
	var seen []string
	for row := 0; row < geom.MaxConeRows; row++ {
		bit := uint64(1) << row
		if p.tight[v0]&bit != 0 {
			continue // v₀'s pyramid over it is flat, or the row holds all of F
		}
		var g []int
		for _, i := range face {
			if p.tight[i]&bit != 0 {
				g = append(g, i)
			}
		}
		if len(g) < m {
			continue // fewer than m points span no (m−1)-face
		}
		gk := faceKey(g)
		if slices.Contains(seen, gk) {
			continue
		}
		seen = append(seen, gk)
		if gb := p.affine(g); len(gb) == m-1 {
			sum += p.offset(v0, g[0], gb) * p.volume(g, gb)
		}
	}
	v := sum / float64(m)
	p.memo[key] = v
	return v
}

// affine returns an orthonormal basis of the direction space of the
// points' affine hull: Gram–Schmidt over their offsets from the first
// point, taking the largest residual first, until none exceeds rankTol.
func (p *polytope) affine(face []int) []vec.Vector {
	o := p.pts[face[0]]
	res := make([]vec.Vector, len(face)-1)
	for i, j := range face[1:] {
		res[i] = vec.Sub(p.pts[j], o)
	}
	var basis []vec.Vector
	for len(basis) < len(o) {
		best, bestNorm := -1, rankTol
		for i, r := range res {
			if nm := vec.Norm(r); nm > bestNorm {
				best, bestNorm = i, nm
			}
		}
		if best < 0 {
			break
		}
		q := vec.Scale(1/bestNorm, res[best])
		for _, r := range res {
			vec.AXPY(-vec.Dot(r, q), q, r)
		}
		basis = append(basis, q)
	}
	return basis
}

// offset returns the distance from point v to the affine hull through
// point g with direction basis gb.
func (p *polytope) offset(v, g int, gb []vec.Vector) float64 {
	r := vec.Sub(p.pts[v], p.pts[g])
	for _, q := range gb {
		vec.AXPY(-vec.Dot(r, q), q, r)
	}
	return vec.Norm(r)
}

// faceKey names a point set, ascending, for the memo and the dedup.
func faceKey(face []int) string {
	b := make([]byte, 0, 2*len(face))
	for _, i := range face {
		b = binary.AppendUvarint(b, uint64(i))
	}
	return string(b)
}

// DomainRatio estimates the ratio with plain uniform sampling: uniform
// samples of the domain (Dirichlet sticks for the simplex) against the
// half-spaces. It is the test oracle and ablation baseline
// (BenchmarkAblationVolume), resolving ratios down to about 10/samples.
func DomainRatio(dom domain.Domain, hs []geom.Halfspace, samples int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	hit := 0
	for s := 0; s < samples; s++ {
		if geom.ContainsAll(hs, dom.Sample(rng), 0) {
			hit++
		}
	}
	return float64(hit) / float64(samples)
}
