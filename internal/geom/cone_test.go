package geom

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/girlib/gir/internal/lp"
	"github.com/girlib/gir/internal/vec"
)

// coneCase is a ranked result as FP's Phase 1 sees it: records sorted by
// descending score under q0, so q0 lies in their cone, and the apex last.
type coneCase struct {
	name string
	q0   vec.Vector
	recs []vec.Vector
}

func (cc coneCase) rows() []vec.Vector {
	rows := make([]vec.Vector, len(cc.recs)-1)
	for i := range rows {
		rows[i] = vec.Sub(cc.recs[i], cc.recs[i+1])
	}
	return rows
}

func (cc coneCase) apex() vec.Vector { return cc.recs[len(cc.recs)-1] }

func randPoint(rng *rand.Rand, d int) vec.Vector {
	p := make(vec.Vector, d)
	for i := range p {
		p[i] = rng.Float64()
	}
	return p
}

// coneCases draws ranked results of every shape the screen must survive:
// random, near-tied (a score gap of 1e-13), duplicate (repeated records and
// repeated differences), near-zero (records 1e-13 apart) and rank-deficient
// (records on a hyperplane through a common direction).
func coneCases(rng *rand.Rand, d, k int) []coneCase {
	q0 := randPoint(rng, d)
	sorted := func(recs []vec.Vector) []vec.Vector {
		slices.SortStableFunc(recs, func(a, b vec.Vector) int {
			return -cmpFloat(vec.Dot(a, q0), vec.Dot(b, q0))
		})
		return recs
	}
	random := func() []vec.Vector {
		recs := make([]vec.Vector, k)
		for i := range recs {
			recs[i] = randPoint(rng, d)
		}
		return sorted(recs)
	}
	var out []coneCase
	out = append(out, coneCase{"random", q0, random()})

	// Near-tied: every other record moved, orthogonally to q0, to a score
	// 1e-13 below its predecessor's.
	tied := random()
	for i := 1; i < k; i += 2 {
		u := randPoint(rng, d)
		vec.AXPY(-vec.Dot(u, q0)/vec.Dot(q0, q0), q0, u)
		p := vec.Add(tied[i-1], vec.Scale(0.1, u))
		vec.AXPY(-1e-13/vec.Dot(q0, q0), q0, p)
		tied[i] = p
	}
	out = append(out, coneCase{"near-tied", q0, tied})

	// Duplicate: a walk down the ranking by steps δ with δ·q0 ≥ 0, where
	// every third step repeats the one before it (a duplicate row) and every
	// fifth is zero (a repeated record).
	dup := []vec.Vector{randPoint(rng, d)}
	var step vec.Vector
	for i := 1; i < k; i++ {
		switch {
		case i%5 == 0:
			step = make(vec.Vector, d)
		case i%3 != 0 || step == nil:
			step = vec.Scale(0.2, vec.Sub(randPoint(rng, d), randPoint(rng, d)))
			if vec.Dot(step, q0) < 0 {
				step = vec.Scale(-1, step)
			}
		}
		dup = append(dup, vec.Sub(dup[i-1], step))
	}
	out = append(out, coneCase{"duplicate", q0, dup})

	// Near-zero: records 1e-13 apart.
	near := random()
	for i := 1; i < k; i += 3 {
		p := near[i-1].Clone()
		for j := range p {
			p[j] -= 1e-13 * rng.Float64()
		}
		near[i] = p
	}
	out = append(out, coneCase{"near-zero", q0, sorted(near)})

	// Rank-deficient: every record on {x : x·w = 1}, so every row is
	// orthogonal to w and the cone holds the line through w.
	w := randPoint(rng, d)
	flat := random()
	for _, p := range flat {
		vec.AXPY((1-vec.Dot(p, w))/vec.Dot(w, w), w, p)
	}
	out = append(out, coneCase{"rank-deficient", q0, sorted(flat)})
	return out
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// rowRank is the rank of the nonzero rows, by Gram–Schmidt at 1e-9.
func rowRank(rows []vec.Vector) int {
	var basis []vec.Vector
	for _, a := range rows {
		r := a.Clone()
		for _, b := range basis {
			vec.AXPY(-vec.Dot(r, b), b, r)
		}
		if nm := vec.Norm(r); nm > 1e-9*max(vec.Norm(a), 1e-300) && vec.Norm(a) > 1e-12 {
			basis = append(basis, vec.Scale(1/nm, r))
		}
	}
	return len(basis)
}

// bestOverCone solves max (x − apex)·q over the cone ∩ [−1,1]^d, the
// footnote-7 LP the screen replaces, and returns the maximiser.
func bestOverCone(rows []vec.Vector, x, apex vec.Vector) (vec.Vector, bool) {
	d := len(x)
	// q = u − v with u, v ∈ [0,1]^d.
	obj := make([]float64, 2*d)
	for j := 0; j < d; j++ {
		obj[j], obj[d+j] = x[j]-apex[j], apex[j]-x[j]
	}
	var cons []lp.Constraint
	for _, a := range rows {
		coef := make([]float64, 2*d)
		for j := 0; j < d; j++ {
			coef[j], coef[d+j] = a[j], -a[j]
		}
		cons = append(cons, lp.Constraint{Coef: coef, Op: lp.GE, RHS: 0})
	}
	for j := 0; j < 2*d; j++ {
		coef := make([]float64, 2*d)
		coef[j] = 1
		cons = append(cons, lp.Constraint{Coef: coef, Op: lp.LE, RHS: 1})
	}
	sol := lp.Maximize(obj, cons)
	if sol.Status != lp.Optimal {
		return nil, false
	}
	q := make(vec.Vector, d)
	for j := range q {
		q[j] = sol.X[j] - sol.X[d+j]
	}
	return q, true
}

// TestConeRaysProperty holds the Phase-1 screen to its definition on every
// kind of ranked result coneCases draws: every ray lies in the cone; no
// record or box the screen drops beats the apex by more than 1e-9 at any
// query inside the cone, sampled around q0 or found by the LP; and a cone
// that is not pointed drops nothing.
func TestConeRaysProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var c Cone
	dropped, kept, pointed := 0, 0, map[string]int{}
	for trial := 0; trial < 25; trial++ {
		for d := 2; d <= 6; d++ {
			for _, k := range []int{2, d, d + 1, 2 * d, 20} {
				for _, cc := range coneCases(rng, d, k) {
					rows, apex := cc.rows(), cc.apex()
					ok := c.Reset(rows, apex)
					if ok && len(c.tight) == 0 {
						t.Fatalf("%s d=%d k=%d: a pointed cone without rays", cc.name, d, k)
					}
					if rank := rowRank(rows); rank < d && ok {
						t.Fatalf("%s d=%d k=%d: rows of rank %d < d make a pointed cone", cc.name, d, k, rank)
					}
					if !ok {
						checkKeepsAll(t, &c, rng, d, cc.name)
						continue
					}
					pointed[cc.name]++
					for r := range c.tight {
						g := c.ray(r)
						if math.Abs(vec.Norm(g)-1) > 1e-12 {
							t.Fatalf("%s d=%d k=%d: ray %v is not a unit vector", cc.name, d, k, g)
						}
						for i, a := range rows {
							if s := vec.Dot(a, g); s < -1e-9 {
								t.Fatalf("%s d=%d k=%d: ray %d misses row %d by %g", cc.name, d, k, r, i, s)
							}
						}
					}
					qs := samplesInside(rng, rows, cc.q0)
					pts := make([]vec.Vector, 40)
					for x := range pts {
						pts[x] = randPoint(rng, d)
						if x%2 == 1 { // near the apex, where the screen decides closely
							for j := range pts[x] {
								pts[x][j] = apex[j] + 0.05*(pts[x][j]-0.5)
							}
						}
					}
					for x, keep := range screen(&c, pts...) {
						p := pts[x]
						if keep {
							kept++
							continue
						}
						dropped++
						checkBeaten(t, rows, qs, p, apex, cc.name)
						lo, hi := p.Clone(), p.Clone()
						for j := range lo {
							lo[j] -= 0.01 * rng.Float64()
							hi[j] += 0.01 * rng.Float64()
						}
						if !c.BoxMayBeat(lo, hi) {
							for _, corner := range []vec.Vector{lo, hi} {
								if screen(&c, corner)[0] {
									t.Fatalf("%s: box [%v, %v] dropped, its corner %v kept", cc.name, lo, hi, corner)
								}
								checkBeaten(t, rows, qs, corner, apex, cc.name)
							}
						}
					}
				}
			}
		}
	}
	for _, name := range []string{"random", "near-tied", "duplicate", "near-zero"} {
		if pointed[name] == 0 {
			t.Errorf("no %s case came out pointed: the property is vacuous there", name)
		}
	}
	if pointed["rank-deficient"] != 0 {
		t.Errorf("%d rank-deficient cases came out pointed", pointed["rank-deficient"])
	}
	t.Logf("pointed cases %v; the screen dropped %d records and kept %d", pointed, dropped, kept)
	if dropped == 0 || kept == 0 {
		t.Errorf("the screen dropped %d and kept %d records: one side is untested", dropped, kept)
	}
}

// screen runs Cone.Screen over the points as one column-major block.
func screen(c *Cone, pts ...vec.Vector) []bool {
	cols := make([][]float64, len(pts[0]))
	for j := range cols {
		for _, p := range pts {
			cols[j] = append(cols[j], p[j])
		}
	}
	keep := make([]bool, len(pts))
	c.Screen(keep, cols)
	return keep
}

// samplesInside returns queries in the cone: q0 and perturbations of it at
// several scales, each kept if it satisfies every row exactly.
func samplesInside(rng *rand.Rand, rows []vec.Vector, q0 vec.Vector) []vec.Vector {
	var qs []vec.Vector
	for _, scale := range []float64{0, 1, 0.1, 0.01, 1e-4} {
		for i := 0; i < 50 && (i == 0 || scale > 0); i++ {
			q := q0.Clone()
			for j := range q {
				q[j] += scale * (2*rng.Float64() - 1)
			}
			inside := true
			for _, a := range rows {
				inside = inside && vec.Dot(a, q) >= 0
			}
			if inside {
				qs = append(qs, q)
			}
		}
	}
	return qs
}

// checkBeaten fails if x, which the screen dropped, beats the apex by
// more than 1e-9 (per unit of ‖q‖∞) at a sampled query, or by more than the
// LP's own tolerance at the LP's best query in the cone.
func checkBeaten(t *testing.T, rows, qs []vec.Vector, x, apex vec.Vector, name string) {
	t.Helper()
	diff := vec.Sub(x, apex)
	for _, q := range qs {
		var qmax float64
		for _, v := range q {
			qmax = max(qmax, math.Abs(v))
		}
		if s := vec.Dot(diff, q); s > 1e-9*qmax {
			t.Fatalf("%s: dropped %v beats the apex %v by %g at q=%v", name, x, apex, s, q)
		}
	}
	if q, ok := bestOverCone(rows, x, apex); ok {
		if s := vec.Dot(diff, q); s > 1e-7 {
			t.Fatalf("%s: dropped %v beats the apex %v by %g at the LP's q=%v", name, x, apex, s, q)
		}
	}
}

// checkKeepsAll fails if a cone that is not pointed drops a record or box.
func checkKeepsAll(t *testing.T, c *Cone, rng *rand.Rand, d int, name string) {
	t.Helper()
	for i := 0; i < 5; i++ {
		lo := randPoint(rng, d)
		if !screen(c, lo)[0] || !c.BoxMayBeat(lo, lo) {
			t.Fatalf("%s: a cone that is not pointed dropped %v", name, lo)
		}
	}
}

// TestConeRaysSimplicial checks the rays of a cone with known rays: the
// orthant's are the unit axes, and a cut through it adds the joins.
func TestConeRaysSimplicial(t *testing.T) {
	var c Cone
	apex := vec.Vector{0.5, 0.5, 0.5}
	rays := func() []vec.Vector {
		var out []vec.Vector
		for r := range c.tight {
			out = append(out, c.ray(r).Clone())
		}
		return out
	}
	if !c.Reset([]vec.Vector{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}, apex) || len(rays()) != 3 {
		t.Fatalf("orthant: %d rays, want 3", len(rays()))
	}
	for i, want := range []vec.Vector{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}} {
		if !slices.ContainsFunc(rays(), func(g vec.Vector) bool { return vec.Equal(g, want, 1e-12) }) {
			t.Errorf("orthant ray %d (%v) missing from %v", i, want, rays())
		}
	}
	// x₁ ≥ x₂ cuts e₂ away and joins it with e₁ at (1,1,0)/√2.
	if !c.Reset([]vec.Vector{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, -1, 0}}, apex) || len(rays()) != 3 {
		t.Fatalf("cut orthant: %d rays, want 3", len(rays()))
	}
	s := 1 / math.Sqrt2
	for _, want := range []vec.Vector{{1, 0, 0}, {s, s, 0}, {0, 0, 1}} {
		if !slices.ContainsFunc(rays(), func(g vec.Vector) bool { return vec.Equal(g, want, 1e-12) }) {
			t.Errorf("cut orthant: ray %v missing from %v", want, rays())
		}
	}
	// (0.2, 0.6, 0.6) beats the apex at (0,0,1) only; (0.4,0.4,0.4) nowhere.
	if keep := screen(&c, vec.Vector{0.2, 0.6, 0.6}, vec.Vector{0.4, 0.4, 0.4}); !keep[0] || keep[1] {
		t.Errorf("Screen kept %v, want [true false] by the cut orthant's rays", keep)
	}
	// Two rows in three dimensions leave a line: nothing can be dropped.
	if c.Reset([]vec.Vector{{1, 0, 0}, {0, 1, 0}}, apex) || !screen(&c, vec.Vector{0, 0, 0})[0] {
		t.Error("a two-row cone in d = 3 reported pointed, or dropped a record")
	}
}
