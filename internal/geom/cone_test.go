package geom

import (
	"fmt"
	"math"
	"math/bits"
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

// bestOverCone solves max (x − apex)·q over the cone ∩ [0,1]^d, the
// footnote-7 LP the screen replaces on the orthant, and returns the
// maximiser.
func bestOverCone(rows []vec.Vector, x, apex vec.Vector) (vec.Vector, bool) {
	d := len(x)
	obj := vec.Sub(x, apex)
	var cons []lp.Constraint
	for _, a := range rows {
		cons = append(cons, lp.Constraint{Coef: a, Op: lp.GE, RHS: 0})
	}
	for j := 0; j < d; j++ {
		cons = append(cons, lp.Constraint{Coef: vec.Basis(d, j), Op: lp.LE, RHS: 1})
	}
	sol := lp.Maximize(obj, cons)
	if sol.Status != lp.Optimal {
		return nil, false
	}
	return vec.Vector(sol.X[:d]).Clone(), true
}

// TestConeRaysProperty holds the Phase-1 screen to its definition on every
// kind of ranked result coneCases draws, with k = 1 (no row: the orthant
// alone) and rows of rank below d among them: every ray is a unit vector
// in the cone and in the orthant, and no record or box the screen drops
// beats the apex by more than 1e-9 at any query inside the cone on the
// orthant, sampled around q0 or found by the LP. On those cones, on cones
// cut until they cap and on GIR* cones pinned to several anchors,
// checkScreen holds Screen and BoxMayBeat to the per-ray test alone and
// the Σ = 1 box's drops to every ray's.
func TestConeRaysProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var c Cone
	dropped, kept, deficient, boxDrops := 0, 0, 0, 0
	drops := map[string]int{}
	for trial := 0; trial < 25; trial++ {
		for d := 2; d <= 6; d++ {
			for _, k := range []int{1, 2, d, d + 1, 2 * d, 20} {
				for _, cc := range coneCases(rng, d, k) {
					rows, apex := cc.rows(), cc.apex()
					c.Reset(d, rows, apex)
					if len(c.tight) == 0 || c.capped {
						t.Fatalf("%s d=%d k=%d: %d rays, capped %v", cc.name, d, k, len(c.tight), c.capped)
					}
					if rowRank(rows) < d {
						deficient++
					}
					for r := range c.tight {
						g := c.ray(r)
						if math.Abs(vec.Norm(g)-1) > 1e-12 || slices.ContainsFunc(g, func(x float64) bool { return x < 0 }) {
							t.Fatalf("%s d=%d k=%d: ray %v is not a unit vector in the orthant", cc.name, d, k, g)
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
					boxDrops += checkScreen(t, &c, pts, rng, cc.name)
					for x, keep := range screen(&c, pts...) {
						p := pts[x]
						if keep {
							kept++
							continue
						}
						dropped++
						drops[cc.name]++
						checkBeaten(t, rows, qs, p, apex, cc.name)
						lo, hi := p.Clone(), p.Clone()
						for j := range lo {
							lo[j] -= 0.01 * rng.Float64()
							hi[j] += 0.01 * rng.Float64()
						}
						if !c.BoxMayBeat(hi) {
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
	for _, name := range []string{"random", "near-tied", "duplicate", "near-zero", "rank-deficient"} {
		if drops[name] == 0 {
			t.Errorf("the screen dropped no %s record: the property is vacuous there", name)
		}
	}
	t.Logf("drops per case %v, %d cones of row rank below d; the screen dropped %d records and kept %d, the box %d points and boxes", drops, deficient, dropped, kept, boxDrops)
	if dropped == 0 || kept == 0 || deficient == 0 || boxDrops == 0 {
		t.Errorf("the screen dropped %d and kept %d records, on %d cones of row rank below d, the box %d: some side is untested", dropped, kept, deficient, boxDrops)
	}
	t.Run("capped", func(t *testing.T) { testScreenCutCones(t, rng, 1) })
	t.Run("GIR*", func(t *testing.T) { testScreenCutCones(t, rng, 4) })
}

// testScreenCutCones runs checkScreen on cones pinned to the given number
// of anchors, the top records of a ranking, and cut one record's
// half-space below each anchor at a time as FP's Phase 2 cuts them; one
// anchor starts from its Phase-1 cone, several from O, as a GIR* does. The
// records come close to the anchors, so the cones grow until a cut caps
// them; each is checked every few cuts, capped included.
func testScreenCutCones(t *testing.T, rng *rand.Rand, anchors int) {
	capped, boxDrops := 0, 0
	for trial := 0; trial < 6; trial++ {
		for d := 3; d <= 6; d++ {
			top := coneCases(rng, d, 8)[0] // random records ranked by q0
			q0, pinned := top.q0, top.recs[len(top.recs)-anchors:]
			var c Cone
			if anchors == 1 {
				c.Reset(d, top.rows(), pinned...)
			} else {
				c.Reset(d, nil, pinned...)
			}
			low := pinned[len(pinned)-1] // the lowest anchor at q0
			name := fmt.Sprintf("d=%d %d anchors trial %d", d, anchors, trial)
			for cut := 0; cut < 400 && !c.capped; cut++ {
				// x = low − 0.1·δ with δ·q0 small and positive: x scores
				// just below every anchor, and its row cuts near q0.
				delta := make(vec.Vector, d)
				for j := range delta {
					delta[j] = rng.NormFloat64()
				}
				vec.AXPY((0.01+0.05*rng.Float64()-vec.Dot(delta, q0))/vec.Dot(q0, q0), q0, delta)
				x := vec.Sub(low, vec.Scale(0.1, delta))
				for _, a := range pinned {
					c.Cut(vec.Sub(a, x))
				}
				if cut%8 == 0 || c.capped {
					pts := make([]vec.Vector, 30)
					for i := range pts {
						pts[i] = pinned[rng.Intn(len(pinned))].Clone()
						for j := range pts[i] {
							pts[i][j] += 0.05 * rng.NormFloat64()
						}
					}
					boxDrops += checkScreen(t, &c, pts, rng, name)
				}
			}
			if c.capped {
				capped++
			}
		}
	}
	t.Logf("%d of 24 cones capped; the box dropped %d points and boxes", capped, boxDrops)
	if capped == 0 || boxDrops == 0 {
		t.Errorf("%d cones capped and the box dropped %d points and boxes: some side is untested", capped, boxDrops)
	}
}

// checkScreen holds c's screen to the per-ray test alone over the points
// and a small box around each: Screen keeps exactly the points, and
// BoxMayBeat exactly the boxes, that some ray g lets beat its least anchor
// product by more than coneSlack, and every point and box corner hi the
// Σ = 1 box bounds at or below 0 against every anchor, no ray keeps. It
// returns how many points and boxes the box dropped.
func checkScreen(t *testing.T, c *Cone, pts []vec.Vector, rng *rand.Rand, name string) (boxDrops int) {
	t.Helper()
	for i, keep := range screen(c, pts...) {
		p := pts[i]
		lo, hi := p.Clone(), p.Clone()
		for j := range lo {
			lo[j] -= 0.01 * rng.Float64()
			hi[j] += 0.01 * rng.Float64()
		}
		point := perRay(c, func(g vec.Vector) float64 { return vec.Dot(g, p) })
		box := perRay(c, func(g vec.Vector) float64 { return maxOverBox(g, lo, hi) })
		if keep != (point >= 0) {
			t.Fatalf("%s: Screen keeps %v: %v; the per-ray test keeps it by ray %d", name, p, keep, point)
		}
		if got := c.BoxMayBeat(hi); got != (box >= 0) {
			t.Fatalf("%s: BoxMayBeat([%v, %v]) = %v; the per-ray test keeps it by ray %d", name, lo, hi, got, box)
		}
		if !c.boxMayBeat(p) {
			if boxDrops++; point >= 0 {
				t.Fatalf("%s: the box drops %v, ray %d keeps it", name, p, point)
			}
		}
		if !c.boxMayBeat(hi) {
			if boxDrops++; box >= 0 {
				t.Fatalf("%s: the box drops [%v, %v], ray %d keeps it", name, lo, hi, box)
			}
		}
	}
	return boxDrops
}

// maxOverBox returns max n·x over x in [lo, hi], summed from 0 in
// ascending coordinate order as vec.Dot sums.
func maxOverBox(n, lo, hi vec.Vector) float64 {
	var s float64
	for i, ni := range n {
		if ni > 0 {
			s += ni * hi[i]
		} else {
			s += ni * lo[i]
		}
	}
	return s
}

// perRay is the screen's test without the box: the first ray g whose
// score(g) beats g's least product with an anchor by more than coneSlack,
// or −1.
func perRay(c *Cone, score func(g vec.Vector) float64) int {
	for r := range c.tight {
		g, at := c.ray(r), math.Inf(1)
		for a := 0; a < len(c.anchors); a += c.d {
			at = min(at, vec.Dot(g, c.anchors[a:a+c.d]))
		}
		if score(g)-at > coneSlack {
			return r
		}
	}
	return -1
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

// samplesInside returns queries in the cone on the orthant: q0 and
// perturbations of it at several scales, each kept if it is nonnegative
// and satisfies every row exactly.
func samplesInside(rng *rand.Rand, rows []vec.Vector, q0 vec.Vector) []vec.Vector {
	var qs []vec.Vector
	for _, scale := range []float64{0, 1, 0.1, 0.01, 1e-4} {
		for i := 0; i < 50 && (i == 0 || scale > 0); i++ {
			q := q0.Clone()
			for j := range q {
				q[j] += scale * (2*rng.Float64() - 1)
			}
			inside := !slices.ContainsFunc(q, func(x float64) bool { return x < 0 })
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

// TestConeRaysSimplicial checks the rays of a cone with known rays: the
// orthant's are the unit axes, with its rows given or not, and a cut
// through it adds the joins.
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
	for _, rows := range [][]vec.Vector{nil, {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}} {
		if c.Reset(3, rows, apex); len(rays()) != 3 {
			t.Fatalf("orthant (rows %v): %d rays, want 3", rows, len(rays()))
		}
		for i, want := range []vec.Vector{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}} {
			if !slices.ContainsFunc(rays(), func(g vec.Vector) bool { return vec.Equal(g, want, 1e-12) }) {
				t.Errorf("orthant ray %d (%v) missing from %v", i, want, rays())
			}
		}
	}
	// x₁ ≥ x₂ cuts e₂ away and joins it with e₁ at (1,1,0)/√2.
	if c.Reset(3, []vec.Vector{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, -1, 0}}, apex); len(rays()) != 3 {
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
	// One direction in three dimensions, twice: the orthant still points
	// the cone, so its screen is the cut orthant's.
	if c.Reset(3, []vec.Vector{{1, -1, 0}, {2, -2, 0}}, apex); len(rays()) != 3 {
		t.Fatalf("the orthant cut by one direction: %d rays, want 3", len(rays()))
	}
	if keep := screen(&c, vec.Vector{0.2, 0.6, 0.6}, vec.Vector{0.4, 0.4, 0.4}); !keep[0] || keep[1] {
		t.Errorf("Screen kept %v, want [true false] by the orthant cut by one direction", keep)
	}
}

// TestConeEnumerateRefusesPastMaxRows checks that Enumerate, whose callers
// want the rays of exactly the cone they pass, refuses a 65th distinct row
// instead of cutting by the first 64 alone, while zero rows and duplicate
// directions past the 64th cost nothing; and that Reset, whose screen may
// err toward a larger cone, still cuts by the first 64.
func TestConeEnumerateRefusesPastMaxRows(t *testing.T) {
	rows := []vec.Vector{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	for j := 1; len(rows) < MaxConeRows; j++ {
		rows = append(rows, vec.Vector{1, 1, float64(j)}) // inside the orthant's dual: redundant
	}
	padded := append(slices.Clone(rows), vec.Vector{0, 0, 0}, vec.Vector{2, 2, 2})
	if got := new(Cone).Enumerate(padded); got != 3 {
		t.Errorf("64 distinct rows, a zero row and a duplicate: Enumerate = %d rays, want the orthant's 3", got)
	}
	cut := append(slices.Clone(padded), vec.Vector{1, -1, 0}) // the 65th distinct row cuts e₂ away
	var c Cone
	if got := c.Enumerate(cut); got != 0 {
		t.Errorf("65 distinct rows: Enumerate = %d rays, want 0 (refused)", got)
	}
	if got := c.Enumerate(append(slices.Clone(rows[:3]), cut[len(cut)-1])); got != 3 {
		t.Errorf("the orthant cut by x₁ ≥ x₂: Enumerate = %d rays, want 3", got)
	}
	if c.Reset(3, cut, vec.Vector{0.5, 0.5, 0.5}); len(c.tight) != 3 {
		t.Fatalf("Reset over 65 distinct rows: %d rays, want the first 64's 3", len(c.tight))
	}
	if !slices.ContainsFunc([]int{0, 1, 2}, func(r int) bool { return vec.Equal(c.ray(r), vec.Vector{0, 1, 0}, 1e-12) }) {
		t.Errorf("Reset over 65 distinct rows cut by the 65th: e₂ is gone")
	}
}

// TestConeCutMatchesEnumerate holds Cut to Enumerate. Rows cut in one at
// a time after a Reset must leave the rays Enumerate finds over all of
// them, each on the rows Enumerate says it lies on: the same kept rows,
// and beyond them only rows Cut did not keep, which the ray lies on. A row
// no ray lies strictly outside must be neither kept nor counted, and a
// kept one must be counted as the next input row. It runs d = 2…6 with
// random rows, near-parallel ones (1e-4 apart), zero rows and duplicate
// directions; and a capped cone as testCutCaps says. Rows 1e-6 apart are
// left out: at d = 6 their rays lie a hair apart, and the method's
// tolerances merge or split them by the order the rows come in, for
// Enumerate alone as well (117 rays in one order, 122 in another on this
// test's seed).
func TestConeCutMatchesEnumerate(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	kept, skipped := 0, 0
	for d := 2; d <= 6; d++ {
		for trial := 0; trial < 40; trial++ {
			q0 := randPoint(rng, d)
			for j := range q0 {
				q0[j] += 0.1
			}
			// Random rows q0 lies strictly inside.
			inside := func() vec.Vector {
				a := make(vec.Vector, d)
				for j := range a {
					a[j] = rng.NormFloat64()
				}
				vec.AXPY((0.05+rng.Float64()-vec.Dot(a, q0))/vec.Dot(q0, q0), q0, a)
				return a
			}
			var rows []vec.Vector
			for len(rows) < d+1 {
				rows = append(rows, inside())
			}
			for len(rows) < 30 {
				switch i := rng.Intn(len(rows)); rng.Intn(6) {
				case 0:
					if vec.Norm(rows[i]) == 0 {
						continue // no direction to be near
					}
					a := rows[i].Clone()
					for j := range a {
						a[j] += 1e-4 * rng.NormFloat64()
					}
					rows = append(rows, a)
				case 1:
					rows = append(rows, make(vec.Vector, d))
				case 2:
					rows = append(rows, vec.Scale(0.5+rng.Float64(), rows[i]))
				default:
					rows = append(rows, inside())
				}
			}
			var c Cone
			c.Reset(d, rows[:d+1], q0)
			input := []int{} // per input row of the cone, its index in rows
			for i := range rows[:d+1] {
				input = append(input, i)
			}
			for i := d + 1; i < len(rows); i++ {
				m, seen := c.m, c.seen
				outside := false
				if u := vec.Scale(1, rows[i]); scaleTo(u, u, coneZeroRow) {
					for r := range c.tight {
						outside = outside || vec.Dot(u, c.ray(r)) < -coneSide
					}
				}
				if !c.Cut(rows[i]) {
					if outside || c.m != m || c.seen != seen {
						t.Fatalf("d=%d trial %d row %d: not kept, with a ray strictly outside it (%v) or counted (m %d → %d, seen %d → %d)", d, trial, i, outside, m, c.m, seen, c.seen)
					}
					skipped++
					continue
				}
				if !outside || c.m != m+1 || c.seen != seen+1 || c.idx[m] != seen {
					t.Fatalf("d=%d trial %d row %d: kept with no ray strictly outside it (%v), or not counted as the next input row (m %d → %d, seen %d → %d)", d, trial, i, outside, m, c.m, seen, c.seen)
				}
				input = append(input, i)
				kept++
			}
			var e Cone
			if n := e.Enumerate(rows); n != len(c.tight) {
			}
			cutRows := map[int]bool{}
			for _, i := range c.idx[:c.m] {
				cutRows[input[i]] = true
			}
			for r := range c.tight {
				g, on := c.Ray(r)
				match := -1
				for s := range e.tight {
					if vec.Equal(e.ray(s), g, 1e-7) {
						match = s
					}
				}
				if match < 0 {
					t.Fatalf("d=%d trial %d: Cut's ray %v is none of Enumerate's", d, trial, g)
				}
				want := map[int]bool{}
				for ; e.tight[match] != 0; e.tight[match] &= e.tight[match] - 1 {
					want[e.idx[bits.TrailingZeros64(e.tight[match])]] = true
				}
				for ; on != 0; on &= on - 1 {
					i := input[c.idx[bits.TrailingZeros64(on)]]
					if !want[i] {
						t.Fatalf("d=%d trial %d: Cut's ray %v lies on row %d, Enumerate's not", d, trial, g, i)
					}
					delete(want, i)
				}
				for i := range want {
					u := vec.Scale(1/vec.Norm(rows[i]), rows[i])
					if cutRows[i] || math.Abs(vec.Dot(u, g)) > coneSide {
						t.Fatalf("d=%d trial %d: Enumerate's ray %v lies on row %d, Cut's not", d, trial, g, i)
					}
				}
			}
		}
	}
	t.Logf("%d rows kept, %d neither kept nor counted", kept, skipped)
	if kept == 0 || skipped == 0 {
		t.Fatal("the test needs rows of both kinds")
	}
	t.Run("capped", testCutCaps)
}

// testCutCaps holds a capped cone to its contract: a cut that would
// need a 65th distinct row, or whose rays would pass maxConeRays, keeps
// the row but leaves the rays as they were, so Screen keeps every point it
// kept before; from then on Cut keeps exactly the rows some ray beats by
// Screen's test and cuts nothing, and Reduce answers through the
// membership programs.
func testCutCaps(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	// The circular cone {z ≥ ‖(x, y)‖} on the orthant approached by
	// tangent planes z ≥ (cos θ, sin θ)·(x, y), θ in [0, π/2] in
	// bit-reversed order: each cuts the ray between its neighbours away,
	// so the 65th distinct row caps the cone.
	tangent := func(j int) vec.Vector {
		theta := math.Pi / 2 * float64(bits.Reverse8(uint8(j))) / 256
		return vec.Vector{-math.Cos(theta), -math.Sin(theta), 1}
	}
	var rows []vec.Vector
	for j := 0; j < 3; j++ {
		rows = append(rows, tangent(j))
	}
	// The same in d = 6, tangent planes at random directions into the
	// orthant: the rays outgrow their budget long before 64 rows.
	sphere := func() vec.Vector {
		u := make(vec.Vector, 6)
		for j := range u[:5] {
			u[j] = math.Abs(rng.NormFloat64())
		}
		vec.AXPY(-1/vec.Norm(u)-1, u, u)
		u[5] = 1
		return u
	}
	var wide []vec.Vector
	for i := 0; i < 6; i++ {
		wide = append(wide, sphere())
	}
	for _, tc := range []struct {
		name  string
		start []vec.Vector
		next  func(j int) vec.Vector
		rows  bool // capped by the 65th row, else by the ray budget
	}{
		{"65th row", rows, tangent, true},
		{"ray budget", wide, func(int) vec.Vector { return sphere() }, false},
	} {
		d := len(tc.start[0])
		var c Cone
		c.Reset(d, tc.start, make(vec.Vector, d))
		seen := slices.Clone(tc.start)
		j := len(tc.start)
		for ; !c.capped && j < 400; j++ {
			before := slices.Clone(c.rays[:len(c.tight)*d])
			pts := make([]vec.Vector, 50)
			for i := range pts {
				pts[i] = vec.Scale(2*rng.Float64()-1, c.ray(rng.Intn(len(c.tight))))
				pts[i] = vec.Add(pts[i], vec.Scale(0.1, randPoint(rng, d)))
			}
			keep := screen(&c, pts...)
			row := tc.next(j)
			if !c.Cut(row) {
				continue
			}
			seen = append(seen, row)
			if !c.capped {
				continue
			}
			if tc.rows != (c.m == MaxConeRows) {
				t.Fatalf("%s: capped with %d rows and %d rays", tc.name, c.m, len(c.tight))
			}
			if !slices.Equal(before, c.rays[:len(c.tight)*d]) {
				t.Fatalf("%s: the capping cut moved the rays", tc.name)
			}
			for i, k := range screen(&c, pts...) {
				if keep[i] && !k {
					t.Fatalf("%s: the capped cone drops %v, which it kept before", tc.name, pts[i])
				}
			}
		}
		if !c.capped {
			t.Fatalf("%s: never capped (%d rows, %d rays)", tc.name, c.m, len(c.tight))
		}
		m, rays := c.m, slices.Clone(c.rays[:len(c.tight)*d])
		for i := 0; i < 20; i++ {
			row := tc.next(j + i)
			beaten := false
			for r := range c.tight {
				beaten = beaten || vec.Dot(c.ray(r), row) < -coneSlack
			}
			if c.Cut(row) != beaten {
				t.Fatalf("%s: a capped cone kept row %v: %v, some ray beats it: %v", tc.name, row, !beaten, beaten)
			}
			if beaten {
				seen = append(seen, row)
			}
		}
		if c.m != m || !slices.Equal(rays, c.rays[:len(c.tight)*d]) {
			t.Fatalf("%s: a capped cone went on cutting", tc.name)
		}
		keep, decided := ReduceConeRays(&c, seen, 1e-12)
		if decided {
			t.Fatalf("%s: the rays decided a capped cone's reduction", tc.name)
		}
		if want := ReduceConeLP(seen, 1e-12); !slices.Equal(keep, want) {
			t.Fatalf("%s: Reduce kept %v, the membership programs %v", tc.name, keep, want)
		}
	}
}
