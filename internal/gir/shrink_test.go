package gir

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/girlib/gir/internal/domain"
	"github.com/girlib/gir/internal/geom"
	"github.com/girlib/gir/internal/lp"
	"github.com/girlib/gir/internal/vec"
)

// reduce is the whole-set reduction on the orthant, kept as the oracle
// Shrink is held against: a lone constraint is not minimal there when
// the orthant implies it.
func reduce(cons []Constraint) []Constraint {
	normals := make([]vec.Vector, len(cons))
	for i, c := range cons {
		normals[i] = c.Normal
	}
	keep := geom.ReduceCone(normals, 1e-12)
	out := make([]Constraint, len(keep))
	for i, k := range keep {
		out[i] = cons[k]
	}
	return out
}

// shrinkOracle is Shrink as it was: drop the componentwise-nonnegative
// added normals, reduce everything else together.
func shrinkOracle(r *Region, added []Constraint) []Constraint {
	cons := append([]Constraint(nil), r.Constraints...)
	for _, c := range added {
		for _, x := range c.Normal {
			if x < 0 {
				cons = append(cons, c)
				break
			}
		}
	}
	return reduce(cons)
}

// impliedOver reports whether every constraint of need holds on
// {have} ∩ dom: max of −normal·w over that body is at most noise. The LP
// per constraint is what the production path avoids; here it is the
// definition.
func impliedOver(t *testing.T, dom domain.Domain, have, need []Constraint) error {
	t.Helper()
	rows := make([]lp.Constraint, len(have))
	for i, c := range have {
		rows[i] = lp.Constraint{Coef: c.Normal, Op: lp.GE, RHS: 0}
	}
	for i, c := range need {
		sol := dom.MaximizeLinear(new(lp.Solver), vec.Scale(-1, c.Normal), rows)
		if sol.Status == lp.Infeasible {
			return nil // the body is empty: everything holds on it
		}
		if sol.Status != lp.Optimal {
			return fmt.Errorf("constraint %d: LP status %v", i, sol.Status)
		}
		if sol.Objective > 1e-7 {
			return fmt.Errorf("constraint %d (%v) is violated by %g on the other side's region", i, c.Normal, sol.Objective)
		}
	}
	return nil
}

// checkShrink holds one (receiver, added) case against the oracle: the
// same region on the query space, minimal, and as many constraints as the
// oracle keeps.
func checkShrink(t *testing.T, name string, r *Region, added []Constraint) {
	t.Helper()
	before := append([]Constraint(nil), r.Constraints...)
	got := r.Shrink(added)
	want := shrinkOracle(r, added)
	if got == nil || got.Dim != r.Dim || got.OrderSensitive != r.OrderSensitive || got.Domain != r.Domain || !vec.Equal(got.Query, r.Query, 0) {
		t.Fatalf("%s: Shrink changed the region's identity: %+v", name, got)
	}
	if len(r.Constraints) != len(before) {
		t.Fatalf("%s: Shrink modified its receiver", name)
	}
	for i := range before {
		if !vec.Equal(before[i].Normal, r.Constraints[i].Normal, 0) {
			t.Fatalf("%s: Shrink modified its receiver's constraint %d", name, i)
		}
	}
	dom := r.Space()
	if err := impliedOver(t, dom, got.Constraints, want); err != nil {
		t.Fatalf("%s: incremental region is not inside the oracle's: %v\n got %v\nwant %v", name, err, got.Constraints, want)
	}
	if err := impliedOver(t, dom, want, got.Constraints); err != nil {
		t.Fatalf("%s: oracle's region is not inside the incremental one: %v\n got %v\nwant %v", name, err, got.Constraints, want)
	}
	if again := reduce(got.Constraints); len(again) != len(got.Constraints) {
		t.Fatalf("%s: result is not minimal: %d constraints reduce to %d", name, len(got.Constraints), len(again))
	}
	if len(got.Constraints) != len(want) {
		t.Fatalf("%s: %d constraints, the oracle keeps %d\n got %v\nwant %v", name, len(got.Constraints), len(want), got.Constraints, want)
	}
}

func shrinkDomains(d int) []domain.Domain {
	return []domain.Domain{nil, domain.UnitBox(d), domain.Simplex(d)}
}

// randomNormal draws a direction with at least one negative component, the
// only kind Shrink looks at; integer-valued ones (every third) make
// duplicates, multiples and exact dependencies common.
func randomNormal(r *rand.Rand, d int, lattice bool) vec.Vector {
	for {
		n := make(vec.Vector, d)
		neg := false
		for i := range n {
			if lattice {
				n[i] = float64(r.Intn(7) - 3)
			} else {
				n[i] = r.NormFloat64()
			}
			neg = neg || n[i] < 0
		}
		if neg {
			return n
		}
	}
}

// TestShrinkMatchesWholeSetReduction is the set-equality property: over
// seeded random cones in d = 2…6 under both query spaces, Shrink and the
// whole-set oracle describe the same region, the result is minimal, and
// the two keep the same number of constraints.
func TestShrinkMatchesWholeSetReduction(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	cases := 0
	for d := 2; d <= 6; d++ {
		for _, dom := range shrinkDomains(d) {
			for trial := 0; trial < 60; trial++ {
				lattice := trial%3 == 0
				q := domain.UnitBox(d).Sample(r)
				if dom != nil {
					q = dom.Normalize(dom.Sample(r))
				}
				// A receiver as a fill leaves it: constraints that hold at the
				// query, reduced — except every fifth, built with reduction
				// skipped.
				var old []Constraint
				for i, n := 0, r.Intn(2*d+1); i < n; i++ {
					c := randomNormal(r, d, lattice)
					if vec.Dot(c, q) < 0 {
						c = vec.Scale(-1, c)
					}
					old = append(old, Constraint{Normal: c, Kind: Reorder, A: int64(i), B: -1})
				}
				if trial%5 != 0 {
					old = reduce(old)
				}
				reg := &Region{Dim: d, Query: q, Constraints: old, OrderSensitive: trial%2 == 0, Domain: dom}
				// Added: mostly satisfied at the query (what repair adds),
				// some not (the region loses its query; it is still returned).
				var added []Constraint
				for i, n := 0, r.Intn([]int{4, 40}[trial%2]); i < n; i++ {
					c := randomNormal(r, d, lattice)
					if vec.Dot(c, q) < 0 && r.Intn(10) > 0 {
						c = vec.Scale(-1, c)
					}
					switch r.Intn(12) {
					case 0: // a duplicate direction of something already there
						if len(old) > 0 {
							c = vec.Scale(0.5+r.Float64(), old[r.Intn(len(old))].Normal)
						}
					case 1: // componentwise nonnegative: holds everywhere
						for j := range c {
							c[j] = r.Float64()
						}
					}
					added = append(added, Constraint{Normal: c, Kind: Replace, A: -1, B: int64(i)})
				}
				cases++
				checkShrink(t, fmt.Sprintf("d=%d dom=%v trial=%d", d, dom, trial), reg, added)
			}
		}
	}
	t.Logf("%d cases", cases)
}

// TestShrinkShapes pins the shapes that break naive incremental versions.
func TestShrinkShapes(t *testing.T) {
	q := vec.Vector{0.5, 0.3, 0.2}
	con := func(n ...float64) Constraint { return Constraint{Normal: n, Kind: Replace, A: 1, B: 2} }
	wedge := []Constraint{con(1, -1, 0), con(0, 1, -1)} // w1 ≥ w2 ≥ w3
	shapes := []struct {
		name  string
		old   []Constraint
		added []Constraint
		want  int // constraints in the result; −1: only the oracle decides
	}{
		{"added empty", wedge, nil, 2},
		{"receiver with no constraints", nil, []Constraint{con(1, -1, 0)}, 1},
		{"receiver with no constraints, nothing cuts", nil, []Constraint{con(1, 2, 0)}, 0},
		{"receiver with one constraint", wedge[:1], []Constraint{con(0, 1, -1)}, 2},
		{"added makes an old one redundant", wedge, []Constraint{con(1, -2, 1)}, 2},                   // (1,−1,0) = (0,1,−1) + (1,−2,1)
		{"added make both old ones redundant", wedge, []Constraint{con(1, -2, 1), con(-1, 3, -2)}, 2}, // (0,1,−1) is their sum
		{"duplicate of an old direction", wedge, []Constraint{con(3, -3, 0)}, 2},
		{"duplicates among the added", wedge[:1], []Constraint{con(0, 2, -2), con(0, 1, -1), con(0, 0.5, -0.5)}, 2},
		{"anti-parallel to an old one", wedge, []Constraint{con(-1, 1, 0)}, -1},
		{"anti-parallel pair among the added", nil, []Constraint{con(1, -1, 0), con(-1, 1, 0)}, 2},
		{"zero normal", wedge, []Constraint{con(0, 0, 0)}, 2},
		{"zero normal in the receiver", []Constraint{con(0, 0, 0), con(1, -1, 0)}, []Constraint{con(0, 1, -1)}, 2},
		{"all normals nonnegative", wedge, []Constraint{con(1, 0, 0), con(0.2, 0.3, 0), con(1, 1, 1)}, 2},
		{"implied by one old constraint on the orthant only", wedge[:1], []Constraint{con(2, -1, 0)}, 1},
		{"plain dominance over an added one", nil, []Constraint{con(1, -1, 0), con(1, -1, 0.5)}, 1},
		{"cuts the query away", wedge, []Constraint{con(-1, 0, 1)}, -1},
		{"receiver built with reduction skipped", []Constraint{con(1, -1, 0), con(2, -2, 0), con(1, -0.5, 0), con(0, 1, -1), con(1, 0, -1)}, []Constraint{con(1, -2, 0)}, 2}, // (1,−1,0) = (1,−2,0) + e₂
	}
	for _, s := range shapes {
		for _, dom := range shrinkDomains(3) {
			name := fmt.Sprintf("%s (%v)", s.name, dom)
			reg := &Region{Dim: 3, Query: q, Constraints: s.old, Domain: dom}
			checkShrink(t, name, reg, s.added)
			got := reg.Shrink(s.added)
			if s.want >= 0 && len(got.Constraints) != s.want {
				t.Errorf("%s: %d constraints, want %d: %v", name, len(got.Constraints), s.want, got.Constraints)
			}
			if s.name == "cuts the query away" && got.Contains(q, 0) {
				t.Errorf("%s: the shrunk region still contains the query", name)
			}
			for i, c := range got.Constraints {
				for _, a := range s.added {
					if len(c.Normal) > 0 && len(a.Normal) > 0 && &c.Normal[0] == &a.Normal[0] {
						t.Errorf("%s: result constraint %d aliases the caller's normal", name, i)
					}
				}
			}
		}
	}
}
