package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// minimize is Solve on an objective and a constraint system.
func minimize(c []float64, cons []Constraint) Solution {
	return Solve(&Problem{NumVars: len(c), Objective: c, Constraints: cons})
}

func TestSimple2DMax(t *testing.T) {
	// max x+y s.t. x ≤ 1, y ≤ 2 → 3 at (1,2).
	sol := Maximize([]float64{1, 1}, []Constraint{
		{Coef: []float64{1, 0}, Op: LE, RHS: 1},
		{Coef: []float64{0, 1}, Op: LE, RHS: 2},
	})
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-3) > 1e-9 {
		t.Errorf("objective = %v, want 3", sol.Objective)
	}
	if math.Abs(sol.X[0]-1) > 1e-9 || math.Abs(sol.X[1]-2) > 1e-9 {
		t.Errorf("x = %v", sol.X)
	}
}

func TestClassicProductionLP(t *testing.T) {
	// max 3x+5y s.t. x ≤ 4, 2y ≤ 12, 3x+2y ≤ 18 → 36 at (2,6).
	sol := Maximize([]float64{3, 5}, []Constraint{
		{Coef: []float64{1, 0}, Op: LE, RHS: 4},
		{Coef: []float64{0, 2}, Op: LE, RHS: 12},
		{Coef: []float64{3, 2}, Op: LE, RHS: 18},
	})
	if sol.Status != Optimal || math.Abs(sol.Objective-36) > 1e-8 {
		t.Fatalf("sol = %+v, want objective 36", sol)
	}
}

func TestGEAndEquality(t *testing.T) {
	// min x+y s.t. x+y ≥ 2, x = 0.5 → 2 at (0.5, 1.5).
	sol := minimize([]float64{1, 1}, []Constraint{
		{Coef: []float64{1, 1}, Op: GE, RHS: 2},
		{Coef: []float64{1, 0}, Op: EQ, RHS: 0.5},
	})
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-2) > 1e-9 || math.Abs(sol.X[0]-0.5) > 1e-9 {
		t.Errorf("sol = %+v", sol)
	}
}

func TestInfeasible(t *testing.T) {
	sol := Solve(&Problem{NumVars: 1, Constraints: []Constraint{
		{Coef: []float64{1}, Op: GE, RHS: 2},
		{Coef: []float64{1}, Op: LE, RHS: 1},
	}})
	if sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	sol := Maximize([]float64{1}, []Constraint{
		{Coef: []float64{1}, Op: GE, RHS: 0},
	})
	if sol.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", sol.Status)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// x − y ≤ −1 with x,y ≥ 0 means y ≥ x+1; min y is 1.
	sol := minimize([]float64{0, 1}, []Constraint{
		{Coef: []float64{1, -1}, Op: LE, RHS: -1},
	})
	if sol.Status != Optimal || math.Abs(sol.Objective-1) > 1e-9 {
		t.Fatalf("sol = %+v, want objective 1", sol)
	}
}

func TestDegenerateRedundantRows(t *testing.T) {
	// Duplicate equalities exercise the redundant-row path in phase 1.
	sol := minimize([]float64{1, 0}, []Constraint{
		{Coef: []float64{1, 1}, Op: EQ, RHS: 1},
		{Coef: []float64{1, 1}, Op: EQ, RHS: 1},
		{Coef: []float64{2, 2}, Op: EQ, RHS: 2},
	})
	if sol.Status != Optimal || math.Abs(sol.Objective) > 1e-9 {
		t.Fatalf("sol = %+v, want objective 0 at (0,1)", sol)
	}
}

func TestFeasibleHelper(t *testing.T) {
	if !Feasible(2, []Constraint{{Coef: []float64{1, 1}, Op: GE, RHS: 1}}) {
		t.Error("expected feasible")
	}
	if Feasible(1, []Constraint{
		{Coef: []float64{1}, Op: GE, RHS: 3},
		{Coef: []float64{1}, Op: LE, RHS: 2},
	}) {
		t.Error("expected infeasible")
	}
}

// Property: for random bounded LPs (box-bounded, so never unbounded), the
// solution is feasible and no better solution exists at any box corner
// (corner enumeration is an independent oracle for small n).
func TestOptimalBeatsCorners(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(3)
		cons := make([]Constraint, 0, n+3)
		for j := 0; j < n; j++ {
			row := make([]float64, n)
			row[j] = 1
			cons = append(cons, Constraint{Coef: row, Op: LE, RHS: 1})
		}
		nExtra := r.Intn(3)
		for e := 0; e < nExtra; e++ {
			row := make([]float64, n)
			for j := range row {
				row[j] = r.NormFloat64()
			}
			cons = append(cons, Constraint{Coef: row, Op: LE, RHS: 0.5 + r.Float64()})
		}
		c := make([]float64, n)
		for j := range c {
			c[j] = r.NormFloat64()
		}
		sol := minimize(c, cons)
		if sol.Status != Optimal {
			return false // box-bounded and contains 0 ⇒ must be solvable
		}
		check := func(x []float64) bool { // feasibility of a candidate
			for _, con := range cons {
				var ax float64
				for j, v := range con.Coef {
					ax += v * x[j]
				}
				if con.Op == LE && ax > con.RHS+1e-7 {
					return false
				}
			}
			return true
		}
		if !check(sol.X) {
			return false
		}
		// Enumerate {0,1}^n corners; none that is feasible may beat sol.
		for mask := 0; mask < 1<<n; mask++ {
			x := make([]float64, n)
			var obj float64
			for j := 0; j < n; j++ {
				if mask>>j&1 == 1 {
					x[j] = 1
				}
				obj += c[j] * x[j]
			}
			if check(x) && obj < sol.Objective-1e-6 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: conical membership LPs (the redundancy-test shape used by the
// geometry package) are solved correctly: a vector inside the cone of the
// generators is reported feasible, one outside infeasible.
func TestConicalMembershipShape(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 2 + r.Intn(3)
		nGen := d + r.Intn(4)
		gens := make([][]float64, nGen)
		for i := range gens {
			gens[i] = make([]float64, d)
			for j := range gens[i] {
				gens[i][j] = r.Float64() // positive orthant generators
			}
		}
		// Inside: a random nonnegative combination.
		inside := make([]float64, d)
		for i := range gens {
			w := r.Float64()
			for j := range inside {
				inside[j] += w * gens[i][j]
			}
		}
		// Outside: a vector with a negative coordinate cannot be in the
		// cone of positive-orthant generators (unless zero combination).
		outside := make([]float64, d)
		outside[0] = -1
		member := func(target []float64) bool {
			cons := make([]Constraint, d)
			for row := 0; row < d; row++ {
				coef := make([]float64, nGen)
				for i := range gens {
					coef[i] = gens[i][row]
				}
				cons[row] = Constraint{Coef: coef, Op: EQ, RHS: target[row]}
			}
			return Feasible(nGen, cons)
		}
		return member(inside) && !member(outside)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestStatusString(t *testing.T) {
	for _, c := range []struct {
		s    Status
		want string
	}{{Optimal, "optimal"}, {Infeasible, "infeasible"}, {Unbounded, "unbounded"}, {IterationLimit, "iteration-limit"}, {Status(99), "lp.Status(99)"}} {
		if got := c.s.String(); got != c.want {
			t.Errorf("String(%d) = %q, want %q", c.s, got, c.want)
		}
	}
}

func TestPresolveDropsSubEpsilonCoefficients(t *testing.T) {
	// The ill-conditioned shape of corpus entry 229d1b270705bacf: a row
	// whose tiny leading coefficient is pure noise next to its real
	// entries. Presolve equilibrates the row and zeroes the noise term, so
	// the solver never pivots on it. The returned point stays feasible for
	// the original constraints; the objective is the optimum of the
	// perturbed problem (the true optimum ~1.6e-9 differs by less than the
	// documented eps·‖x‖₁ presolve tolerance — see Solve's approximation
	// note).
	cons := []Constraint{
		{Coef: []float64{3e-10, -0.19, -0.19}, Op: GE, RHS: 0},
		{Coef: []float64{1, 0, 0}, Op: LE, RHS: 1},
		{Coef: []float64{0, 1, 0}, Op: LE, RHS: 1},
		{Coef: []float64{0, 0, 1}, Op: LE, RHS: 1},
	}
	sol := Maximize([]float64{0, 1, 1}, cons)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	// With the noise term dropped the first row reads −0.19(y+z) ≥ 0,
	// i.e. y + z ≤ 0; with y, z ≥ 0 the maximum of y+z is 0.
	if math.Abs(sol.Objective) > 1e-7 {
		t.Errorf("objective = %v, want 0 (noise floor)", sol.Objective)
	}
}

func TestPresolveDoesNotMutateCallerRows(t *testing.T) {
	coef := []float64{1e-12, 2, -4}
	orig := append([]float64(nil), coef...)
	Solve(&Problem{NumVars: 3, Constraints: []Constraint{
		{Coef: coef, Op: LE, RHS: 8},
	}})
	for j := range coef {
		if coef[j] != orig[j] {
			t.Fatalf("Solve mutated caller coefficients: %v != %v", coef, orig)
		}
	}
}

func TestPresolveScalingPreservesSolution(t *testing.T) {
	// A badly scaled system (rows spanning ten orders of magnitude) must
	// solve to the same optimum as its well-scaled equivalent.
	sol := Maximize([]float64{3, 5}, []Constraint{
		{Coef: []float64{1e8, 0}, Op: LE, RHS: 4e8},
		{Coef: []float64{0, 2e-6}, Op: LE, RHS: 12e-6},
		{Coef: []float64{3e4, 2e4}, Op: LE, RHS: 18e4},
	})
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-36) > 1e-6 {
		t.Errorf("objective = %v, want 36", sol.Objective)
	}
}

// One Solver across programs of different sizes must answer exactly what a
// fresh one answers — the box rows it keeps are rebuilt when n changes,
// never reused across it — and allocate nothing once it has seen the
// largest.
func TestSolverMaximizeOverBoxReuse(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	type prog struct {
		c    []float64
		cons []Constraint
	}
	var progs []prog
	for i := 0; i < 40; i++ {
		n := 2 + i%4
		p := prog{c: make([]float64, n)}
		for j := range p.c {
			p.c[j] = r.NormFloat64()
		}
		for k := r.Intn(4); k > 0; k-- {
			coef := make([]float64, n)
			for j := range coef {
				coef[j] = r.NormFloat64()
			}
			p.cons = append(p.cons, Constraint{Coef: coef, Op: GE, RHS: 0})
		}
		progs = append(progs, p)
	}
	var s Solver
	for i, p := range progs {
		got, want := s.MaximizeOverBox(p.c, p.cons), new(Solver).MaximizeOverBox(p.c, p.cons)
		if got.Status != want.Status || got.Objective != want.Objective {
			t.Fatalf("program %d: reused solver %v %v, fresh solver %v %v", i, got.Status, got.Objective, want.Status, want.Objective)
		}
		for j := range want.X {
			if got.X[j] != want.X[j] {
				t.Fatalf("program %d: x[%d] = %v on the reused solver, %v fresh", i, j, got.X[j], want.X[j])
			}
		}
	}
	p := progs[3] // n = 5, the largest
	if allocs := testing.AllocsPerRun(20, func() { s.MaximizeOverBox(p.c, p.cons) }); allocs != 0 {
		t.Errorf("a warm Solver.MaximizeOverBox allocated %.0f objects", allocs)
	}
}
