// Package lp implements a small dense linear-programming solver (two-phase
// primal simplex) sufficient for the geometric subproblems in this library:
// conical-membership redundancy tests for half-spaces, feasibility checks,
// and linear objectives over the GIR.
//
// The solver handles problems of the form
//
//	minimize    c·x
//	subject to  a_i·x {≤,=,≥} b_i   (i = 1..m)
//	            x ≥ 0
//
// Problem sizes here are tiny by LP standards (dimension ≤ ~10, rows up to a
// few thousand), so a dense tableau with recomputed reduced costs is both
// simple and fast enough. Dantzig pricing is used with a switch to Bland's
// rule after a fixed number of iterations to guarantee termination.
package lp

import (
	"fmt"
	"math"
)

// Op is a constraint comparison operator.
type Op int8

// Constraint operators.
const (
	LE Op = iota // a·x ≤ b
	EQ           // a·x = b
	GE           // a·x ≥ b
)

// Constraint is a single linear constraint a·x Op b.
type Constraint struct {
	Coef []float64
	Op   Op
	RHS  float64
}

// Problem is a linear program in the form documented at the package level.
// All variables are implicitly nonnegative.
type Problem struct {
	NumVars     int
	Objective   []float64 // minimized; nil means pure feasibility (c = 0)
	Constraints []Constraint
}

// Status describes the outcome of Solve.
type Status int8

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterationLimit
	// NumericalFailure means the simplex terminated claiming optimality
	// but its solution does not actually satisfy the constraints within
	// tolerance — pivot breakdown on ill-conditioned rows (e.g. a 1e-10
	// coefficient next to 1e-1 ones). Callers in this library treat any
	// non-Optimal status conservatively, so surfacing the breakdown is
	// always safe; trusting the phantom solution is not.
	NumericalFailure
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration-limit"
	case NumericalFailure:
		return "numerical-failure"
	}
	return fmt.Sprintf("lp.Status(%d)", int8(s))
}

// Solution is the result of Solve. X is populated only when Status ==
// Optimal.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
}

const (
	eps          = 1e-9
	blandAfter   = 2000  // iterations before switching to Bland's rule
	maxIter      = 50000 // hard cap; reached only on pathological input
	phase1FeasTo = 1e-7  // tolerance on the phase-1 objective
)

type tableau struct {
	m, cols int       // rows, columns excluding RHS
	t       []float64 // m × (cols+1), row-major; last column is RHS
	basis   []int     // basic variable of each row
	nArt    int       // number of artificial variables (last nArt columns)
}

func (tb *tableau) at(i, j int) float64     { return tb.t[i*(tb.cols+1)+j] }
func (tb *tableau) set(i, j int, v float64) { tb.t[i*(tb.cols+1)+j] = v }
func (tb *tableau) rhs(i int) float64       { return tb.t[i*(tb.cols+1)+tb.cols] }
func (tb *tableau) row(i int) []float64     { return tb.t[i*(tb.cols+1) : (i+1)*(tb.cols+1)] }

// pivot performs a full tableau pivot on (r, c), making column c basic in
// row r.
func (tb *tableau) pivot(r, c int) {
	pr := tb.row(r)
	inv := 1 / pr[c]
	for j := range pr {
		pr[j] *= inv
	}
	pr[c] = 1 // exact
	for i := 0; i < tb.m; i++ {
		if i == r {
			continue
		}
		ri := tb.row(i)
		f := ri[c]
		if f == 0 {
			continue
		}
		for j := range ri {
			ri[j] -= f * pr[j]
		}
		ri[c] = 0 // exact
	}
	tb.basis[r] = c
}

// simplex runs the primal simplex on the tableau for cost vector c (length
// tb.cols), with columns j where banned[j] is true never entering the basis.
// red is a work buffer of the same length. It returns the final status
// and the iteration count consumed.
func (tb *tableau) simplex(c, red []float64, banned []bool, iterBudget int) (Status, int) {
	for iter := 0; iter < iterBudget; iter++ {
		// Reduced costs: r_j = c_j − Σ_i c_basis(i) · T[i][j].
		copy(red, c)
		for i := 0; i < tb.m; i++ {
			cb := c[tb.basis[i]]
			if cb == 0 {
				continue
			}
			ri := tb.row(i)
			for j := 0; j < tb.cols; j++ {
				red[j] -= cb * ri[j]
			}
		}
		// Entering variable.
		enter := -1
		if iter < blandAfter {
			best := -eps
			for j := 0; j < tb.cols; j++ {
				if banned != nil && banned[j] {
					continue
				}
				if red[j] < best {
					best, enter = red[j], j
				}
			}
		} else { // Bland: first improving index
			for j := 0; j < tb.cols; j++ {
				if banned != nil && banned[j] {
					continue
				}
				if red[j] < -eps {
					enter = j
					break
				}
			}
		}
		if enter < 0 {
			return Optimal, iter
		}
		// Ratio test.
		leave, minRatio := -1, math.Inf(1)
		for i := 0; i < tb.m; i++ {
			a := tb.at(i, enter)
			if a <= eps {
				continue
			}
			ratio := tb.rhs(i) / a
			if ratio < minRatio-eps || (ratio < minRatio+eps && (leave < 0 || tb.basis[i] < tb.basis[leave])) {
				minRatio, leave = ratio, i
			}
		}
		if leave < 0 {
			return Unbounded, iter
		}
		tb.pivot(leave, enter)
	}
	return IterationLimit, iterBudget
}

// Solver runs Solve on reusable buffers: the tableau, the cost and
// reduced-cost vectors and the solution vector live in the Solver and are
// overwritten by its next call, so a loop of small programs (the cone
// reduction's membership tests) allocates nothing once it has seen its
// largest. The zero value is ready to use; a Solver must not be shared
// between goroutines, and a Solution's X is valid until the next call.
type Solver struct {
	tb           tableau
	ops          []Op
	cost, red, x []float64
	banned       []bool

	neg []float64    // Maximize's negated objective
	hot []float64    // MaximizeOverBox's one-hot coefficients, n×n
	box []Constraint // its rows: the n box rows over hot, then the caller's
}

// grown returns s resized to n zeroed elements, reallocating only when it
// must.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Solve solves the problem with the two-phase simplex method.
//
// Approximation note: presolve treats coefficients whose magnitude is
// below eps relative to their row's largest entry as exactly zero. An
// Optimal status therefore certifies that X is feasible for the original
// constraints (verified post-solve) and optimal for the perturbed
// problem; the true optimum may be better, by up to the dropped mass
// Σ|a_ij|·x*_j ≤ eps·‖x*‖₁ per row (at the equilibrated row scale).
// Since x ≥ 0 is the only variable bound, this gap is not bounded a
// priori — it is negligible when optimal variable magnitudes are O(1),
// as in this library's unit-box geometry, but callers whose optima have
// huge variable values should not rely on Optimal being exact.
func Solve(p *Problem) Solution { return new(Solver).Solve(p) }

// Solve is the package-level Solve on the Solver's buffers.
func (s *Solver) Solve(p *Problem) Solution {
	n := p.NumVars
	m := len(p.Constraints)
	if p.Objective != nil && len(p.Objective) != n {
		panic("lp: objective length does not match NumVars")
	}

	// Count auxiliary columns. Rows are normalized so RHS ≥ 0 first, which
	// may flip operators.
	s.ops = grown(s.ops, m)
	nSlack, nArt := 0, 0
	for i, con := range p.Constraints {
		if len(con.Coef) != n {
			panic("lp: constraint coefficient length does not match NumVars")
		}
		op := con.Op
		if con.RHS < 0 {
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		s.ops[i] = op
		switch op {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}

	// Build the tableau, presolving each row in place: it is equilibrated
	// by an exact power of two so its largest coefficient magnitude lands
	// in [0.5, 1) — multiplying by 2^−e introduces no rounding, and a
	// well-scaled tableau keeps pivots away from the breakdown regime the
	// NumericalFailure certificate guards against — and coefficients that
	// are sub-epsilon at that scale (pure noise next to the row's real
	// entries, e.g. the 3e-10 beside 0.19s in corpus entry
	// 229d1b270705bacf) are dropped before they can be picked as pivots.
	// Dropping perturbs the problem: the post-solve certificate checks
	// the returned point against the ORIGINAL constraints, so feasibility
	// is never compromised, but optimality is certified only for the
	// perturbed problem — see the approximation note on Solve.
	cols := n + nSlack + nArt
	tb := &s.tb
	tb.m, tb.cols, tb.nArt = m, cols, nArt
	tb.t, tb.basis = grown(tb.t, m*(cols+1)), grown(tb.basis, m)
	slackAt, artAt := n, n+nSlack
	for i, con := range p.Constraints {
		row := tb.row(i)
		coef, rhs := row[:n], con.RHS
		copy(coef, con.Coef)
		if rhs < 0 {
			for j := range coef {
				coef[j] = -coef[j]
			}
			rhs = -rhs
		}
		maxab := 0.0
		for _, v := range coef {
			if a := math.Abs(v); a > maxab {
				maxab = a
			}
		}
		if maxab > 0 {
			if _, exp := math.Frexp(maxab); exp != 0 {
				scale := math.Ldexp(1, -exp)
				for j := range coef {
					coef[j] *= scale
				}
				rhs *= scale
			}
			for j, v := range coef {
				if v != 0 && math.Abs(v) < eps {
					coef[j] = 0
				}
			}
		}
		row[cols] = rhs
		switch s.ops[i] {
		case LE:
			row[slackAt] = 1
			tb.basis[i] = slackAt
			slackAt++
		case GE:
			row[slackAt] = -1
			slackAt++
			row[artAt] = 1
			tb.basis[i] = artAt
			artAt++
		case EQ:
			row[artAt] = 1
			tb.basis[i] = artAt
			artAt++
		}
	}

	iterLeft := maxIter
	s.red = grown(s.red, cols)
	// Phase 1: minimize the sum of artificials.
	if nArt > 0 {
		s.cost = grown(s.cost, cols)
		for j := n + nSlack; j < cols; j++ {
			s.cost[j] = 1
		}
		st, used := tb.simplex(s.cost, s.red, nil, iterLeft)
		iterLeft -= used
		if st == IterationLimit {
			return Solution{Status: IterationLimit}
		}
		// Phase-1 objective value = sum of basic artificial RHS.
		var p1 float64
		for i, b := range tb.basis {
			if b >= n+nSlack {
				p1 += tb.rhs(i)
			}
		}
		if p1 > phase1FeasTo {
			return Solution{Status: Infeasible}
		}
		// Drive remaining artificials out of the basis.
		for i := 0; i < tb.m; i++ {
			if tb.basis[i] < n+nSlack {
				continue
			}
			pivoted := false
			for j := 0; j < n+nSlack; j++ {
				if math.Abs(tb.at(i, j)) > 1e-7 {
					tb.pivot(i, j)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row: harmless; the artificial stays basic at
				// (numerically) zero and is banned from re-entering.
				tb.set(i, cols, 0)
			}
		}
	}

	// Phase 2.
	s.cost = grown(s.cost, cols)
	if p.Objective != nil {
		copy(s.cost, p.Objective)
	}
	s.banned = grown(s.banned, cols)
	for j := n + nSlack; j < cols; j++ {
		s.banned[j] = true
	}
	st, _ := tb.simplex(s.cost, s.red, s.banned, iterLeft)
	if st == Unbounded {
		return Solution{Status: Unbounded}
	}
	if st == IterationLimit {
		return Solution{Status: IterationLimit}
	}

	s.x = grown(s.x, n)
	x := s.x
	for i, b := range tb.basis {
		if b < n {
			x[b] = tb.rhs(i)
		}
	}
	// Verify the certificate: a tableau can terminate "optimal" with a
	// solution that violates a constraint when pivots degrade on
	// ill-conditioned rows. Found by internal/repair's insert fuzz target
	// (corpus entry 229d1b270705bacf): a row [3e-10, -0.19, -0.19] ≥ 0 was
	// silently violated and the phantom optimum overstated a cache-repair
	// margin by 0.69. Every caller treats non-Optimal conservatively, so
	// the check converts silent wrong answers into safe refusals.
	if !feasibleAt(p.Constraints, x) {
		return Solution{Status: NumericalFailure}
	}
	var obj float64
	if p.Objective != nil {
		for j, cj := range p.Objective {
			obj += cj * x[j]
		}
	}
	return Solution{Status: Optimal, X: x, Objective: obj}
}

// verifyTol is the relative feasibility tolerance of the post-solve
// certificate check: far above honest simplex roundoff (≤ ~1e-12 per
// pivot at these sizes), far below any violation a breakdown produces.
const verifyTol = 1e-6

// feasibleAt reports whether x satisfies every constraint — including
// the implicit x ≥ 0 bounds, which are as much a part of the problem as
// the rows — within a scale-aware tolerance.
func feasibleAt(cons []Constraint, x []float64) bool {
	for _, xj := range x {
		if xj < -verifyTol {
			return false
		}
	}
	for _, con := range cons {
		ax, scale := 0.0, 1.0+math.Abs(con.RHS)
		for j, a := range con.Coef {
			t := a * x[j]
			ax += t
			scale += math.Abs(t)
		}
		tol := verifyTol * scale
		switch con.Op {
		case LE:
			if ax > con.RHS+tol {
				return false
			}
		case GE:
			if ax < con.RHS-tol {
				return false
			}
		case EQ:
			if math.Abs(ax-con.RHS) > tol {
				return false
			}
		}
	}
	return true
}

// Feasible reports whether the constraint system (with x ≥ 0) has any
// solution.
func Feasible(numVars int, cons []Constraint) bool { return new(Solver).Feasible(numVars, cons) }

// Feasible is the package-level Feasible on the Solver's buffers.
func (s *Solver) Feasible(numVars int, cons []Constraint) bool {
	return s.Solve(&Problem{NumVars: numVars, Constraints: cons}).Status == Optimal
}

// MaximizeOverBox maximizes c·x over the unit box [0,1]^n intersected with
// the given constraint system (x ≥ 0 is implicit, x ≤ 1 is appended here).
// It is the box domain's Domain.MaximizeLinear, the LP reference tests
// hold the cache's ray test to: "can an inserted record outscore the
// cached k-th record anywhere in the region" is a bounded LP over a cone
// clipped to the query space. The box guarantees the program is never
// unbounded, so a non-Optimal status signals a numerical failure the
// caller should treat conservatively. The n one-hot box rows are built
// once per n and kept with the Solver's other buffers.
func (s *Solver) MaximizeOverBox(c []float64, cons []Constraint) Solution {
	n := len(c)
	if len(s.hot) != n*n {
		s.hot, s.box = make([]float64, n*n), s.box[:0]
		for j := 0; j < n; j++ {
			s.hot[j*n+j] = 1
			s.box = append(s.box, Constraint{Coef: s.hot[j*n : (j+1)*n], Op: LE, RHS: 1})
		}
	}
	s.box = append(s.box[:n], cons...)
	sol := s.Maximize(c, s.box)
	clear(s.box[n:]) // a pooled Solver must not keep the caller's rows reachable
	return sol
}

// Maximize maximizes c·x over the system; the returned objective is the
// maximum value.
func Maximize(c []float64, cons []Constraint) Solution { return new(Solver).Maximize(c, cons) }

// Maximize is the package-level Maximize on the Solver's buffers.
func (s *Solver) Maximize(c []float64, cons []Constraint) Solution {
	s.neg = grown(s.neg, len(c))
	for i, v := range c {
		s.neg[i] = -v
	}
	sol := s.Solve(&Problem{NumVars: len(c), Objective: s.neg, Constraints: cons})
	sol.Objective = -sol.Objective
	return sol
}
