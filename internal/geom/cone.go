package geom

import (
	"math"
	"math/bits"

	"github.com/girlib/gir/internal/vec"
)

// Cone is the extreme-ray form of a pointed polyhedral cone
// P = {q : a_i·q ≥ 0}: every q in P is a nonnegative combination of its
// rays, so a linear function that is negative on every ray is negative on
// all of P but the origin. Pinned to an apex, it screens records the way
// the paper's footnote 7 prunes FP's nodes, with P the Phase-1 cone: a
// record x with g·x < g·apex on every ray g scores below the apex for every
// query in P, so Phase 1 already implies its half-space and it bounds
// nothing. The test is one dot product per ray, no LP.
//
// Reset finds the rays by the double description method (Motzkin et al.
// 1953; Fukuda & Prodon, "Double description method revisited", 1996):
// the simplicial cone of d independent rows has the columns of its
// inverse as rays; each further row keeps the rays on its side and joins
// every adjacent pair it separates at its hyperplane. Adjacency is the
// algebraic test — the rows both rays lie on have rank d − 2 — which,
// unlike the combinatorial one, stays sound when the ray set holds a
// redundant ray.
//
// Every numerical shortcut errs toward a larger cone, so toward keeping
// records: a zero or duplicate-direction row, or a row past the 64th, is
// dropped; a ray within coneSide of a row's hyperplane counts as lying on
// it; and a rank counts every pivot above rankTol, so a doubtful pair is
// joined (a redundant ray lies inside P and costs one more dot product). A
// cone with fewer than d independent rows is not pointed, and one whose
// rays outgrow maxConeRays is given up on; either screens nothing.
// Enumerate runs the same method with no ray cap, for a caller that wants
// the rays themselves.
//
// The zero value is ready; Reset reuses every buffer, so a pooled Cone
// runs without allocating once it has seen its largest input.
type Cone struct {
	d, m    int
	pointed bool
	rows    []float64 // the m unit rows kept, row-major
	rays    []float64 // the unit rays, row-major
	tight   []uint64  // per ray, the kept rows it lies on
	next    []float64 // the rays after the row being cut
	nextT   []uint64
	side    []float64 // per ray, its product with the row being cut
	basis   []int     // the rows the simplicial cone starts from
	orth    []float64 // Gram–Schmidt: up to d orthonormal rows
	resid   []float64 // Gram–Schmidt: the rows' residuals
	at      []float64 // per ray, its product with the pinned apex
	dots    []float64 // Screen: one ray's products with the block
}

const (
	MaxConeRows = 64    // a ray's tight rows are one bit mask
	maxConeRays = 256   // past this, the screen is not worth its dot products
	coneSide    = 1e-9  // |a·g| at or below this puts unit ray g on row a
	basisTol    = 1e-9  // a basis row's residual must exceed this
	rankTol     = 1e-12 // a residual above this counts toward a rank
	coneSlack   = -1e-9 // g·(x − apex) above this on some ray keeps x
	coneZeroRow = 1e-12 // a row no longer than this constrains nothing
	coneDupRow  = 1e-9  // unit rows this close are one direction
)

// Reset computes the extreme rays of {q : a·q ≥ 0 for every a in normals},
// pins the screen to apex, and reports whether the cone is pointed, that
// is whether the screen can drop anything.
func (c *Cone) Reset(normals []vec.Vector, apex vec.Vector) bool {
	c.pointed = c.enumerate(normals, maxConeRays)
	c.at = c.at[:0]
	for r := range c.tight {
		c.at = append(c.at, vec.Dot(c.ray(r), apex))
	}
	return c.pointed
}

// Enumerate computes the extreme rays of {q : a·q ≥ 0 for every a in
// normals} however many there are, and returns their number: zero when the
// cone is not pointed. Ray reads them. It pins no apex, so Screen keeps
// every point until the next Reset. A caller that must not lose a row
// passes at most MaxConeRows.
func (c *Cone) Enumerate(normals []vec.Vector) int {
	c.pointed = false
	if !c.enumerate(normals, math.MaxInt) {
		return 0
	}
	return len(c.tight)
}

// Ray returns ray r of the last Reset or Enumerate, unit length, and the
// mask of the kept rows it lies on: bit i for the i-th row kept, in input
// order, of those neither zero nor a duplicate direction.
func (c *Cone) Ray(r int) (vec.Vector, uint64) { return c.ray(r), c.tight[r] }

// enumerate runs the double description over normals, giving up past
// maxRays rays, and reports whether the cone is pointed.
func (c *Cone) enumerate(normals []vec.Vector, maxRays int) bool {
	c.tight = c.tight[:0]
	if len(normals) == 0 {
		return false
	}
	d := len(normals[0])
	c.d, c.m = d, 0
	c.rows = vec.Grown(c.rows, min(len(normals), MaxConeRows)*d)
	for _, a := range normals {
		if c.m == MaxConeRows {
			break
		}
		row := c.rows[c.m*d : (c.m+1)*d]
		if !scaleTo(row, a, coneZeroRow) || c.duplicate(row) {
			continue
		}
		c.m++
	}
	if c.m < d {
		return false
	}
	basis, ok := c.simplicial()
	for i := 0; ok && i < c.m; i++ {
		ok = basis&(1<<i) != 0 || c.cut(i, maxRays)
	}
	if !ok {
		c.tight = c.tight[:0]
	}
	return len(c.tight) > 0
}

// duplicate reports whether the unit row has the direction of a kept one.
func (c *Cone) duplicate(row vec.Vector) bool {
	for j := 0; j < c.m; j++ {
		if vec.Equal(row, c.row(j), coneDupRow) {
			return true
		}
	}
	return false
}

func (c *Cone) row(i int) vec.Vector { return c.rows[i*c.d : (i+1)*c.d] }
func (c *Cone) ray(i int) vec.Vector { return c.rays[i*c.d : (i+1)*c.d] }

// simplicial picks d independent rows — greedily the one with the largest
// residual against those already picked, for the best-conditioned basis —
// and sets the rays to those of their cone: ray t is row t's component
// orthogonal to the other d − 1, positive on row t and on none of the
// others. It returns the picked rows as a mask, and false when the rows
// span less than the whole space.
func (c *Cone) simplicial() (uint64, bool) {
	d, m := c.d, c.m
	c.resid = append(c.resid[:0], c.rows[:m*d]...)
	c.orth, c.basis = vec.Grown(c.orth, d*d), c.basis[:0]
	var picked uint64
	for t := 0; t < d; t++ {
		best, bestNorm := -1, basisTol
		for i := 0; i < m; i++ {
			if picked&(1<<i) == 0 {
				if nm := vec.Norm(c.resid[i*d : (i+1)*d]); nm > bestNorm {
					best, bestNorm = i, nm
				}
			}
		}
		if best < 0 {
			return 0, false
		}
		picked |= 1 << best
		c.basis = append(c.basis, best)
		q := c.orth[t*d : (t+1)*d]
		for j, x := range c.resid[best*d : (best+1)*d] {
			q[j] = x / bestNorm
		}
		for i := 0; i < m; i++ {
			r := vec.Vector(c.resid[i*d : (i+1)*d])
			vec.AXPY(-vec.Dot(r, q), q, r)
		}
	}
	c.rays, c.tight = vec.Grown(c.rays, d*d), vec.Grown(c.tight, d)
	for t, bt := range c.basis {
		o := 0
		for s, bs := range c.basis {
			if s != t {
				o += c.orthogonalize(c.row(bs), o)
			}
		}
		if c.orthogonalize(c.row(bt), o) == 0 {
			return 0, false
		}
		copy(c.ray(t), c.orth[o*d:(o+1)*d])
		c.tight[t] = picked &^ (1 << bt)
	}
	return picked, true
}

// orthogonalize appends a's component orthogonal to the first o rows of
// c.orth as row o, unit length, and reports 1 if that component is longer
// than rankTol, 0 (appending nothing) if not.
func (c *Cone) orthogonalize(a vec.Vector, o int) int {
	d := c.d
	q := vec.Vector(c.orth[o*d : (o+1)*d])
	copy(q, a)
	for s := 0; s < o; s++ {
		p := vec.Vector(c.orth[s*d : (s+1)*d])
		vec.AXPY(-vec.Dot(q, p), p, q)
	}
	if !scaleTo(q, q, rankTol) {
		return 0
	}
	return 1
}

// cut intersects the cone with row i's half-space: the rays on its side
// stay (those within coneSide of its hyperplane now lie on it), and every
// adjacent pair it separates is joined at the hyperplane. It reports false
// when the rays outgrow maxRays.
func (c *Cone) cut(i, maxRays int) bool {
	d, a, bit := c.d, c.row(i), uint64(1)<<i
	c.side = vec.Grown(c.side, len(c.tight))
	c.next, c.nextT = c.next[:0], c.nextT[:0]
	for r := range c.side {
		s := vec.Dot(a, c.ray(r))
		c.side[r] = s
		if s >= -coneSide {
			c.next = append(c.next, c.ray(r)...)
			t := c.tight[r]
			if s <= coneSide {
				t |= bit
			}
			c.nextT = append(c.nextT, t)
		}
	}
	for p, sp := range c.side {
		if sp <= coneSide {
			continue
		}
		for q, sq := range c.side {
			if sq >= -coneSide || !c.adjacent(c.tight[p]&c.tight[q]) {
				continue
			}
			if len(c.nextT) == maxRays {
				return false
			}
			// sp·g_q − sq·g_p: both weights positive, a·g = 0.
			at := len(c.next)
			c.next = append(c.next, c.ray(q)...)
			g := vec.Vector(c.next[at : at+d])
			for j := range g {
				g[j] = sp*g[j] - sq*c.rays[p*d+j]
			}
			if !scaleTo(g, g, 0) {
				c.next = c.next[:at]
				continue
			}
			c.nextT = append(c.nextT, c.tight[p]&c.tight[q]|bit)
		}
	}
	c.rays, c.next = c.next, c.rays
	c.tight, c.nextT = c.nextT, c.tight
	return true
}

// adjacent reports whether two rays whose common tight rows are the mask
// may span a 2-face: whether those rows can have rank d − 2. Below d − 2
// rows they cannot; at d ≤ 3 any such rows can (a kept row is not zero).
func (c *Cone) adjacent(common uint64) bool {
	need := c.d - 2
	if bits.OnesCount64(common) < need {
		return false
	}
	if c.d <= 3 {
		return true
	}
	rank := 0
	for ; common != 0 && rank < need; common &= common - 1 {
		rank += c.orthogonalize(c.row(bits.TrailingZeros64(common)), rank)
	}
	return rank >= need
}

// Screen sets keep[i] for every point i of the column-major block —
// cols[j][i] is coordinate j of point i — that may score above the apex
// for some query in the cone, and clears it for the rest: point i is kept
// if some ray g has g·x_i − g·apex > −1e-9. A cone that is not pointed
// keeps every point.
func (c *Cone) Screen(keep []bool, cols [][]float64) {
	if !c.pointed {
		for i := range keep {
			keep[i] = true
		}
		return
	}
	clear(keep)
	c.dots = vec.Grown(c.dots, len(keep))
	for r, at := range c.at {
		vec.DotColumns(c.dots, c.ray(r), cols)
		for i, s := range c.dots {
			if s-at > coneSlack {
				keep[i] = true
			}
		}
	}
}

// BoxMayBeat reports whether some point of the box [lo, hi] may score
// above the apex for some query in the cone: Screen's test with each
// ray's maximum over the box in place of its product with a point.
func (c *Cone) BoxMayBeat(lo, hi vec.Vector) bool {
	if !c.pointed {
		return true
	}
	for r, at := range c.at {
		if vec.MaxOverBox(c.ray(r), lo, hi)-at > coneSlack {
			return true
		}
	}
	return false
}
