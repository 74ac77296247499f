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
// For the screen every numerical shortcut errs toward a larger cone, so
// toward keeping records: a zero or duplicate-direction row, or a row past
// the 64th distinct one, is dropped; a ray within coneSide of a row's
// hyperplane counts as lying on it; and a rank counts every pivot above
// rankTol, so a doubtful pair is joined (a redundant ray lies inside P and
// costs one more dot product). A cone with fewer than d independent rows
// is not pointed, and one whose rays outgrow maxConeRays is given up on;
// either screens nothing. Enumerate runs the same method with no ray cap,
// for a caller that wants the rays themselves, and refuses a 65th distinct
// row instead of dropping it.
//
// Reduce reads the minimal representation off the rays (see ReduceCone),
// cutting the rays of the last Reset by the rows that follow, and there
// the bias flips: a row is kept or dropped on the rays' word only when
// every margin is clear, and any doubt hands the whole set to the
// membership programs.
//
// The zero value is ready; Reset reuses every buffer, so a pooled Cone
// runs without allocating once it has seen its largest input.
type Cone struct {
	d, m    int
	seen    int       // the input rows the kept ones were taken from
	capped  bool      // the rays outgrew their budget
	pointed bool      // Screen is pinned to the rays of the last Reset
	rows    []float64 // the m unit rows kept, row-major
	idx     []int     // per kept row, its index in the input
	rays    []float64 // the unit rays, row-major
	tight   []uint64  // per ray, the kept rows it lies on
	next    []float64 // the rays after the row being cut
	nextT   []uint64
	side    []float64 // per ray, its product with the row being cut (facet: per row, with the rays' sum)
	basis   []int     // the rows the simplicial cone starts from
	orth    []float64 // Gram–Schmidt: up to d orthonormal rows
	resid   []float64 // Gram–Schmidt: the rows' residuals
	at      []float64 // per ray, its product with the pinned apex
	dots    []float64 // Screen: one ray's products with the block
	face    []uint64  // Reduce: per ray, the kept rows it lies on, recomputed
	prod    []float64 // Reduce: per ray, its products with the kept rows
}

const (
	MaxConeRows = 64    // a ray's tight rows are one bit mask
	maxConeRays = 256   // past this, neither the screen nor the reduction is worth its dot products
	maxFreshDim = 4     // past this, a reduction's own double description is no cheaper than its programs
	coneSide    = 1e-9  // |a·g| at or below this puts unit ray g on row a
	coneClear   = 1e-6  // Reduce: a ray or a facet this far inside a row is clearly off it
	basisTol    = 1e-9  // a basis row's residual must exceed this
	rankTol     = 1e-12 // a residual above this counts toward a rank
	rankClear   = 1e-6  // Reduce: a residual above this counts toward a rank beyond doubt
	coneSlack   = -1e-9 // g·(x − apex) above this on some ray keeps x
	coneZeroRow = 1e-12 // a row no longer than this constrains nothing
	coneDupRow  = 1e-9  // unit rows this close are one direction
)

// Reset computes the extreme rays of {q : a·q ≥ 0 for every a in normals},
// pins the screen to apex, and reports whether the cone is pointed, that
// is whether the screen can drop anything. Reset(nil, nil) empties the
// cone, so the next Reduce starts over.
func (c *Cone) Reset(normals []vec.Vector, apex vec.Vector) bool {
	c.pointed = c.enumerate(normals, maxConeRays, false)
	c.at = c.at[:0]
	for r := range c.tight {
		c.at = append(c.at, vec.Dot(c.ray(r), apex))
	}
	return c.pointed
}

// Enumerate computes the extreme rays of {q : a·q ≥ 0 for every a in
// normals} however many there are, and returns their number: zero when the
// cone is not pointed, and zero when more than MaxConeRows of the rows are
// neither zero nor a duplicate direction, since a row left out would leave
// the rays of a larger cone. Ray reads them. It pins no apex, so Screen
// keeps every point until the next Reset.
func (c *Cone) Enumerate(normals []vec.Vector) int {
	c.pointed = false
	if !c.enumerate(normals, math.MaxInt, true) {
		return 0
	}
	return len(c.tight)
}

// Ray returns ray r of the last Reset or Enumerate, unit length, and the
// mask of the kept rows it lies on: bit i for the i-th row kept, in input
// order, of those neither zero nor a duplicate direction.
func (c *Cone) Ray(r int) (vec.Vector, uint64) { return c.ray(r), c.tight[r] }

// enumerate runs the double description over normals, giving up past
// maxRays rays, and reports whether the cone is pointed. Past MaxConeRows
// distinct rows it cuts by the first 64 alone, or, if exact, refuses.
func (c *Cone) enumerate(normals []vec.Vector, maxRays int, exact bool) bool {
	c.m, c.seen, c.capped = 0, 0, false
	c.tight, c.idx = c.tight[:0], c.idx[:0]
	if len(normals) == 0 {
		return false
	}
	c.d = len(normals[0])
	if !c.addRows(normals) && exact || c.m < c.d {
		return false
	}
	basis, ok := c.simplicial()
	if !ok {
		c.tight = c.tight[:0]
		return false
	}
	return c.cutRows(0, basis, maxRays)
}

// addRows keeps, unit length, the rows of normals from c.seen on that are
// neither zero nor a duplicate direction. It reports false, leaving c.seen
// at the row, when one more would pass MaxConeRows.
func (c *Cone) addRows(normals []vec.Vector) bool {
	for d := c.d; c.seen < len(normals); c.seen++ {
		at := c.m * d
		c.rows = append(c.rows[:at], normals[c.seen]...)
		row := vec.Vector(c.rows[at:])
		if !scaleTo(row, row, coneZeroRow) || c.duplicate(row) {
			continue
		}
		if c.m == MaxConeRows {
			return false
		}
		c.idx = append(c.idx, c.seen)
		c.m++
	}
	return true
}

// cutRows cuts by the kept rows from the from-th on, skipping the basis
// rows, and reports whether rays remain; past maxRays it gives up.
func (c *Cone) cutRows(from int, basis uint64, maxRays int) bool {
	for i := from; i < c.m; i++ {
		if basis&(1<<i) == 0 && !c.cut(i, maxRays) {
			c.capped = true
			c.tight = c.tight[:0]
			return false
		}
	}
	return len(c.tight) > 0
}

// reduceRays brings the double description up to every row of normals —
// cutting the rays it holds, a prefix's, by the rows past c.seen, starting
// over when it holds none — under maxConeRays. It reports false when the
// cone is not pointed, the rays outgrow their budget (a Reset that gave up
// is not retried), a 65th distinct row comes, or a fresh start would be
// past maxFresh dimensions.
func (c *Cone) reduceRays(normals []vec.Vector, maxFresh int) bool {
	switch d := len(normals[0]); {
	case c.capped:
		return false
	case len(c.tight) > 0 && c.d == d && c.seen <= len(normals):
		from := c.m
		return c.addRows(normals) && c.cutRows(from, 0, maxConeRays)
	case d > maxFresh:
		return false
	}
	return c.enumerate(normals, maxConeRays, true)
}

// redundant decides from the rays which kept rows are redundant: a row is
// a facet — irredundant — exactly when the rays on it span d − 1
// dimensions. It returns the redundant rows as a mask, or false when some
// margin is doubtful: a ray off a row by more than coneSide but not by
// coneClear, or a rank short of d − 1 with a Gram–Schmidt residual between
// rankTol and rankClear. A facet must also carry a certificate the
// membership programs cannot argue with, its rays' sum clearly inside
// every other row. It reports false, too, for a cone that is not
// full-dimensional, which some row lies on throughout: there the minimal
// set depends on the order rows are tried.
func (c *Cone) redundant() (uint64, bool) {
	d, m := c.d, c.m
	c.face, c.prod, c.orth = c.face[:0], vec.Grown(c.prod, len(c.tight)*m), vec.Grown(c.orth, d*d)
	onAll := ^uint64(0)
	for r := range c.tight {
		g, prod := c.ray(r), c.prod[r*m:(r+1)*m]
		var on uint64
		for i := range prod {
			var s float64
			for j, x := range c.rows[i*d : (i+1)*d] {
				s += x * g[j]
			}
			switch prod[i] = s; {
			case math.Abs(s) <= coneSide:
				on |= 1 << i
			case s <= coneClear:
				return 0, false
			}
		}
		c.face = append(c.face, on)
		onAll &= on
	}
	if onAll != 0 {
		return 0, false
	}
	var drop uint64
	for i := 0; i < m; i++ {
		facet, ok := c.facet(i)
		if !ok {
			return 0, false
		}
		if !facet {
			drop |= 1 << i
		}
	}
	return drop, true
}

// facet reports whether kept row i is a facet of the cone, and false for
// ok when the rays cannot say beyond doubt. The rays on the row are
// orthogonalized in turn: d − 1 residuals above rankClear prove the rank
// (a facet, if the certificate holds), and all at or below rankTol, bar
// the pivots, prove it short (a lower face: redundant). The certificate
// of a facet is its rays' sum s: a_i·s = 0 while a_j·s > coneClear·‖s‖
// for every other row j, so any nonnegative combination of the other rows
// that is within the programs' tolerance of a_i would be far shorter than
// a_i.
func (c *Cone) facet(i int) (facet, ok bool) {
	d, m, bit := c.d, c.m, uint64(1)<<i
	c.resid, c.side = vec.Grown(c.resid, d), vec.Grown(c.side, m)
	sum, at := vec.Vector(c.resid), c.side // the rays' sum and its products with the rows
	clear(sum)
	clear(at)
	rank, doubt := 0, false
	for r, on := range c.face {
		if on&bit == 0 {
			continue
		}
		vec.AXPY(1, c.ray(r), sum)
		vec.AXPY(1, c.prod[r*m:(r+1)*m], at)
		if rank < d-1 {
			switch res := c.orthogonalize(c.ray(r), rank); {
			case res > rankClear:
				rank++
			case res > rankTol:
				doubt = true
			}
		}
	}
	if rank < d-1 {
		return false, !doubt
	}
	margin := coneClear * vec.Norm(sum)
	for j, s := range at {
		if j != i && s <= margin {
			return false, false
		}
	}
	return true, true
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
			if s != t && c.orthogonalize(c.row(bs), o) > rankTol {
				o++
			}
		}
		if c.orthogonalize(c.row(bt), o) <= rankTol {
			return 0, false
		}
		copy(c.ray(t), c.orth[o*d:(o+1)*d])
		c.tight[t] = picked &^ (1 << bt)
	}
	return picked, true
}

// orthogonalize writes a's component orthogonal to the first o rows of
// c.orth as row o and returns its length. Above rankTol the row is scaled
// to unit length and counts toward a rank; at or below it, it counts for
// nothing.
func (c *Cone) orthogonalize(a vec.Vector, o int) float64 {
	d := c.d
	q := vec.Vector(c.orth[o*d : (o+1)*d])
	copy(q, a)
	for s := 0; s < o; s++ {
		p := vec.Vector(c.orth[s*d : (s+1)*d])
		vec.AXPY(-vec.Dot(q, p), p, q)
	}
	nm := vec.Norm(q)
	if nm > rankTol {
		inv := 1 / nm
		for j, x := range q {
			q[j] = inv * x
		}
	}
	return nm
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
		if c.orthogonalize(c.row(bits.TrailingZeros64(common)), rank) > rankTol {
			rank++
		}
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
