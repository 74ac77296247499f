package geom

import (
	"math"
	"math/bits"
	"slices"

	"github.com/girlib/gir/internal/vec"
)

// Cone is the extreme-ray form of a polyhedral cone on the nonnegative
// orthant O = {q ≥ 0}, where every query space lies: P = O ∩ {q : a_i·q ≥ 0}.
// O's d unit rows bound it, so it is pointed whatever the rows, and every q
// in P is a nonnegative combination of its rays: a linear function that is
// negative on every ray is negative on all of P but the origin. O's rows are
// never kept rows, nor counted as input rows; a ray's tight mask names only
// the kept input rows it lies on.
//
// Pinned to anchors, it screens records the way the paper's footnote 7
// prunes FP's nodes, with P the Phase-1 cone: a record x with g·x ≤ g·a on
// every ray g, for the anchor a of least product with g, scores at most
// every anchor for every query in P, so P already implies its half-spaces
// and it bounds nothing. The test is one dot product per ray, no LP. Cut
// goes on to cut the cone by such half-spaces one at a time: FP's Phase 2
// cuts P into the region's own rays this way.
//
// Most records lose on every ray, and one box test shows it without the
// rays. pin keeps the box [wlo, whi] of the rays scaled to Σ = 1, which
// holds P's Σw = 1 slice. If the most w·(x − a) reaches over that box is
// at or below 0 for every anchor a, then so is g·(x − a) for every ray g,
// a positive multiple of a point of the box, and the record is dropped
// unread by the rays. The drop holds in floating point as well: the box's
// bound and a ray's g·x − g·a each round by about d·2⁻⁵² of the
// coordinates' size (unit rays, Σ = 1 scaling, data in [0,1]^d), far
// below coneSlack, so a record the box bounds at ≤ 0 has every ray's
// margin ≤ coneSlack, which the per-ray test drops too. The box decides
// first and the rays decide the rest, so the kept set is the rays' alone.
//
// Reset finds the rays by the double description method (Motzkin et al.
// 1953; Fukuda & Prodon, "Double description method revisited", 1996),
// started from O, whose rays are the unit axes: each row keeps the rays on
// its side and joins every adjacent pair it separates at its hyperplane.
// Adjacency is the algebraic test — the rows both rays lie on, O's among
// them, have rank d − 2 — which, unlike the combinatorial one, stays sound
// when the ray set holds a redundant ray. Every ray is a nonnegative
// combination of unit axes, so the coordinates O's rows pin to zero stay
// exactly zero.
//
// For the screen every numerical shortcut errs toward a larger cone, so
// toward keeping records: a zero or duplicate-direction row, or a row past
// the 64th distinct one, is dropped; a ray within coneSide of a row's
// hyperplane counts as lying on it; and a rank counts every pivot above
// rankTol, so a doubtful pair is joined (a redundant ray lies inside P and
// costs one more dot product). A cut whose rays would outgrow maxConeRays,
// or leave none, is not made: the cone keeps the rays it had, a larger
// cone, and is capped. A record that beats its anchor on some ray by at
// most coneSlack is dropped, as a hull drops a point that close to a
// facet: its half-space cuts nothing off a unit ray but a sliver.
// Enumerate runs the same method with no ray cap, for a caller that wants
// the rays themselves, and refuses a 65th distinct row instead of
// dropping it.
//
// Reduce reads the minimal representation on O off the rays (see
// ReduceCone), cutting the rays of the last Reset and the Cuts after it by
// the rows that follow, and there the bias flips: a row is kept or dropped
// on the rays' word only when every margin is clear, and any doubt hands
// the whole set to the membership programs.
//
// The zero value is ready; Reset reuses every buffer, so a pooled Cone
// runs without allocating once it has seen its largest input.
type Cone struct {
	d, m    int
	seen    int       // the input rows the kept ones were taken from
	capped  bool      // a cut gave up: past the ray budget, no ray left, or (Cut) a 65th distinct row
	rows    []float64 // the m unit rows kept, row-major
	idx     []int     // per kept row, its index in the input
	rays    []float64 // the unit rays, row-major
	tight   []uint64  // per ray, the kept rows it lies on
	zero    []uint64  // per ray, O's rows it lies on: bit j for a zero coordinate j
	next    []float64 // the rays after the row being cut
	nextT   []uint64
	nextZ   []uint64
	side    []float64 // per ray, its product with the row being cut (facet: per row, with the rays' sum)
	neg     []int     // cut: the rays strictly outside the row
	orth    []float64 // Gram–Schmidt: up to d orthonormal rows
	resid   []float64 // facet: the rays' sum
	anchors []float64 // the pinned anchors, row-major
	at      []float64 // per ray, its least product with an anchor
	box     []float64 // the rays scaled to Σ = 1: their least coordinates wlo, then ½(whi − wlo)
	bound   []float64 // Screen: per point, the box's bound over the anchors
	dots    []float64 // Screen: one ray's products with the undecided points
	pick    []int     // Screen: the points the box leaves undecided
	sub     []float64 // Screen: their coordinates, column-major
	subCols [][]float64
	face    []uint64  // Reduce: per ray, the kept rows it lies on, recomputed
	prod    []float64 // Reduce: per ray, its products with the kept rows
}

const (
	MaxConeRows = 64    // a ray's tight rows are one bit mask
	maxConeDim  = 64    // O's rows a ray lies on are one bit mask
	maxConeRays = 256   // past this, neither the screen nor the reduction is worth its dot products
	maxFreshDim = 4     // past this, a reduction's own double description is no cheaper than its programs
	coneSide    = 1e-9  // |a·g| at or below this puts unit ray g on row a
	coneClear   = 1e-6  // Reduce: a ray or a facet this far inside a row is clearly off it
	rankTol     = 1e-12 // a residual above this counts toward a rank
	rankClear   = 1e-6  // Reduce: a residual above this counts toward a rank beyond doubt
	coneSlack   = 1e-10 // g·(x − anchor) above this on some ray keeps x
	coneZeroRow = 1e-12 // a row no longer than this constrains nothing
	coneDupRow  = 1e-9  // unit rows this close are one direction
)

// Reset computes the extreme rays of O ∩ {q : a·q ≥ 0 for every a in
// normals} in R^d and pins the screen to the anchors. Reset(0, nil) empties
// the cone, so the next Reduce starts over.
func (c *Cone) Reset(d int, normals []vec.Vector, anchors ...vec.Vector) {
	c.enumerate(d, normals, maxConeRays, false)
	c.anchors = c.anchors[:0]
	for _, a := range anchors {
		c.anchors = append(c.anchors, a...)
	}
	c.pin()
}

// pin sets each ray's least product with an anchor, and the box of the
// rays scaled to Σ = 1.
func (c *Cone) pin() {
	d := c.d
	c.at, c.box = c.at[:0], vec.Grown(c.box, 2*d)
	wlo, whi := c.box[:d], c.box[d:]
	for j := range wlo {
		wlo[j], whi[j] = math.Inf(1), math.Inf(-1)
	}
	for r := range c.tight {
		g, at, sum := c.ray(r), math.Inf(1), 0.0
		for a := 0; a < len(c.anchors); a += d {
			at = min(at, vec.Dot(g, c.anchors[a:a+d]))
		}
		c.at = append(c.at, at)
		for _, x := range g {
			sum += x
		}
		for j, x := range g {
			wlo[j], whi[j] = min(wlo[j], x/sum), max(whi[j], x/sum)
		}
	}
	for j := range whi {
		whi[j] = (whi[j] - wlo[j]) / 2
	}
}

// Cut intersects the cone of the last Reset with {q : row·q ≥ 0} and
// reports whether it keeps the row: whether some ray lies strictly outside
// it (by more than coneSide, the row at unit length). A row it does not
// keep is implied by the cone, so it is neither cut nor counted as an input
// row; a componentwise nonnegative row, which O implies, is never kept. A
// kept row becomes the next input row, so Reduce over the rows of the
// Reset followed by the kept rows, in order, only classifies, and Screen
// and BoxMayBeat screen by the cut cone.
//
// A row that would be the 65th distinct one, or a cut whose rays outgrow
// maxConeRays, caps the cone instead: the rays stay as they were, a
// larger cone, so Screen keeps every point it kept before. A capped cone
// keeps every row that Screen's test keeps a point by, some ray g with
// g·row < −1e-10, cuts nothing more, and hands Reduce to the membership
// programs.
func (c *Cone) Cut(row vec.Vector) bool {
	if c.capped {
		for r := range c.tight {
			if vec.Dot(c.ray(r), row) < -coneSlack {
				return true
			}
		}
		return false
	}
	at := c.m * c.d
	c.rows = append(c.rows[:at], row...)
	a := vec.Vector(c.rows[at:])
	if !scaleTo(a, a, coneZeroRow) {
		return false
	}
	outside := false
	for r := 0; r < len(c.tight) && !outside; r++ {
		outside = vec.Dot(a, c.ray(r)) < -coneSide
	}
	if !outside || c.duplicate(a) {
		return false
	}
	if c.m == MaxConeRows {
		c.capped = true
		return true
	}
	c.idx = append(c.idx, c.seen)
	c.m++
	if !c.cut(c.m-1, maxConeRays) {
		c.m, c.idx, c.capped = c.m-1, c.idx[:c.m-1], true
		return true
	}
	c.seen++
	c.pin()
	return true
}

// NumRays returns the number of rays the cone holds.
func (c *Cone) NumRays() int { return len(c.tight) }

// Enumerate computes the extreme rays of O ∩ {q : a·q ≥ 0 for every a in
// normals} however many there are, and returns their number: zero for no
// rows, for a cone that is the origin alone, and when more than
// MaxConeRows of the rows are neither zero nor a duplicate direction, since
// a row left out would leave the rays of a larger cone. Ray reads them. It
// pins no anchor, so Screen keeps nothing until the next Reset.
func (c *Cone) Enumerate(normals []vec.Vector) int {
	c.anchors, c.at = c.anchors[:0], c.at[:0]
	if len(normals) == 0 || !c.enumerate(len(normals[0]), normals, math.MaxInt, true) {
		return 0
	}
	return len(c.tight)
}

// Ray returns ray r of the last Reset or Enumerate, unit length, and the
// mask of the kept rows it lies on: bit i for the i-th row kept, in input
// order, of those neither zero nor a duplicate direction.
func (c *Cone) Ray(r int) (vec.Vector, uint64) { return c.ray(r), c.tight[r] }

// enumerate starts from O in R^d and runs the double description over
// normals, giving up past maxRays rays, and reports whether it cut by every
// row. Past MaxConeRows distinct rows it cuts by the first 64 alone, or, if
// exact, refuses.
func (c *Cone) enumerate(d int, normals []vec.Vector, maxRays int, exact bool) bool {
	c.start(d)
	if c.capped || !c.addRows(normals) && exact {
		c.capped = true
		return false
	}
	return c.cutRows(0, maxRays)
}

// start sets the cone to O in R^d: its rays are the unit axes, each on
// every row of O but its own. Past maxConeDim the masks cannot hold O's
// rows, and the cone is capped at O.
func (c *Cone) start(d int) {
	c.d, c.m, c.seen, c.capped = d, 0, 0, d > maxConeDim
	c.idx = c.idx[:0]
	c.rays, c.tight, c.zero = vec.Grown(c.rays, d*d), vec.Grown(c.tight, d), vec.Grown(c.zero, d)
	c.orth = vec.Grown(c.orth, d*d)
	clear(c.rays)
	axes := uint64(1)<<d - 1
	for j := range c.tight {
		c.rays[j*d+j] = 1
		c.tight[j], c.zero[j] = 0, axes&^(1<<j)
	}
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

// cutRows cuts by the kept rows from the from-th on and reports whether it
// cut by all of them; past maxRays, or where a cut would leave no ray, it
// gives up and caps the cone at the rays it has.
func (c *Cone) cutRows(from, maxRays int) bool {
	for i := from; i < c.m; i++ {
		if !c.cut(i, maxRays) {
			c.capped = true
			return false
		}
	}
	return true
}

// reduceRays brings the double description up to every row of normals —
// cutting the rays it holds, a prefix's, by the rows past c.seen, starting
// over when it holds none — under maxConeRays. It reports false when the
// rays outgrow their budget (a Reset that gave up is not retried), a 65th
// distinct row comes, or a fresh start would be past maxFresh dimensions.
func (c *Cone) reduceRays(normals []vec.Vector, maxFresh int) bool {
	switch d := len(normals[0]); {
	case c.capped:
		return false
	case len(c.tight) > 0 && c.d == d && c.seen <= len(normals):
		from := c.m
		return c.addRows(normals) && c.cutRows(from, maxConeRays)
	case d > maxFresh:
		return false
	}
	return c.enumerate(len(normals[0]), normals, maxConeRays, true)
}

// redundant decides from the rays which kept rows are redundant on O: a
// componentwise nonnegative row is (O implies it), and any other is a
// facet — irredundant — exactly when the rays on it span d − 1
// dimensions. It returns the redundant rows as a mask, or false when some
// margin is doubtful: a ray off a row by more than coneSide but not by
// coneClear, or a rank short of d − 1 with a Gram–Schmidt residual between
// rankTol and rankClear. A facet must also carry a certificate the
// membership programs cannot argue with, its rays' sum clearly inside
// every other row and O's. It reports false, too, for a cone that is not
// full-dimensional, which some row or some row of O lies on throughout:
// there the minimal set depends on the order rows are tried.
func (c *Cone) redundant() (uint64, bool) {
	d, m := c.d, c.m
	c.face, c.prod = c.face[:0], vec.Grown(c.prod, len(c.tight)*m)
	onAll, zeroAll := ^uint64(0), ^uint64(0)
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
		zeroAll &= c.zero[r]
	}
	if onAll != 0 || zeroAll != 0 {
		return 0, false
	}
	var drop uint64
	for i := 0; i < m; i++ {
		if !slices.ContainsFunc(c.row(i), func(x float64) bool { return x < 0 }) {
			drop |= 1 << i
			continue
		}
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
// for every other row j and s_j > coneClear·‖s‖ for every row e_j of O,
// so any nonnegative combination of the other rows and O's that is within
// the programs' tolerance of a_i would be far shorter than a_i.
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
			switch res := c.orthogonalize(c.ray(r), rank, 0); {
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
	for _, s := range sum {
		if s <= margin {
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

// orthogonalize writes a's component orthogonal to the first o rows of
// c.orth and to the unit axes in the mask axes as row o, and returns its
// length. Above rankTol the row is scaled to unit length and counts toward
// a rank; at or below it, it counts for nothing.
func (c *Cone) orthogonalize(a vec.Vector, o int, axes uint64) float64 {
	d := c.d
	q := vec.Vector(c.orth[o*d : (o+1)*d])
	copy(q, a)
	for ; axes != 0; axes &= axes - 1 {
		q[bits.TrailingZeros64(axes)] = 0
	}
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
// adjacent pair it separates is joined at the hyperplane. It reports false,
// leaving the rays as they were, when they would outgrow maxRays or none
// would remain (numerics only: a row of a GIR holds at its query).
func (c *Cone) cut(i, maxRays int) bool {
	d, a, bit := c.d, c.row(i), uint64(1)<<i
	c.side, c.neg = vec.Grown(c.side, len(c.tight)), c.neg[:0]
	c.next, c.nextT, c.nextZ = c.next[:0], c.nextT[:0], c.nextZ[:0]
	for r := range c.side {
		s := vec.Dot(a, c.ray(r))
		c.side[r] = s
		if s < -coneSide {
			c.neg = append(c.neg, r)
		} else {
			c.next = append(c.next, c.ray(r)...)
			t := c.tight[r]
			if s <= coneSide {
				t |= bit
			}
			c.nextT, c.nextZ = append(c.nextT, t), append(c.nextZ, c.zero[r])
		}
	}
	for p, sp := range c.side {
		if sp <= coneSide || len(c.neg) == 0 {
			continue
		}
		for _, q := range c.neg {
			sq := c.side[q]
			if !c.adjacent(c.tight[p]&c.tight[q], c.zero[p]&c.zero[q]) {
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
			c.nextT, c.nextZ = append(c.nextT, c.tight[p]&c.tight[q]|bit), append(c.nextZ, c.zero[p]&c.zero[q])
		}
	}
	if len(c.nextT) == 0 {
		return false
	}
	c.rays, c.next = c.next, c.rays
	c.tight, c.nextT = c.nextT, c.tight
	c.zero, c.nextZ = c.nextZ, c.zero
	return true
}

// adjacent reports whether two rays whose common tight rows are the masks
// — kept rows and O's — may span a 2-face: whether those rows can have
// rank d − 2. Below d − 2 rows they cannot; at d ≤ 3 any such rows can (a
// kept row is not zero), and so can d − 2 of O's, which are independent.
// Otherwise the rank is O's rows' count plus that of the kept rows with
// those axes projected out.
func (c *Cone) adjacent(common, zero uint64) bool {
	need := c.d - 2 - bits.OnesCount64(zero)
	if bits.OnesCount64(common) < need {
		return false
	}
	if c.d <= 3 || need <= 0 {
		return true
	}
	rank := 0
	for ; common != 0 && rank < need; common &= common - 1 {
		if c.orthogonalize(c.row(bits.TrailingZeros64(common)), rank, zero) > rankTol {
			rank++
		}
	}
	return rank >= need
}

// Screen sets keep[i] for every point i of the column-major block —
// cols[j][i] is coordinate j of point i — that may score above an anchor
// for some query in the cone, and clears it for the rest: point i is kept
// if some ray g has g·x_i − g·a > 1e-10 for the anchor a of least product
// with g.
//
// The Σ = 1 box decides most points first, in one branch-free pass over the
// block (boxBound); only the points it leaves undecided are copied into a
// small block and tested ray by ray. The per-ray products are DotColumns',
// bit for bit, so the kept set is the per-ray test's alone.
func (c *Cone) Screen(keep []bool, cols [][]float64) {
	clear(keep)
	n, d := len(keep), c.d
	if len(c.at) == 0 || len(c.anchors) == 0 || n == 0 {
		return
	}
	c.bound, c.dots = vec.Grown(c.bound, n), vec.Grown(c.dots, n)
	c.boxBound(c.bound, c.anchors[:d], cols)
	for a := d; a < len(c.anchors); a += d {
		c.boxBound(c.dots, c.anchors[a:a+d], cols)
		for i, b := range c.dots {
			c.bound[i] = max(c.bound[i], b)
		}
	}
	c.pick = c.pick[:0]
	for i, b := range c.bound {
		if b > 0 {
			c.pick = append(c.pick, i)
		}
	}
	u := len(c.pick)
	if u == 0 {
		return
	}
	c.sub, c.subCols = vec.Grown(c.sub, u*d), vec.Grown(c.subCols, d)
	for j, col := range cols {
		sub := c.sub[j*u : (j+1)*u]
		for p, i := range c.pick {
			sub[p] = col[i]
		}
		c.subCols[j] = sub
	}
	dots := c.dots[:u]
	for r, at := range c.at {
		vec.DotColumns(dots, c.ray(r), c.subCols)
		for p, s := range dots {
			if s-at > coneSlack {
				keep[c.pick[p]] = true
			}
		}
	}
}

// boxBound sets dst[i] to the most w·(x_i − a) reaches over the box
// [wlo, whi] for every point i of the column-major block: with t = x − a,
// Σ_j wlo_j·t_j + ½(whi_j − wlo_j)·(t_j + |t_j|), whi_j·t_j where t_j > 0
// and wlo_j·t_j elsewhere, with no branch.
func (c *Cone) boxBound(dst []float64, a []float64, cols [][]float64) {
	d := c.d
	clear(dst)
	for j, w := range c.box[:d] {
		h, aj := c.box[d+j], a[j]
		for i, x := range cols[j][:len(dst)] {
			t := x - aj
			dst[i] += w*t + h*(t+math.Abs(t))
		}
	}
}

// BoxMayBeat reports whether some point of a box with upper corner hi may
// score above an anchor for some query in the cone. Every ray lies in O, so
// its maximum over the box is its product with hi, and the test is
// Screen's for the point hi: the Σ = 1 box first, then the rays.
func (c *Cone) BoxMayBeat(hi vec.Vector) bool {
	if !c.boxMayBeat(hi) {
		return false
	}
	for r, at := range c.at {
		if vec.Dot(c.ray(r), hi)-at > coneSlack {
			return true
		}
	}
	return false
}

// boxMayBeat is boxBound's test for one point x: whether the box bounds
// w·(x − a) above 0 for some anchor a.
func (c *Cone) boxMayBeat(x vec.Vector) bool {
	d := c.d
	for a := 0; a < len(c.anchors); a += d {
		var s float64
		for j, w := range c.box[:d] {
			t := x[j] - c.anchors[a+j]
			s += w*t + c.box[d+j]*(t+math.Abs(t))
		}
		if s > 0 {
			return true
		}
	}
	return false
}
