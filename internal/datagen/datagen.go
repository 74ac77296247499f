// Package datagen generates the paper's benchmark datasets: the standard
// Independent / Correlated / Anti-correlated synthetic distributions of
// Börzsönyi et al. [8] used throughout the evaluation, plus statistical
// surrogates for the two real datasets (HOUSE from ipums.org and HOTEL
// from hotelsbase.org), which are not redistributable. The comments on
// House and Hotel below say which behaviours the experiments depend on
// (cardinality, dimensionality, correlation structure) each preserves.
//
// All generators are deterministic in their seed.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/girlib/gir/internal/vec"
)

// Kind names a dataset family.
type Kind string

// Dataset kinds.
const (
	IND   Kind = "IND"   // independent uniform
	COR   Kind = "COR"   // correlated
	ANTI  Kind = "ANTI"  // anti-correlated
	HOUSE Kind = "HOUSE" // 6-attribute expenditure surrogate (315,265 records)
	HOTEL Kind = "HOTEL" // 4-attribute hotel surrogate (418,843 records)
)

// Paper cardinalities for the real-data surrogates.
const (
	HouseN = 315265
	HotelN = 418843
	HouseD = 6
	HotelD = 4
)

// Generate returns n records of dimension d from the named family.
// For HOUSE and HOTEL, d must match the fixed dimensionality (6 and 4);
// n may be smaller than the paper's cardinality for quick runs.
func Generate(kind Kind, n, d int, seed int64) ([]vec.Vector, error) {
	switch kind {
	case IND:
		return Independent(n, d, seed), nil
	case COR:
		return Correlated(n, d, seed), nil
	case ANTI:
		return AntiCorrelated(n, d, seed), nil
	case HOUSE:
		if d != HouseD {
			return nil, fmt.Errorf("datagen: HOUSE is %d-dimensional", HouseD)
		}
		return House(n, seed), nil
	case HOTEL:
		if d != HotelD {
			return nil, fmt.Errorf("datagen: HOTEL is %d-dimensional", HotelD)
		}
		return Hotel(n, seed), nil
	}
	return nil, fmt.Errorf("datagen: unknown kind %q", kind)
}

// Resolve normalizes a (kind, n, d) request the way the command-line tools
// accept it: HOUSE and HOTEL pin their fixed dimensionality and default to
// (or are capped at) the paper's cardinality, other kinds pass through.
// The returned values are safe to hand to Generate.
func Resolve(kind Kind, n, d int) (Kind, int, int) {
	switch kind {
	case HOUSE:
		d = HouseD
		if n <= 0 || n > HouseN {
			n = HouseN
		}
	case HOTEL:
		d = HotelD
		if n <= 0 || n > HotelN {
			n = HotelN
		}
	}
	return kind, n, d
}

// Independent draws n points uniformly and independently from [0,1]^d.
func Independent(n, d int, seed int64) []vec.Vector {
	r := rand.New(rand.NewSource(seed))
	pts := make([]vec.Vector, n)
	for i := range pts {
		p := make(vec.Vector, d)
		for j := range p {
			p[j] = r.Float64()
		}
		pts[i] = p
	}
	return pts
}

// Correlated draws points clustered around the main diagonal: a record
// with a large value in one dimension tends to be large in all of them.
// This is the standard construction — a common level m plus small
// per-dimension noise. Out-of-range draws are resampled rather than
// clamped: clamping would pile duplicate records onto the (1,…,1) corner
// and inflate the skyline with mutually non-dominating copies.
func Correlated(n, d int, seed int64) []vec.Vector {
	r := rand.New(rand.NewSource(seed))
	pts := make([]vec.Vector, n)
	for i := range pts {
		m := r.Float64()
		p := make(vec.Vector, d)
		for j := range p {
			for {
				v := m + 0.12*r.NormFloat64()
				if v >= 0 && v <= 1 {
					p[j] = v
					break
				}
			}
		}
		pts[i] = p
	}
	return pts
}

// AntiCorrelated draws points near the hyperplane Σx_i = c with strong
// negative pairwise correlation: a record good in one dimension tends to
// be poor in the others. Implemented with the usual mass-transfer scheme:
// start from the balanced point on a randomly drawn level and repeatedly
// move mass between random coordinate pairs.
func AntiCorrelated(n, d int, seed int64) []vec.Vector {
	r := rand.New(rand.NewSource(seed))
	pts := make([]vec.Vector, n)
	for i := range pts {
		level := clamp(0.5 + 0.08*r.NormFloat64())
		p := make(vec.Vector, d)
		for j := range p {
			p[j] = level
		}
		for t := 0; t < 4*d; t++ {
			a, b := r.Intn(d), r.Intn(d)
			if a == b {
				continue
			}
			// Move as much mass as headroom allows, scaled by a random
			// fraction; the sum Σx_i stays fixed at d·level.
			room := math.Min(1-p[a], p[b])
			delta := room * r.Float64()
			p[a] += delta
			p[b] -= delta
		}
		pts[i] = p
	}
	return pts
}

// House generates the HOUSE surrogate: n records (use HouseN for the
// paper's cardinality) with six expenditure attributes (gas, electricity,
// water, heating, insurance, property tax). A shared log-normal "income"
// factor induces mild positive correlation with long right tails; the
// result is min–max normalized to [0,1] per attribute, as the paper does.
func House(n int, seed int64) []vec.Vector {
	r := rand.New(rand.NewSource(seed))
	raw := make([]vec.Vector, n)
	// Per-attribute income elasticity and idiosyncratic noise scale.
	elast := []float64{0.5, 0.6, 0.4, 0.7, 0.8, 0.9}
	noise := []float64{0.5, 0.4, 0.6, 0.5, 0.35, 0.3}
	for i := range raw {
		income := math.Exp(0.6 * r.NormFloat64()) // log-normal factor
		p := make(vec.Vector, HouseD)
		for j := 0; j < HouseD; j++ {
			p[j] = math.Pow(income, elast[j]) * math.Exp(noise[j]*r.NormFloat64())
		}
		raw[i] = p
	}
	normalizeMinMax(raw)
	return raw
}

// Hotel generates the HOTEL surrogate: n records (use HotelN for the
// paper's cardinality) with four attributes — stars, price value
// (inverted price, so larger is better), rooms, and facilities. Stars
// drive price and facilities upward, which makes the value attribute
// anti-correlated with the quality attributes — the mixed structure the
// paper's HOTEL exhibits (skylines between IND and COR).
func Hotel(n int, seed int64) []vec.Vector {
	r := rand.New(rand.NewSource(seed))
	raw := make([]vec.Vector, n)
	for i := range raw {
		stars := 1 + r.Intn(5) // 1..5
		s := float64(stars)
		price := math.Exp(0.5*s*0.4 + 0.4*r.NormFloat64()) // rises with stars
		rooms := math.Exp(3 + 0.9*r.NormFloat64())
		facilities := s*4 + 6*r.Float64()
		raw[i] = vec.Vector{
			s + 0.2*r.NormFloat64(), // stars (slightly jittered ratings)
			-price,                  // inverted: cheap is good
			rooms,
			facilities,
		}
	}
	normalizeMinMax(raw)
	return raw
}

// normalizeMinMax rescales every attribute to [0,1] in place.
func normalizeMinMax(pts []vec.Vector) {
	if len(pts) == 0 {
		return
	}
	d := len(pts[0])
	for j := 0; j < d; j++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, p := range pts {
			if p[j] < lo {
				lo = p[j]
			}
			if p[j] > hi {
				hi = p[j]
			}
		}
		span := hi - lo
		if span == 0 {
			span = 1
		}
		for _, p := range pts {
			p[j] = (p[j] - lo) / span
		}
	}
}

// Query draws a random query vector with strictly positive weights, the
// shape used for the paper's "100 random queries" per measurement.
func Query(d int, seed int64) vec.Vector {
	r := rand.New(rand.NewSource(seed))
	q := make(vec.Vector, d)
	for j := range q {
		q[j] = 0.05 + 0.95*r.Float64()
	}
	return q
}

func clamp(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
