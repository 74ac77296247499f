package main

import (
	"math"
	"sort"
)

// rng is the benchmark's own generator (splitmix64): inputs depend on the
// seed alone, never on math/rand's or the library's stream code, so a
// library edit cannot move a workload.
type rng struct{ s uint64 }

// newRNG returns the generator for one purpose (data, a pool, a script);
// distinct streams keep e.g. a longer script from shifting the dataset.
func newRNG(seed int64, stream uint64) *rng {
	r := &rng{s: uint64(seed)*0x9E3779B97F4A7C15 ^ stream*0xD1B54A32D192ED03}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform value in [0,1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// between returns a uniform value in [lo,hi).
func (r *rng) between(lo, hi float64) float64 { return lo + (hi-lo)*r.float() }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// norm returns a standard normal draw (Box–Muller, one value per call).
func (r *rng) norm() float64 {
	u := 1 - r.float() // (0,1]
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*r.float())
}

// zipf draws ranks 0..n-1 with P(i) ∝ 1/(i+1)^s by inverting the CDF.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(r *rng) int {
	i := sort.SearchFloat64s(z.cdf, r.float())
	return min(i, len(z.cdf)-1)
}

// Input constants shared by every workload (ISSUE "Common inputs").
const (
	dim      = 4
	zipfS    = 1.3
	jitterSD = 0.001
	kMin     = 5
	kMax     = 20
	// freshIDBase is where the churn script's inserted ids start: far above
	// any bulk-loaded index, so the two can never collide.
	freshIDBase = int64(1) << 40
)

// dataSeed draws what stands still in a deployment — the records, the pools
// of popular query vectors, the churn script's plan — whatever -seed is (see
// env).
const dataSeed = 1

// RNG streams.
const (
	streamData = iota + 1
	streamHot
	streamCold
	streamBatch
	streamChurn
	streamProbe
	streamChurnPlan
)

// genPoints draws n records independent uniform in [0,1]^dim over one slab.
func genPoints(n int) [][]float64 {
	r := newRNG(dataSeed, streamData)
	slab := make([]float64, n*dim)
	pts := make([][]float64, n)
	for i := range pts {
		p := slab[i*dim : (i+1)*dim : (i+1)*dim]
		for j := range p {
			p[j] = r.float()
		}
		pts[i] = p
	}
	return pts
}

// query is one (vector, k) the client sends, with what it must get back.
type query struct {
	q   []float64
	k   int
	exp expect
}

// genPool draws size query vectors uniform in [0.15,0.85]^dim, each with
// its own k uniform in kMin..kMax.
func genPool(r *rng, size int) []query {
	pool := make([]query, size)
	for i := range pool {
		q := make([]float64, dim)
		for j := range q {
			q[j] = r.between(0.15, 0.85)
		}
		pool[i] = query{q: q, k: kMin + r.intn(kMax-kMin+1)}
	}
	return pool
}

// jittered copies a pool vector; half of the draws add N(0, jitterSD) per
// coordinate, clamped to [0.01,1], so a stream holds both byte-identical
// repeats and near-repeats that must land inside a cached region without
// matching its key.
func jittered(r *rng, src query) query {
	out := query{q: append([]float64(nil), src.q...), k: src.k}
	if r.next()&1 == 0 {
		for j := range out.q {
			out.q[j] = math.Min(1, math.Max(0.01, out.q[j]+jitterSD*r.norm()))
		}
	}
	return out
}

// drawVariants pre-draws count queries: a pool vector by Zipf rank, jittered.
func drawVariants(r *rng, pool []query, count int) []query {
	z := newZipf(len(pool), zipfS)
	out := make([]query, count)
	for i := range out {
		out[i] = jittered(r, pool[z.draw(r)])
	}
	return out
}

// shuffle permutes xs uniformly (Fisher-Yates).
func shuffle(r *rng, xs []int) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}
