package engine

import (
	"fmt"
	"math/rand"

	"github.com/girlib/gir/internal/domain"
	"github.com/girlib/gir/internal/vec"
)

// Stream generates a Zipf-distributed top-k query workload: a pool of
// distinct query vectors whose popularity follows a Zipf law — the serving
// pattern GIR caching targets (a few popular preference vectors dominate,
// with a long tail). An optional jitter nudges drawn vectors slightly, so
// the stream also exercises region hits by queries that are near, but not
// byte-identical to, a cached query (they stay inside its GIR with high
// probability).
//
// A Stream is deterministic for a given seed and NOT safe for concurrent
// use; draw the workload up front and fan the slice out.
type Stream struct {
	rng    *rand.Rand
	zipf   *rand.Zipf
	pool   [][]float64
	ks     []int
	jitter float64
	dom    domain.Domain // nil = box (raw vectors), else queries are normalized into it
}

// NewStreamIn builds a stream of d-dimensional queries over `distinct`
// vectors with Zipf parameter s (> 1; ~1.1 is mild skew, 2 heavy), k
// drawn per vector from [kmin, kmax], and gaussian jitter of the given
// magnitude (0 = exact repeats only). With simplex true, every pool
// vector and every jittered draw is sum-normalized, producing the
// workload a Σw=1 (paper-convention) serving stack accepts. Jitter
// still lands near-repeats inside cached regions — normalization is a
// positive scaling and linear ranking is scale-invariant, so a jittered
// query stays in a region's cone exactly as often as its raw image.
func NewStreamIn(seed int64, d, distinct int, s float64, kmin, kmax int, jitter float64, simplex bool) *Stream {
	if distinct < 1 {
		panic(fmt.Sprintf("engine: stream needs ≥ 1 distinct queries, got %d", distinct))
	}
	if s <= 1 {
		panic(fmt.Sprintf("engine: Zipf parameter s must be > 1, got %v", s))
	}
	rng := rand.New(rand.NewSource(seed))
	var dom domain.Domain
	if simplex {
		dom = domain.Simplex(d)
	}
	pool := make([][]float64, distinct)
	ks := make([]int, distinct)
	for i := range pool {
		q := make([]float64, d)
		for j := range q {
			q[j] = 0.15 + 0.7*rng.Float64()
		}
		if dom != nil {
			q = dom.Normalize(vec.Vector(q))
		}
		pool[i] = q
		ks[i] = kmin
		if kmax > kmin {
			ks[i] = kmin + rng.Intn(kmax-kmin+1)
		}
	}
	return &Stream{
		rng:    rng,
		zipf:   rand.NewZipf(rng, s, 1, uint64(distinct-1)),
		pool:   pool,
		ks:     ks,
		jitter: jitter,
		dom:    dom,
	}
}

// Next draws the next query. The returned vector is a fresh copy.
func (st *Stream) Next() ([]float64, int) {
	i := int(st.zipf.Uint64())
	base := st.pool[i]
	q := make([]float64, len(base))
	copy(q, base)
	if st.jitter > 0 && st.rng.Intn(2) == 0 {
		for j := range q {
			q[j] = clamp01(q[j] + st.jitter*st.rng.NormFloat64())
		}
		if st.dom != nil {
			q = st.dom.Normalize(vec.Vector(q))
		}
	}
	return q, st.ks[i]
}

// Draw materializes the next n queries as parallel slices.
func (st *Stream) Draw(n int) ([][]float64, []int) {
	qs := make([][]float64, n)
	ks := make([]int, n)
	for i := range qs {
		qs[i], ks[i] = st.Next()
	}
	return qs, ks
}

func clamp01(x float64) float64 {
	if x < 0.01 {
		return 0.01
	}
	if x > 1 {
		return 1
	}
	return x
}
