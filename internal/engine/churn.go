package engine

import "math/rand"

// ChurnOp is one operation of a mixed read/write serving workload: either
// a top-k query or an Insert/Delete write.
type ChurnOp struct {
	Write  bool
	Insert bool      // write: insert vs delete
	ID     int64     // write: record id
	Point  []float64 // write: record attributes
	Query  []float64 // read: query vector
	K      int       // read: result size
}

// NewChurnWorkloadIn builds a deterministic mixed operation stream: the
// query side is a Zipf-popular Stream (the serving pattern GIR caching
// targets), and a writeMix fraction of operations are writes — inserts of
// fresh records interleaved with deletes of earlier churn inserts. Most
// inserted records follow the background distribution and rarely perturb
// any cached top-k; one in four lands near the top corner, where it
// genuinely displaces results and forces real invalidation work. It
// returns the stream and the query/write counts. Each operation is
// independently a write with probability writeMix. With simplex true the
// query side is sum-normalized (NewStreamIn); writes are untouched either
// way — inserted records live in the [0,1]^d DATA space regardless of which
// query space the serving stack runs in.
func NewChurnWorkloadIn(seed int64, d, distinct int, zipfS, jitter float64, stream int, writeMix float64, kmin, kmax int, simplex bool) (ops []ChurnOp, queries, writes int) {
	st := NewStreamIn(seed, d, distinct, zipfS, kmin, kmax, jitter, simplex)
	r := rand.New(rand.NewSource(seed + 1))
	ops = make([]ChurnOp, stream)
	nextID := int64(1 << 40)
	var liveIDs []int64
	livePts := make(map[int64][]float64)
	makeWrite := func() ChurnOp {
		if len(liveIDs) > 0 && r.Intn(2) == 0 {
			j := r.Intn(len(liveIDs))
			id := liveIDs[j]
			op := ChurnOp{Write: true, ID: id, Point: livePts[id]}
			liveIDs = append(liveIDs[:j], liveIDs[j+1:]...)
			delete(livePts, id)
			return op
		}
		p := make([]float64, d)
		for j := range p {
			p[j] = r.Float64()
		}
		if r.Intn(4) == 0 { // adversarial: near-top records
			for j := range p {
				p[j] = 0.9 + 0.099*r.Float64()
			}
		}
		op := ChurnOp{Write: true, Insert: true, ID: nextID, Point: p}
		liveIDs = append(liveIDs, nextID)
		livePts[nextID] = p
		nextID++
		return op
	}
	for i := range ops {
		if r.Float64() < writeMix {
			writes++
			ops[i] = makeWrite()
		} else {
			queries++
			q, k := st.Next()
			ops[i] = ChurnOp{Query: q, K: k}
		}
	}
	return ops, queries, writes
}
