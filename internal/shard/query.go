package shard

import (
	"fmt"
	"sort"

	gir "github.com/girlib/gir"
)

// Result is the coordinator's answer to one query: the exact global
// top-k, plus the version-vector cut it was issued against — every
// partition served at-or-past its coordinate.
type Result struct {
	Records []gir.Record
	At      VersionVector
	Err     error
}

// TopK answers one global top-k query by scatter/gather: every partition
// computes its local top-min(k, |partition|) through its Engine (cache,
// single-flight and write-time reconciliation all apply per partition),
// and the gathered union is merged with the deterministic (score desc, id
// asc) tiebreak. The result is record-for-record identical to a single-engine
// TopK over the union dataset: each partition's local list is exactly the
// global order restricted to its records (scores are computed by the same
// bit-equal dot product everywhere), so the k-prefix of the merged union
// is the global top-k.
func (c *Coordinator) TopK(q []float64, k int) Result {
	rs := c.BatchTopK([]gir.Query{{Vector: q, K: k}})
	return rs[0]
}

// BatchTopK is TopK for a batch: the whole batch is scattered to every
// partition in one BatchTopK call each (amortizing the partition fan-out),
// then merged per query.
func (c *Coordinator) BatchTopK(queries []gir.Query) []Result {
	at := c.Versions() // the cut: partitions only advance past it
	total := c.Len()
	out := make([]Result, len(queries))

	// Per-partition k clamp: a shard smaller than k answers with
	// everything it has. Validation of k against the GLOBAL cardinality
	// happens here — partitions can't see it.
	locals := make([][]gir.EngineResult, len(c.parts))
	c.scatter(func(i int) {
		n := c.parts[i].ds.Len()
		if n == 0 {
			// A drained shard contributes nothing (and its Engine would
			// reject any k); the merge just sees an empty local list.
			locals[i] = make([]gir.EngineResult, len(queries))
			return
		}
		pq := make([]gir.Query, len(queries))
		for j, q := range queries {
			pq[j] = gir.Query{Vector: q.Vector, K: max(min(q.K, n), 1)}
		}
		locals[i] = c.parts[i].eng.BatchTopK(pq)
	})

	for j, q := range queries {
		if q.K < 1 || q.K > total {
			out[j] = Result{Err: fmt.Errorf("shard: k = %d outside [1, %d]", q.K, total), At: at}
			continue
		}
		var merged []gir.Record
		var err error
		for i := range c.parts {
			r := locals[i][j]
			if r.Err != nil {
				err = fmt.Errorf("shard: partition %d: %w", i, r.Err)
				break
			}
			merged = append(merged, r.Records...)
		}
		if err != nil {
			out[j] = Result{Err: err, At: at}
			continue
		}
		sortMerged(merged)
		if len(merged) > q.K {
			merged = merged[:q.K]
		}
		out[j] = Result{Records: merged, At: at}
	}
	return out
}

// sortMerged orders a gathered union by (score desc, id asc) — the total
// order every engine's top-k is ranked by, so the merge equals a single
// engine's answer over the union, exact ties included.
func sortMerged(recs []gir.Record) {
	sort.Slice(recs, func(a, b int) bool {
		if recs[a].Score != recs[b].Score {
			return recs[a].Score > recs[b].Score
		}
		return recs[a].ID < recs[b].ID
	})
}
