// Package maintain is the cache-maintenance planner: the single place
// where the verdict for a cached GIR entry against dataset mutations is
// decided. The Engine hands it each write as a batch of one, under the
// write's lock and before the write's version becomes visible; a caller may
// also drain a longer ordered batch in one pass.
//
// The verdict is the paper's fine-grained invalidation, read off the
// entry's region: a delete matters only if it removes one of the entry's
// result records, and an insert only if it can beat p_k somewhere in the
// region, which the entry's extreme rays decide (internal/invalidate).
// Each entry walks the batch in version
// order until the first mutation that affects it, and is then evicted;
// an entry no mutation affects is kept as it is. A kept entry is still
// exact, and an evicted one is refilled by the next miss that lands in
// its region.
//
// A drain pass over a batch of B mutations therefore performs exactly one
// cache scan and at most one acquisition of the cache's writer mutex,
// instead of B of each, and evaluates each (mutation, entry) pair at most
// once.
package maintain

import (
	"sync/atomic"

	"github.com/girlib/gir/internal/cache"
	"github.com/girlib/gir/internal/invalidate"
	"github.com/girlib/gir/internal/vec"
)

// Mutation is one dataset write, in the order the writes were applied —
// the one record of it from the dataset's apply path and log to the
// planner. Version is the dataset version the mutation produced.
type Mutation struct {
	Version int64
	Insert  bool
	ID      int64
	Point   vec.Vector // the record's attributes; the planner reads an insert's only
}

// Outcome reports what one drain pass did: how many entries it evicted,
// and the batching economics (Scans, Predicates). An evicted entry is the
// only kind a mutation affects, so evictions are also the affect events.
type Outcome struct {
	Entries    int   // cached entries the pass considered
	Scans      int   // full cache scans (always 1 per pass)
	Evicted    int   // entries removed (≤ 1 per entry per pass)
	Predicates int64 // affectedness predicate evaluations this pass
}

// Planner holds the maintenance policy's cumulative counters. The zero
// value is ready to use. Drain must not run concurrently with itself, as
// the cache's entry ownership rules require; the Engine's writers are
// serialized by the dataset's lock.
type Planner struct {
	// Repair is ignored: a drain keeps or evicts an entry, and never
	// patches one in place.
	//
	// Deprecated: the planner has one policy; the field remains so
	// existing callers still compile.
	Repair bool

	predicates atomic.Int64 // every affectedness evaluation
}

// Predicates returns the cumulative number of affectedness predicate
// evaluations the planner has run: a delete's scan of the entry's records,
// or an insert's dot product with each of the entry's rays.
func (p *Planner) Predicates() int64 { return p.predicates.Load() }

// Drain reconciles the cache with an ordered mutation batch in one pass.
// An empty batch is a no-op.
func (p *Planner) Drain(c *cache.Cache, batch []Mutation) Outcome {
	var out Outcome
	if len(batch) == 0 {
		return out
	}
	out.Scans = 1
	res := c.MaintainBatch(func(e *cache.Entry) bool {
		for _, m := range batch {
			out.Predicates++
			if p.affects(m, e) {
				return true // the rest of the batch is never evaluated against e
			}
		}
		return false
	})
	out.Entries = res.Entries
	out.Evicted = res.Evicted
	return out
}

// affects runs the affectedness classifier for one (mutation, entry) pair
// and counts the evaluation.
func (p *Planner) affects(m Mutation, e *cache.Entry) bool {
	p.predicates.Add(1)
	if m.Insert {
		return invalidate.InsertAffectsRays(e.Box(), e.Rays, e.Records, m.ID, m.Point)
	}
	return invalidate.DeleteAffects(e.Records, m.ID)
}
