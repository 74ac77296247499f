// Package maintain is the cache-maintenance planner: the single place
// where the verdict for a cached GIR entry against dataset mutations is
// decided. It unifies what used to be smeared across the Engine's drainer
// (per-mutation predicate + absorb), internal/invalidate (the affectedness
// classifier), internal/repair (in-place patching) and internal/cache
// (apply mechanics) into one batch pass:
//
//	pop ALL pending mutations → for every cached entry, walk the batch in
//	version order through one verdict chain:
//
//	  unaffected → absorb the mutation into the entry's candidate set
//	               (stamps are raised ONCE per entry at the end of the
//	               chain, not once per mutation);
//	  affected   → repair in place when a sound closed-form patch exists
//	               (Repair mode); the repaired view — not yet committed to
//	               the cache — keeps being checked against the REST of the
//	               batch, so one publication of the cache's view commits
//	               the net effect of any number of in-batch repairs;
//	  else       → evict, short-circuiting the remaining mutations for
//	               this entry.
//
// A drain pass over a burst of B mutations therefore performs exactly one
// cache scan, at most one acquisition of the cache's writer mutex, and at
// most one stamp raise per entry, instead of B of each. Outcome counters are
// per (mutation, entry) events, so the caller's per-mutation accounting
// (Affected == Repaired + Invalidated) is reconstructed exactly from
// batch outcomes.
//
// The same planner powers the Engine's lookup fence: a candidate cache hit
// taken while mutations are pending is vetoed by one batched predicate
// over the whole pending window (FenceAffected) instead of a per-mutation
// loop of LP calls.
package maintain

import (
	"sync/atomic"

	"github.com/girlib/gir/internal/cache"
	"github.com/girlib/gir/internal/invalidate"
	"github.com/girlib/gir/internal/repair"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
	"github.com/girlib/gir/internal/viz"
)

// Mutation is one dataset write, in the order the writes were applied —
// the one record of it from the dataset's apply path and log through the
// engine's pending window to the planner. Version is the dataset version
// the mutation produced; 0 means an unversioned batch, for which stamp
// gating and raising are skipped — the caller vouches for ordering
// instead.
type Mutation struct {
	Version int64
	Insert  bool
	ID      int64
	Point   vec.Vector // the record's attributes; the planner reads an insert's only
}

// Outcome reports what one drain pass did. Affected, Repaired and Evicted
// count (mutation, entry) events credited by the cache apply step, so
// Affected == Repaired + Evicted holds exactly; Scans, StampRaises and
// Predicates are the batching economics the planner exists to improve.
type Outcome struct {
	Entries     int   // cached entries the pass considered
	Scans       int   // full cache scans (always 1 per pass)
	Affected    int   // (mutation, entry) pairs where the mutation could perturb the entry
	Repaired    int   // affect events resolved by an in-place patch
	Evicted     int   // entries removed (≤ 1 per entry per pass)
	StampRaises int   // per-entry stamp raises (≤ Entries: one per surviving entry)
	Predicates  int64 // affectedness predicate evaluations this pass
}

// Planner holds the maintenance policy and its cumulative counters. The
// zero value is an evict-only planner; set Repair for
// repair-instead-of-evict. Drain must not run concurrently with itself
// (single maintenance goroutine, exactly as the cache's entry ownership
// rules require); FenceAffected may run from any number of goroutines.
type Planner struct {
	Repair bool

	predicates atomic.Int64 // every affectedness evaluation (drain + fence)
}

// Predicates returns the cumulative number of affectedness predicate
// evaluations (closed-form filters + LP fallback) the planner has run,
// across drain passes and fence checks.
func (p *Planner) Predicates() int64 { return p.predicates.Load() }

// Drain reconciles the cache with an ordered mutation batch in one pass.
// An empty batch is a no-op.
func (p *Planner) Drain(c *cache.Cache, batch []Mutation) Outcome {
	var out Outcome
	if len(batch) == 0 {
		return out
	}
	out.Scans = 1
	res := c.MaintainBatch(func(e *cache.Entry) cache.BatchDecision {
		return p.planEntry(e, batch, &out)
	})
	out.Entries = res.Entries
	out.Affected = res.Affected
	out.Repaired = res.Repaired
	out.Evicted = res.Evicted
	return out
}

// planEntry walks one entry through the batch — the unified verdict chain.
// cur is the entry's current view: the live entry at first, then any
// uncommitted repaired replacement; absorbs mutate the view in place
// (live-entry Cand/Bounds are maintenance-goroutine-owned, lookups never
// read them) and only the final view is committed.
func (p *Planner) planEntry(entry *cache.Entry, batch []Mutation, out *Outcome) cache.BatchDecision {
	cur := entry
	affected, repairs := 0, 0
	for _, m := range batch {
		// A fence check may already have proven this mutation unaffecting
		// (cleared stamps are raised contiguously), but the absorb below
		// must still happen if the drainer has not folded it in yet.
		known := m.Version > 0 && cur.ClearedThrough() >= m.Version
		affects := false
		if !known {
			out.Predicates++
			affects = p.affects(m, cur)
		}
		if !affects {
			if m.Version == 0 || cur.AbsorbedThrough() < m.Version {
				absorb(cur, m)
			}
			continue
		}
		affected++
		if p.Repair {
			if ne := repairedView(cur, m); ne != nil {
				repairs++
				cur = ne
				continue // keep checking the repaired view against the rest
			}
		}
		// No sound repair: evict, short-circuiting the remaining mutations.
		return cache.BatchDecision{Evict: true, Affected: affected, Repaired: repairs}
	}
	// The entry survives the whole batch: one stamp raise marks every
	// versioned mutation reconciled. (Repaired views were constructed with
	// stamps at their repairing mutation's version; the raise completes
	// them through the batch maximum.)
	if maxV := batch[len(batch)-1].Version; maxV > 0 &&
		(cur.ClearedThrough() < maxV || cur.AbsorbedThrough() < maxV) {
		cur.RaiseStamps(maxV)
		out.StampRaises++
	}
	if cur == entry {
		return cache.BatchDecision{}
	}
	return cache.BatchDecision{Replace: cur, Affected: affected, Repaired: repairs}
}

// FenceAffected is the lookup-fence predicate: it reports whether ANY
// mutation of the pending window can perturb the entry, walking the window
// in version order and raising the entry's cleared stamp over the
// unaffecting prefix (one raise, only when the prefix advanced it) so the
// pair is never re-evaluated — by later fence checks or by the drain pass
// itself. Unlike Drain it never absorbs: candidate-set bookkeeping belongs
// to the maintenance goroutine alone, and FenceAffected runs on query
// goroutines.
func (p *Planner) FenceAffected(e *cache.Entry, pending []Mutation) bool {
	clearedTo := int64(0)
	for _, m := range pending {
		if e.ClearedThrough() >= m.Version {
			continue
		}
		if p.affects(m, e) {
			if clearedTo > 0 {
				e.RaiseCleared(clearedTo)
			}
			return true
		}
		clearedTo = m.Version
	}
	if clearedTo > 0 {
		e.RaiseCleared(clearedTo)
	}
	return false
}

// affects runs the affectedness classifier for one (mutation, entry) pair
// and counts the evaluation.
func (p *Planner) affects(m Mutation, e *cache.Entry) bool {
	p.predicates.Add(1)
	if m.Insert {
		return invalidate.InsertAffects(e.Region, e.Records, m.Point, e.InnerLo, e.InnerHi)
	}
	return invalidate.DeleteAffects(e.Records, m.ID)
}

// absorb folds an unaffecting mutation into the entry view's candidate
// set WITHOUT raising the absorbed stamp (the chain raises once at the
// end): an inserted record becomes a promotion candidate, a deleted one
// stops being one. Without this, a later delete-repair could promote a
// ghost or miss a better candidate.
func absorb(e *cache.Entry, m Mutation) {
	if m.Insert {
		e.AbsorbInsert(e.AbsorbedThrough(), topk.Record{
			ID:    m.ID,
			Point: m.Point,
			Score: score.Linear{}.Score(m.Point, e.Region.Query),
		})
	} else {
		e.AbsorbDelete(e.AbsorbedThrough(), m.ID)
	}
}

// repairedView runs the repair analysis for one affected entry view and
// builds its (uncommitted) replacement, stamped at the repairing
// mutation's version, or returns nil when no sound closed-form repair
// exists and the chain must evict.
func repairedView(e *cache.Entry, m Mutation) *cache.Entry {
	re := repair.Entry{
		Region: e.Region, Records: e.Records,
		Cand: e.Cand, Bounds: e.Bounds,
		InnerLo: e.InnerLo, InnerHi: e.InnerHi,
	}
	var rp *repair.Repaired
	var ok bool
	if m.Insert {
		rp, ok = repair.Insert(re, m.ID, m.Point)
	} else {
		if !e.CandComplete() {
			return nil // candidate set was dropped or never covered the dataset
		}
		rp, ok = repair.Delete(re, m.ID)
	}
	if !ok {
		return nil
	}
	version := m.Version
	if version == 0 {
		version = e.AbsorbedThrough()
	}
	lo, hi := viz.MAH(rp.Region, rp.Region.Query)
	return cache.RepairedEntry(e, rp.Region, rp.Records, rp.Cand, lo, hi, version)
}
