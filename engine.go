package gir

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	cacheint "github.com/girlib/gir/internal/cache"
	engineint "github.com/girlib/gir/internal/engine"
	"github.com/girlib/gir/internal/maintain"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

// Engine is a goroutine-safe batch-query serving layer over a Dataset and
// a GIR-keyed Cache: the paper's caching application turned into a
// concurrent subsystem. A batch of queries fans out across a worker pool;
// each query is first offered to the sharded cache (a hit serves the exact
// result without touching the index), identical in-flight misses are
// collapsed into one computation (single-flight), and every freshly
// computed result is inserted back into the cache keyed by its GIR.
//
// Guarantees:
//   - BatchTopK results are byte-identical to calling Dataset.TopK
//     sequentially for each query — including cache hits, whose records
//     the engine re-scores against the incoming vector (the GIR guarantees
//     identity of composition and order; the dot products are recomputed
//     with the same code path BRS uses).
//   - BatchGIR results are byte-identical to a sequential
//     Dataset.TopK + Dataset.ComputeGIR pair per query.
//   - All Engine methods are safe to call concurrently; an Engine may be
//     shared by any number of goroutines.
//   - Mutations invalidate the cache FINE-GRAINED: every Insert/Delete is
//     published to the engine as an event, and a background drainer pops
//     ALL pending events at once and reconciles the cache in one batched
//     pass (internal/maintain): for each cached entry the batch is walked
//     in version order — unaffecting mutations are absorbed into the
//     entry's candidate set, affecting ones repair it in place (RepairMode)
//     or evict it, and a repaired entry keeps being checked against the
//     rest of the batch. A write burst of B mutations costs one cache scan
//     and at most one stamp raise per entry, not B. Writes never block on
//     that analysis, and a generation fence keeps lookups correct while
//     events drain: a hit is served from a not-yet-reconciled cache only
//     after one batched predicate proves the entry unaffected by the whole
//     pending window. A query racing a mutation may be served from either
//     side of it; once the mutation returns, later queries never see
//     results the mutation invalidated.
//
// The engine serves linear scoring only — GIR-keyed caching is only sound
// for the linear family the regions are computed under (Section 3 of the
// paper).
type Engine struct {
	ds      *Dataset
	cache   *Cache
	opts    EngineOptions
	flight  engineint.Group
	planner maintain.Planner // all maintenance policy lives here

	// Invalidation state. pending holds published-but-unreconciled
	// mutations in version order; applied is the dataset version the cache
	// is fully reconciled with (every entry is valid at applied). invMu
	// guards pending/closed/fenceUpSince and orders cache fills against
	// drain passes.
	invMu        sync.Mutex
	invCond      *sync.Cond
	pending      []mutation
	applied      atomic.Int64
	closed       bool
	unsub        func()
	drained      sync.WaitGroup
	fenceUpSince time.Time // when pending last went non-empty (zero when empty)

	deduped     atomic.Int64
	computed    atomic.Int64
	affected    atomic.Int64 // (mutation, entry) pairs a mutation could perturb (repair + evict events)
	repaired    atomic.Int64 // affect events resolved by an in-place patch
	invalidated atomic.Int64 // entries evicted by fine-grained invalidation
	fenced      atomic.Int64 // cache hits vetoed by the generation fence
	drainPasses atomic.Int64 // batched maintenance passes run
	drainedMuts atomic.Int64 // mutations those passes reconciled
	fenceNanos  atomic.Int64 // cumulative wall time the generation fence was up

	fusedGroups  atomic.Int64 // fused traversals that served ≥ 2 queries
	fusedQueries atomic.Int64 // queries those traversals answered
	sharedReads  atomic.Int64 // page visits served from a group's decode cache
}

// EngineOptions tunes a new Engine. The zero value is ready to use:
// GOMAXPROCS workers, a 1024-entry cache with the default shard count,
// and FP (the paper's fastest method) for cache-fill GIR computation.
// The query-space domain is inherited from the Dataset (NewDatasetInSpace
// / SetSpace): fills, cache membership, invalidation predicates and
// repairs all run in that space — see Engine.Space.
type EngineOptions struct {
	// Workers bounds the goroutines a batch fans out over (≤ 0 =
	// GOMAXPROCS).
	Workers int
	// CacheCapacity is the cache size in entries (0 = 1024, < 0 disables
	// caching entirely — every query computes, useful as a baseline).
	CacheCapacity int
	// CacheShards overrides the cache shard count (0 = default).
	CacheShards int
	// CacheMethod is the GIR algorithm used to build regions on the miss
	// path. The zero value is FP; every method caches the same region.
	CacheMethod Method
	// FlushOnWrite reverts mutation handling to the coarse pre-invalidation
	// strategy: every Insert/Delete clears the entire cache instead of
	// evicting only the entries it can perturb. No region analysis runs on
	// writes, at the cost of a far lower hit rate under churn. Kept as a
	// benchmark baseline and an escape hatch for write-dominated workloads.
	FlushOnWrite bool
	// RepairMode upgrades fine-grained invalidation to
	// repair-instead-of-evict: an affected entry is patched in place when
	// the mutation perturbs it in a closed-form way — an Insert that
	// displaces only its k-th record swaps the new record in and shrinks
	// the region by the new pairwise constraint; a Delete of one of its
	// result records promotes the best retained candidate — and evicted
	// only when no sound repair exists (internal/repair). Repaired entries
	// keep serving without a full top-k + GIR recompute on the next miss.
	// Ignored when FlushOnWrite is set.
	RepairMode bool
	// DrainBatch caps how many pending mutations one maintenance pass
	// coalesces (0 = unbounded, the default: a drain pass pops everything
	// pending). 1 reproduces the pre-batching one-mutation-per-pass drain
	// and is kept as a benchmark baseline (girbench -burst).
	DrainBatch int
	// FuseGroupSize caps how many cache-missing queries of one BatchTopK
	// call a fused traversal serves together (0 = default 8). Misses are
	// grouped by angular similarity of their weight vectors and each group
	// shares one pass over the index pages; every member's result stays
	// byte-identical to a solo TopK. 1 disables fusion (the per-query
	// baseline).
	FuseGroupSize int
}

// NewEngine builds an engine over the dataset.
func NewEngine(ds *Dataset, opts EngineOptions) *Engine {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	var c *Cache
	if opts.CacheCapacity >= 0 {
		capacity := opts.CacheCapacity
		if capacity == 0 {
			capacity = 1024
		}
		if opts.CacheShards > 0 {
			c = NewCacheSharded(capacity, opts.CacheShards)
		} else {
			c = NewCache(capacity)
		}
	}
	e := &Engine{ds: ds, cache: c, opts: opts}
	e.planner.Repair = opts.RepairMode && !opts.FlushOnWrite
	e.invCond = sync.NewCond(&e.invMu)
	if c != nil {
		// Subscribe before reading the version: events for any later
		// mutation are then guaranteed to reach the queue, and applied can
		// only be behind reality (conservative).
		e.unsub = ds.subscribe(e.enqueueMutation)
		e.applied.Store(ds.version.Load())
		e.drained.Add(1)
		go e.drainMutations()
	}
	return e
}

// Close detaches the engine from the dataset's mutation feed and stops the
// invalidation drainer. Call it when the engine is no longer needed; an
// engine must not serve queries after Close. Engines without a cache need
// no Close (it is a no-op).
func (e *Engine) Close() {
	e.invMu.Lock()
	unsub := e.unsub
	e.unsub = nil
	alreadyClosed := e.closed
	e.closed = true
	e.invCond.Broadcast()
	e.invMu.Unlock()
	if unsub != nil {
		// Outside invMu: unsubscribing takes the dataset's mutation lock,
		// and mutation publishing acquires ds.mu → invMu in that order.
		unsub()
	}
	if !alreadyClosed && e.cache != nil {
		e.drained.Wait()
	}
}

// enqueueMutation receives one dataset mutation. It runs under the
// dataset's exclusive lock, before the mutation's version becomes visible,
// so it must only append and signal — the LP work happens in the drainer.
func (e *Engine) enqueueMutation(m mutation) {
	e.invMu.Lock()
	if !e.closed {
		if len(e.pending) == 0 {
			e.fenceUpSince = time.Now() // the generation fence just went up
		}
		e.pending = append(e.pending, m)
		// Broadcast, not Signal: both the drainer (waiting for work) and
		// Quiesce callers (waiting for its absence) sleep on this cond.
		e.invCond.Broadcast()
	}
	e.invMu.Unlock()
}

// Quiesce blocks until every mutation published so far has been applied
// to the cache (the generation fence is down and stats are settled).
// Serving does not require it — the fence keeps lookups correct while
// events drain — but benchmarks and tests use it to read deterministic
// Invalidated/Fenced counters.
func (e *Engine) Quiesce() {
	if e.cache == nil {
		return
	}
	e.invMu.Lock()
	defer e.invMu.Unlock()
	for len(e.pending) > 0 && !e.closed {
		e.invCond.Wait()
	}
}

// drainMutations reconciles pending mutations with the cache in version
// order, a whole batch per pass: every pass pops all pending mutations (up
// to DrainBatch) and hands them to the internal/maintain planner, which
// scans the cache once and walks each entry through the batch's verdict
// chain. The batch stays in pending until its pass completes, so
// putIfCurrent can tell "reconciled" from "in flight"; applied then
// advances straight to the batch's maximum version.
func (e *Engine) drainMutations() {
	defer e.drained.Done()
	for {
		e.invMu.Lock()
		for len(e.pending) == 0 && !e.closed {
			e.invCond.Wait()
		}
		if e.closed {
			e.invMu.Unlock()
			return
		}
		n := len(e.pending)
		if e.opts.DrainBatch > 0 && n > e.opts.DrainBatch {
			n = e.opts.DrainBatch
		}
		batch := make([]maintain.Mutation, n)
		for i, m := range e.pending[:n] {
			batch[i] = maintain.Mutation{Version: m.version, Insert: m.insert, ID: m.id, Point: vec.Vector(m.point)}
		}
		e.invMu.Unlock()

		if e.opts.FlushOnWrite {
			cleared := int64(e.cache.inner.Clear())
			e.affected.Add(cleared)
			e.invalidated.Add(cleared)
		} else {
			out := e.planner.Drain(e.cache.inner, batch)
			// Event counts are credited from applied outcomes, so the
			// Repaired + Invalidated = Affected invariant is exact even when
			// an affected entry vanishes to concurrent LRU pressure between
			// the decision and its application.
			e.affected.Add(int64(out.Affected))
			e.repaired.Add(int64(out.Repaired))
			e.invalidated.Add(int64(out.Evicted))
		}
		e.drainPasses.Add(1)
		e.drainedMuts.Add(int64(n))

		e.invMu.Lock()
		e.pending = e.pending[n:]
		e.applied.Store(batch[n-1].Version)
		if len(e.pending) == 0 && !e.fenceUpSince.IsZero() {
			e.fenceNanos.Add(time.Since(e.fenceUpSince).Nanoseconds())
			e.fenceUpSince = time.Time{}
		}
		e.invCond.Broadcast() // wake Quiesce callers once the queue empties
		e.invMu.Unlock()
	}
}

// fenceVeto returns the lookup veto enforcing the generation fence, or nil
// on the fast path (cache fully reconciled with the visible dataset
// version — the steady state, two atomic loads). While mutations are
// pending, a candidate hit is suppressed unless one batched predicate over
// the whole pending window proves it unaffected (maintain.FenceAffected,
// which also raises the entry's cleared stamp over the unaffecting prefix
// so no (mutation, entry) pair is ever evaluated twice); the drainer will
// evict or repair the truly affected entries and restore the fast path.
func (e *Engine) fenceVeto() func(*cacheint.Entry) bool {
	if e.applied.Load() >= e.ds.version.Load() {
		return nil
	}
	e.invMu.Lock()
	snap := make([]maintain.Mutation, len(e.pending))
	for i, m := range e.pending { // ascending version order (append order)
		snap[i] = maintain.Mutation{Version: m.version, Insert: m.insert, ID: m.id, Point: vec.Vector(m.point)}
	}
	e.invMu.Unlock()
	if len(snap) == 0 {
		// The drainer finished between the two loads; applied has caught up.
		return nil
	}
	if e.opts.FlushOnWrite {
		return func(*cacheint.Entry) bool {
			// Coarse mode: any pending mutation invalidates everything.
			e.fenced.Add(1)
			return true
		}
	}
	return func(entry *cacheint.Entry) bool {
		if e.planner.FenceAffected(entry, snap) {
			e.fenced.Add(1)
			return true
		}
		return false
	}
}

// Query is one query of a batch.
type Query struct {
	Vector []float64
	K      int
}

// EngineResult is the engine's answer to one query.
type EngineResult struct {
	// Records is the exact top-k, identical to Dataset.TopK's answer.
	Records []Record
	// GIR is the query's immutable region (BatchGIR only; nil otherwise).
	GIR *GIR
	// CacheHit is true when the result was served entirely from the cache.
	CacheHit bool
	// PartialHit is true when the cache held an exact prefix (cached K <
	// requested k) and the engine computed the full result fresh.
	PartialHit bool
	// Shared is true when this query's computation was deduplicated
	// against an identical in-flight query (single-flight).
	Shared bool
	// Err is set when the query was invalid; the other fields are zero.
	Err error
}

// EngineStats aggregates what the engine did so far.
type EngineStats struct {
	CacheHits   int64 // queries served entirely from the cache
	PartialHits int64 // cache prefix found, remainder computed
	Misses      int64 // cache lookups that found nothing
	Deduped     int64 // queries that shared an identical in-flight computation
	Computed    int64 // full BRS (+ cache-fill GIR) computations executed
	Affected    int64 // (mutation, entry) pairs a mutation could perturb (= Repaired + Invalidated)
	Repaired    int64 // affect events resolved by an in-place patch (RepairMode)
	Invalidated int64 // cache entries evicted by fine-grained invalidation
	Fenced      int64 // candidate hits vetoed while mutation events drained

	// Maintenance-pipeline economics (the batching the internal/maintain
	// planner buys): how many passes reconciled how many mutations, how
	// many affectedness predicates ran (drain + fence), and how long the
	// generation fence was up in total. DrainPasses < DrainedMutations
	// means write bursts were coalesced.
	DrainPasses      int64
	DrainedMutations int64
	PredicateEvals   int64
	FenceOpen        time.Duration

	// Fused-batch economics: how many multi-member fused traversals ran,
	// how many queries they answered, and how many page visits were served
	// from a group's shared decode cache instead of the store. SharedPageReads
	// is exactly the reads fusion saved over per-query traversals.
	FusedGroups     int64
	FusedQueries    int64
	SharedPageReads int64

	// Version is the dataset mutation version visible when the stats were
	// read; Reconciled is the version the cache is fully reconciled with
	// (= Version when the generation fence is down or caching is off). A
	// sharded coordinator reads these to place a partition on its version
	// vector and to see drain lag at a glance.
	Version    int64
	Reconciled int64
}

// Stats returns cumulative engine counters.
func (e *Engine) Stats() EngineStats {
	st := EngineStats{
		Deduped:          e.deduped.Load(),
		Computed:         e.computed.Load(),
		Affected:         e.affected.Load(),
		Repaired:         e.repaired.Load(),
		Invalidated:      e.invalidated.Load(),
		Fenced:           e.fenced.Load(),
		DrainPasses:      e.drainPasses.Load(),
		DrainedMutations: e.drainedMuts.Load(),
		PredicateEvals:   e.planner.Predicates(),
		FenceOpen:        time.Duration(e.fenceNanos.Load()),
		FusedGroups:      e.fusedGroups.Load(),
		FusedQueries:     e.fusedQueries.Load(),
		SharedPageReads:  e.sharedReads.Load(),
		Version:          e.ds.version.Load(),
	}
	st.Reconciled = st.Version
	if e.cache != nil {
		st.CacheHits, st.PartialHits, st.Misses = e.cache.Stats()
		st.Reconciled = e.applied.Load()
	}
	return st
}

// Cache returns the engine's cache (nil when caching is disabled).
func (e *Engine) Cache() *Cache { return e.cache }

// Space returns the query-space domain the engine serves in, inherited
// from its Dataset at construction. Every region the engine computes,
// caches, fences, repairs or persists is clipped to this space.
func (e *Engine) Space() Space { return e.ds.Space() }

// defaultFuseGroupSize is the fused-traversal group cap when
// EngineOptions.FuseGroupSize is left zero.
const defaultFuseGroupSize = 8

func (e *Engine) fuseLimit() int {
	if e.opts.FuseGroupSize == 0 {
		return defaultFuseGroupSize
	}
	if e.opts.FuseGroupSize < 1 {
		return 1
	}
	return e.opts.FuseGroupSize
}

// BatchTopK answers a batch of top-k queries concurrently. The i-th result
// corresponds to the i-th query; every result is byte-identical to what
// Dataset.TopK would return for that query.
//
// Unless FuseGroupSize disables it, the batch's cache misses are
// deduplicated, grouped by angular similarity of their weight vectors, and
// each group is answered by ONE fused traversal that shares page decodes
// and block-scores leaves for the whole group (topk.BRSGroup) — byte
// identity per query is preserved by construction.
func (e *Engine) BatchTopK(queries []Query) []EngineResult {
	out := make([]EngineResult, len(queries))
	if limit := e.fuseLimit(); limit > 1 && len(queries) > 1 {
		e.batchTopKFused(queries, out, limit)
		return out
	}
	engineint.Fan(len(queries), e.opts.Workers, func(i int) {
		out[i] = e.serveTopK(queries[i])
	})
	return out
}

// batchTopKFused is BatchTopK's fused execution: cache lookups fan out as
// before; the misses are deduplicated within the batch, partitioned into
// angular-similarity groups, and each group computed with one shared
// traversal under one snapshot pin.
func (e *Engine) batchTopKFused(queries []Query, out []EngineResult, limit int) {
	n := len(queries)
	miss := make([]bool, n)
	engineint.Fan(n, e.opts.Workers, func(i int) {
		q := queries[i]
		if err := e.ds.validateQuery(q.Vector, q.K); err != nil {
			out[i] = EngineResult{Err: err}
			return
		}
		if e.cache != nil {
			if entry, complete, ok := e.cache.lookupEntry(q.Vector, q.K, e.fenceVeto()); ok {
				if complete {
					dst := make([]Record, q.K)
					rescoreInto(dst, entry.Records[:q.K], q.Vector)
					out[i] = EngineResult{Records: dst, CacheHit: true}
					return
				}
				out[i].PartialHit = true
			}
		}
		miss[i] = true
	})

	// In-batch dedupe: the first query with a given (vector, k) key owns
	// the computation; repeats become followers and copy its answer, the
	// same sharing single-flight gives concurrent callers.
	byKey := make(map[string]int, n)
	ownerIdx := make([]int, 0, n)
	ownerKey := make([]string, 0, n)
	var followers map[int][]int
	for i := range queries {
		if !miss[i] {
			continue
		}
		key := "t:" + engineint.Key(queries[i].Vector, queries[i].K)
		if o, ok := byKey[key]; ok {
			if followers == nil {
				followers = make(map[int][]int)
			}
			followers[o] = append(followers[o], i)
			continue
		}
		byKey[key] = len(ownerIdx)
		ownerIdx = append(ownerIdx, i)
		ownerKey = append(ownerKey, key)
	}

	if len(ownerIdx) > 0 {
		vecs := make([]vec.Vector, len(ownerIdx))
		for j, i := range ownerIdx {
			vecs[j] = vec.Vector(queries[i].Vector)
		}
		groups := topk.FuseGroups(vecs, limit)
		engineint.Fan(len(groups), e.opts.Workers, func(gi int) {
			e.computeFusedGroup(queries, out, ownerIdx, ownerKey, groups[gi])
		})
	}

	for o, fs := range followers {
		src := out[ownerIdx[o]]
		for _, i := range fs {
			e.deduped.Add(1)
			out[i].Records = src.Records
			out[i].Err = src.Err
			out[i].Shared = true
		}
	}
}

// computeFusedGroup claims each member's single-flight key, answers the
// claimed subset with one fused traversal under one snapshot pin,
// publishes per-member results, then adopts results for members some
// other caller was already computing. Claiming everything up front keeps
// the engine's dedupe guarantee — a fused member and a concurrent solo
// TopK for the same key still compute once — and waiting only AFTER our
// own subset is published makes overlapping groups deadlock-free (a
// leader never blocks before releasing its claims).
func (e *Engine) computeFusedGroup(queries []Query, out []EngineResult, ownerIdx []int, ownerKey []string, group []int) {
	type member struct {
		i    int // index into queries/out
		key  string
		call *engineint.Call
	}
	lead := make([]member, 0, len(group))
	var waiters []member
	for _, g := range group {
		c, leader := e.flight.Claim(ownerKey[g])
		m := member{i: ownerIdx[g], key: ownerKey[g], call: c}
		if leader {
			lead = append(lead, m)
		} else {
			waiters = append(waiters, m)
		}
	}

	if len(lead) > 0 {
		e.computed.Add(int64(len(lead)))
		qs := make([][]float64, len(lead))
		ks := make([]int, len(lead))
		for j, m := range lead {
			qs[j] = queries[m.i].Vector
			ks[j] = queries[m.i].K
		}
		var recs [][]Record
		var errs []error
		var stats topk.GroupStats
		if e.cache == nil {
			recs, stats, errs = e.ds.topKGroup(qs, ks)
		} else {
			fills, st, ferrs := e.ds.topKAndGIRGroup(qs, ks, e.opts.CacheMethod)
			stats, errs = st, ferrs
			recs = make([][]Record, len(fills))
			for j, fill := range fills {
				if fill == nil {
					continue
				}
				e.putIfCurrent(fill)
				recs[j] = fill.recs
			}
		}
		e.sharedReads.Add(stats.SharedReads)
		if len(lead) > 1 {
			e.fusedGroups.Add(1)
			e.fusedQueries.Add(int64(len(lead)))
		}
		for j, m := range lead {
			if errs[j] != nil {
				e.flight.Done(m.key, m.call, nil, errs[j])
				out[m.i] = EngineResult{Err: errs[j], PartialHit: out[m.i].PartialHit}
				continue
			}
			e.flight.Done(m.key, m.call, recs[j], nil)
			out[m.i].Records = recs[j]
		}
	}

	for _, m := range waiters {
		v, err := m.call.Wait()
		e.deduped.Add(1)
		out[m.i].Shared = true
		if err != nil {
			out[m.i].Err = err
			out[m.i].Records = nil
			continue
		}
		out[m.i].Records = v.([]Record)
	}
}

// TopK answers one query through the engine (cache + single-flight); it
// is BatchTopK for a singleton batch, callable from many goroutines.
func (e *Engine) TopK(q []float64, k int) EngineResult {
	return e.serveTopK(Query{Vector: q, K: k})
}

// TopKBuf is TopK with a caller-provided result buffer: a complete cache
// hit is rescored into dst (grown only when cap(dst) < k), making the
// warm path free of heap allocations; Records then aliases dst, which the
// caller owns and may reuse on the next call. A miss or partial hit falls
// through to the compute path and returns freshly allocated records, as
// TopK does.
func (e *Engine) TopKBuf(dst []Record, q []float64, k int) EngineResult {
	return e.serveTopKBuf(dst, Query{Vector: q, K: k})
}

func (e *Engine) serveTopK(q Query) EngineResult {
	return e.serveTopKBuf(nil, q)
}

func (e *Engine) serveTopKBuf(dst []Record, q Query) EngineResult {
	if err := e.ds.validateQuery(q.Vector, q.K); err != nil {
		return EngineResult{Err: err}
	}
	var partial bool
	if e.cache != nil {
		if entry, complete, ok := e.cache.lookupEntry(q.Vector, q.K, e.fenceVeto()); ok {
			if complete {
				if cap(dst) < q.K {
					dst = make([]Record, q.K)
				}
				dst = dst[:q.K]
				rescoreInto(dst, entry.Records[:q.K], q.Vector)
				return EngineResult{Records: dst, CacheHit: true}
			}
			partial = true // exact prefix exists; compute the full k fresh
		}
	}
	recs, shared, err := e.computeTopK(q)
	if err != nil {
		return EngineResult{Err: err}
	}
	return EngineResult{Records: recs, PartialHit: partial, Shared: shared}
}

// computeTopK runs the BRS computation for a (vector, k) pair exactly once
// among concurrent identical requests, filling the cache on the way out.
func (e *Engine) computeTopK(q Query) ([]Record, bool, error) {
	key := "t:" + engineint.Key(q.Vector, q.K)
	v, err, shared := e.flight.Do(key, func() (any, error) {
		e.computed.Add(1)
		if e.cache == nil {
			res, err := e.ds.TopK(q.Vector, q.K)
			if err != nil {
				return nil, err
			}
			return res.Records, nil
		}
		// Cache fill: the result and its GIR are computed under one read
		// lock (no mutation can slip between them), and one GIR build per
		// distinct result amortizes over every later hit. A GIR failure
		// only skips the insert.
		fill, err := e.ds.topKAndGIR(q.Vector, q.K, e.opts.CacheMethod)
		if err != nil {
			return nil, err
		}
		e.putIfCurrent(fill)
		return fill.recs, nil
	})
	if shared {
		e.deduped.Add(1)
	}
	if err != nil {
		return nil, shared, err
	}
	return v.([]Record), shared, nil
}

// putIfCurrent inserts a freshly built region unless some mutation later
// than its compute version has been published (a stale region must never
// enter the cache). The check and the insert happen under invMu — the same
// lock the drainer holds while popping a finished pass — so an entry can
// never slip in behind an invalidation pass that would have evicted it: if
// any mutation newer than ver exists, it is either still in pending (we
// reject) or fully applied (applied > ver, we reject).
func (e *Engine) putIfCurrent(fill *topKFill) {
	if e.cache == nil || fill.girErr != nil || fill.g == nil {
		return
	}
	// Staging (record copies, inscribed-box geometry) happens before the
	// lock: dataset writers publish events under invMu (via ds.mu), so the
	// critical section must stay at a few comparisons plus the shard
	// append.
	p := prepareCachePut(fill.g, fill.recs, fill.cand, fill.bounds, fill.candOK)
	if p == nil {
		return
	}
	e.invMu.Lock()
	defer e.invMu.Unlock()
	if e.applied.Load() > fill.version {
		return
	}
	if n := len(e.pending); n > 0 && e.pending[n-1].version > fill.version {
		return
	}
	e.cache.commitPut(p, fill.version)
}

// BatchGIR answers a batch of queries AND computes each result's immutable
// region concurrently, inserting every region into the cache (so a
// BatchGIR warms the cache for subsequent BatchTopK traffic). Results are
// byte-identical to sequential TopK + ComputeGIR pairs.
func (e *Engine) BatchGIR(queries []Query, m Method) []EngineResult {
	out := make([]EngineResult, len(queries))
	engineint.Fan(len(queries), e.opts.Workers, func(i int) {
		out[i] = e.serveGIR(queries[i], m)
	})
	return out
}

type girAnswer struct {
	records []Record
	gir     *GIR
}

func (e *Engine) serveGIR(q Query, m Method) EngineResult {
	if err := e.ds.validateQuery(q.Vector, q.K); err != nil {
		return EngineResult{Err: err}
	}
	key := fmt.Sprintf("g%d:", m) + engineint.Key(q.Vector, q.K)
	v, err, shared := e.flight.Do(key, func() (any, error) {
		e.computed.Add(1)
		fill, err := e.ds.topKAndGIR(q.Vector, q.K, m)
		if err != nil {
			return nil, err
		}
		if fill.girErr != nil {
			return nil, fill.girErr
		}
		e.putIfCurrent(fill)
		return girAnswer{records: fill.recs, gir: fill.g}, nil
	})
	if shared {
		e.deduped.Add(1)
	}
	if err != nil {
		return EngineResult{Err: err, Shared: shared}
	}
	a := v.(girAnswer)
	return EngineResult{Records: a.records, GIR: a.gir, Shared: shared}
}

// rescoreInto rebuilds cache-hit records into dst with scores for the
// incoming vector, using the same linear dot product BRS scores with — so
// a served result is bit-for-bit what a fresh TopK would have produced.
// It allocates nothing; dst must have len(recs).
func rescoreInto(dst []Record, recs []topk.Record, q []float64) {
	for i, r := range recs {
		dst[i] = Record{
			ID:    r.ID,
			Attrs: r.Point,
			Score: score.Linear{}.Score(r.Point, vec.Vector(q)),
		}
	}
}
