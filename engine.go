package gir

import (
	"fmt"
	"runtime"
	"slices"
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
// each query is first offered to the cache (a hit serves the exact
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
	pending      []maintain.Mutation
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
// GOMAXPROCS workers, a 1024-entry cache and FP (the paper's fastest
// method) for cache-fill GIR computation.
// The query-space domain is inherited from the Dataset (NewDatasetInSpace):
// fills, cache membership, invalidation predicates and repairs all run in
// that space — see Engine.Space.
type EngineOptions struct {
	// Workers bounds the goroutines a batch fans out over (≤ 0 =
	// GOMAXPROCS).
	Workers int
	// CacheCapacity is the cache size in entries (0 = 1024, < 0 disables
	// caching entirely — every query computes, useful as a baseline).
	CacheCapacity int
	// CacheShards is ignored: the cache is one lock-free view (see
	// Cache). The field remains so existing callers still compile.
	CacheShards int
	// CacheMethod is the GIR algorithm used to build regions on the miss
	// path. The zero value is FP; every method caches the same region.
	CacheMethod Method
	// RepairMode upgrades fine-grained invalidation to
	// repair-instead-of-evict: an affected entry is patched in place when
	// the mutation perturbs it in a closed-form way — an Insert that
	// displaces only its k-th record swaps the new record in and shrinks
	// the region by the new pairwise constraint; a Delete of one of its
	// result records promotes the best retained candidate — and evicted
	// only when no sound repair exists (internal/repair). Repaired entries
	// keep serving without a full top-k + GIR recompute on the next miss.
	RepairMode bool
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
		c = &Cache{inner: cacheint.New(capacity)}
	}
	e := &Engine{ds: ds, cache: c, opts: opts}
	e.planner.Repair = opts.RepairMode
	e.invCond = sync.NewCond(&e.invMu)
	if c != nil {
		// Subscribe before reading the version: events for any later
		// mutation are then guaranteed to reach the queue, and applied can
		// only be behind reality (conservative).
		e.unsub = ds.subscribe(e.enqueueMutation)
		e.applied.Store(ds.Version())
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
func (e *Engine) enqueueMutation(m maintain.Mutation) {
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
// order, a whole batch per pass: every pass pops all pending mutations and
// hands them to the internal/maintain planner, which scans the cache once
// and walks each entry through the batch's verdict chain. The batch stays
// in pending until its pass completes, so putIfCurrent can tell
// "reconciled" from "in flight"; applied then advances straight to the
// batch's maximum version.
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
		batch := slices.Clone(e.pending)
		n := len(batch)
		e.invMu.Unlock()

		out := e.planner.Drain(e.cache.inner, batch)
		// Event counts are credited from applied outcomes, so the
		// Repaired + Invalidated = Affected invariant is exact even when
		// an affected entry vanishes to concurrent LRU pressure between
		// the decision and its application.
		e.affected.Add(int64(out.Affected))
		e.repaired.Add(int64(out.Repaired))
		e.invalidated.Add(int64(out.Evicted))
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

// fenceVeto returns the lookup veto enforcing the generation fence for a
// call that observed the given dataset version, or nil on the fast path
// (cache fully reconciled with that version — the steady state, one
// atomic load). While mutations are pending, a candidate hit is suppressed
// unless one batched predicate over the whole pending window proves it
// unaffected (maintain.FenceAffected, which also raises the entry's
// cleared stamp over the unaffecting prefix so no (mutation, entry) pair
// is ever evaluated twice); the drainer will evict or repair the truly
// affected entries and restore the fast path.
func (e *Engine) fenceVeto(version int64) func(*cacheint.Entry) bool {
	if e.applied.Load() >= version {
		return nil
	}
	e.invMu.Lock()
	snap := slices.Clone(e.pending)
	e.invMu.Unlock()
	if len(snap) == 0 {
		// The drainer finished between the two loads; applied has caught up.
		return nil
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
	CacheProbes int64 // cache entries containment-tested by lookups (÷ lookups = entries probed per lookup)

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
		Version:          e.ds.Version(),
	}
	st.Reconciled = st.Version
	if e.cache != nil {
		st.CacheHits, st.PartialHits, st.Misses = e.cache.Stats()
		st.CacheProbes = e.cache.inner.Probes()
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

// fuseGroupSize caps how many misses of one call a fused traversal serves
// together. Misses are grouped by angular similarity of their weight
// vectors and each group shares one pass over the index pages; every
// member's result stays byte-identical to a solo TopK.
const fuseGroupSize = 8

// The life of a query: probe (cache lookup under the generation fence
// returned by fenceVeto) → on a miss, computeMisses dedupes the call's
// misses and groups them (topk.FuseGroups) → computeGroup claims each
// member's single-flight key, has Dataset.answerGroup compute the whole
// group under one snapshot pin, offers each region to the cache
// (putIfCurrent) and publishes each answer to its waiters (Group.Done). A
// solo TopK is a batch of one and its miss a group of one; there is no
// other way a result is computed.

// BatchTopK answers a batch of top-k queries concurrently. The i-th result
// corresponds to the i-th query; every result is byte-identical to what
// Dataset.TopK would return for that query.
//
// Cache lookups fan out across the worker pool; the batch's cache misses
// are deduplicated, grouped by angular similarity of their weight vectors,
// and each group is answered by ONE fused traversal that shares page
// decodes and block-scores leaves for the whole group (topk.BRSGroup) —
// byte identity per query is preserved by construction.
func (e *Engine) BatchTopK(queries []Query) []EngineResult {
	out := make([]EngineResult, len(queries))
	missed := make([]bool, len(queries))
	sn := e.ds.snap.Load()
	engineint.Fan(len(queries), e.opts.Workers, func(i int) {
		out[i], missed[i] = e.probe(nil, queries[i], sn)
	})
	e.computeMisses(queries, out, missed, sn.version, e.opts.CacheMethod, false)
	return out
}

// TopK answers one query through the engine (cache + single-flight); it
// is BatchTopK for a singleton batch, callable from many goroutines.
func (e *Engine) TopK(q []float64, k int) EngineResult {
	return e.TopKBuf(nil, q, k)
}

// TopKBuf is TopK with a caller-provided result buffer: a complete cache
// hit is rescored into dst (grown only when cap(dst) < k), making the
// warm path free of heap allocations; Records then aliases dst, which the
// caller owns and may reuse on the next call. A miss or partial hit falls
// through to the compute path and returns freshly allocated records, as
// TopK does.
func (e *Engine) TopKBuf(dst []Record, q []float64, k int) EngineResult {
	sn := e.ds.snap.Load()
	res, missed := e.probe(dst, Query{Vector: q, K: k}, sn)
	if !missed {
		return res
	}
	out := []EngineResult{res}
	e.computeMisses([]Query{{Vector: q, K: k}}, out, []bool{true}, sn.version, e.opts.CacheMethod, false)
	return out[0]
}

// probe validates one query against the snapshot its call observed on
// entry and offers it to the cache under the generation fence. missed
// reports that the query is valid and still needs computing (res then
// carries only the PartialHit flag); otherwise res is final: the
// validation error, or a complete hit rescored into dst.
func (e *Engine) probe(dst []Record, q Query, sn *treeSnap) (res EngineResult, missed bool) {
	if err := sn.validate(q.Vector, q.K); err != nil {
		return EngineResult{Err: err}, false
	}
	if e.cache == nil {
		return EngineResult{}, true
	}
	entry, complete, ok := e.cache.lookupEntry(q.Vector, q.K, e.fenceVeto(sn.version))
	if !ok {
		return EngineResult{}, true
	}
	if !complete {
		return EngineResult{PartialHit: true}, true // exact prefix exists; compute the full k fresh
	}
	if cap(dst) < q.K {
		dst = make([]Record, q.K)
	}
	dst = dst[:q.K]
	rescoreInto(dst, entry.Records[:q.K], q.Vector)
	return EngineResult{Records: dst, CacheHit: true}, false
}

// member is one distinct missed query of a call: its position in the
// call's queries/out, its single-flight key and, once computeGroup has
// claimed that key, the call it leads or follows.
type member struct {
	i      int
	key    string
	call   *engineint.Call
	leader bool
}

// computeMisses answers the queries of one call that missed[i] marks, into
// out. The first query with a given (vector, k) owns the computation;
// repeats become followers and copy its answer, the same sharing
// single-flight gives concurrent callers. The owners are partitioned into
// angular-similarity groups and each group computed by computeGroup.
//
// version is the dataset version the call observed on entry. It goes into
// every single-flight key, so a caller only ever shares a computation
// whose leader observed the same version — and pinned its snapshot after
// that: a follower can never inherit a result older than what it had
// already seen. m is the region method; wantGIR makes the region part of
// the answer (BatchGIR) instead of only a cache fill.
func (e *Engine) computeMisses(queries []Query, out []EngineResult, missed []bool, version int64, m Method, wantGIR bool) {
	byKey := make(map[string]int, len(queries))
	var owners []member
	var vecs []vec.Vector
	var followers map[int][]int
	for i, q := range queries {
		if !missed[i] {
			continue
		}
		key := engineint.Key(q.Vector, q.K)
		if o, ok := byKey[key]; ok {
			if followers == nil {
				followers = make(map[int][]int)
			}
			followers[o] = append(followers[o], i)
			continue
		}
		byKey[key] = len(owners)
		owners = append(owners, member{i: i, key: key})
		vecs = append(vecs, vec.Vector(q.Vector))
	}
	if len(owners) == 0 {
		return
	}
	prefix := fmt.Sprintf("t@%d:", version)
	if wantGIR {
		prefix = fmt.Sprintf("g%d@%d:", m, version)
	}
	for j := range owners {
		owners[j].key = prefix + owners[j].key
	}

	groups := topk.FuseGroups(vecs, fuseGroupSize)
	engineint.Fan(len(groups), e.opts.Workers, func(gi int) {
		e.computeGroup(queries, out, owners, groups[gi], m, wantGIR)
	})

	for o, fs := range followers {
		src := out[owners[o].i]
		for _, i := range fs {
			e.deduped.Add(1)
			out[i].Records, out[i].GIR, out[i].Err = src.Records, src.GIR, src.Err
			out[i].Shared = true
		}
	}
}

// computeGroup is the one claim → compute → put → publish sequence, for
// the members owners[g], g in group. It claims each member's single-flight
// key, answers the claimed subset with one fused traversal under one
// snapshot pin (Dataset.answerGroup), offers each region to the cache and
// publishes per-member results, then adopts results for members some
// other caller was already computing. Claiming everything up front keeps
// the engine's dedupe guarantee — a fused member and a concurrent solo
// TopK for the same key still compute once — and waiting only AFTER our
// own subset is published makes overlapping groups deadlock-free (a
// leader never blocks before releasing its claims).
func (e *Engine) computeGroup(queries []Query, out []EngineResult, owners []member, group []int, m Method, wantGIR bool) {
	qs := make([]vec.Vector, 0, len(group))
	ks := make([]int, 0, len(group))
	for _, g := range group {
		mb := &owners[g]
		if mb.call, mb.leader = e.flight.Claim(mb.key); mb.leader {
			qs, ks = append(qs, queries[mb.i].Vector), append(ks, queries[mb.i].K)
		}
	}

	if len(qs) > 0 {
		e.computed.Add(int64(len(qs)))
		// One GIR build per distinct result amortizes over every later hit;
		// without a cache nobody would read it.
		answers, stats := e.ds.answerGroup(qs, ks, wantGIR || e.cache != nil, m)
		e.sharedReads.Add(stats.SharedReads)
		if len(qs) > 1 {
			e.fusedGroups.Add(1)
			e.fusedQueries.Add(int64(len(qs)))
		}
		next := 0
		for _, g := range group {
			mb := &owners[g]
			if !mb.leader {
				continue
			}
			a := &answers[next]
			next++
			err := a.err
			if err == nil && wantGIR {
				err = a.girErr // for a fill, a GIR failure only skips the insert
			}
			if err == nil {
				e.putIfCurrent(a)
			}
			e.flight.Done(mb.key, mb.call, a, err)
			out[mb.i].set(a, err, wantGIR)
		}
	}

	for _, g := range group {
		mb := &owners[g]
		if mb.leader {
			continue
		}
		v, err := mb.call.Wait()
		e.deduped.Add(1)
		out[mb.i].Shared = true
		a, _ := v.(*groupAnswer)
		out[mb.i].set(a, err, wantGIR)
	}
}

// set fills in a computed answer, or its error; the PartialHit and Shared
// flags are the caller's.
func (r *EngineResult) set(a *groupAnswer, err error, wantGIR bool) {
	if r.Err = err; err != nil {
		return
	}
	r.Records = a.recs
	if wantGIR {
		r.GIR = a.g
	}
}

// putIfCurrent inserts a freshly built region unless some mutation later
// than its compute version has been published (a stale region must never
// enter the cache). The check and the insert happen under invMu — the same
// lock the drainer holds while popping a finished pass — so an entry can
// never slip in behind an invalidation pass that would have evicted it: if
// any mutation newer than ver exists, it is either still in pending (we
// reject) or fully applied (applied > ver, we reject).
func (e *Engine) putIfCurrent(fill *groupAnswer) {
	if e.cache == nil || fill.girErr != nil || fill.g == nil {
		return
	}
	// Staging (record copies, inscribed-box geometry) happens before the
	// lock: dataset writers publish events under invMu (via ds.mu), so the
	// critical section must stay at a few comparisons plus the view's
	// copy-and-publish.
	p := prepareCachePut(fill.g, fill.recs, fill.cand, fill.bounds, fill.candOK)
	if p == nil {
		return
	}
	e.invMu.Lock()
	defer e.invMu.Unlock()
	if e.applied.Load() > fill.version {
		return
	}
	if n := len(e.pending); n > 0 && e.pending[n-1].Version > fill.version {
		return
	}
	e.cache.commitPut(p, fill.version)
}

// BatchGIR answers a batch of queries AND computes each result's immutable
// region concurrently, inserting every region into the cache (so a
// BatchGIR warms the cache for subsequent BatchTopK traffic). Results are
// byte-identical to sequential TopK + ComputeGIR pairs. It takes the miss
// path without a probe — a cache entry holds the region it was built
// with, not one per method — so with caching disabled it is the plain
// concurrent TopK + ComputeGIR fan-out.
func (e *Engine) BatchGIR(queries []Query, m Method) []EngineResult {
	out := make([]EngineResult, len(queries))
	missed := make([]bool, len(queries))
	sn := e.ds.snap.Load()
	for i, q := range queries {
		out[i].Err = sn.validate(q.Vector, q.K)
		missed[i] = out[i].Err == nil
	}
	e.computeMisses(queries, out, missed, sn.version, m, true)
	return out
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
