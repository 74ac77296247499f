package gir

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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
//   - All Engine methods are safe to call concurrently; an Engine may be
//     shared by any number of goroutines.
//   - Mutations invalidate the cache FINE-GRAINED, and a write reconciles
//     the cache before it returns: every Insert/Delete hands its mutation
//     to the engine under the dataset's writer lock, before the new version
//     becomes visible, and the engine drains it into the cache on the spot
//     (internal/maintain). The region says which writes matter: a delete
//     only if it removes a cached result record, an insert only if it can
//     beat p_k somewhere in the region. An entry such a write can perturb
//     is evicted and refilled by the next miss in its region; every other
//     entry is kept as it is, and stays exact. Writers pay for that
//     analysis and readers never wait for it: a reader that pins version v
//     finds the cache reconciled through v, and is served a hit only while
//     the cache is at exactly v. A query racing a mutation may be served
//     from either side of it; once the mutation returns, later queries
//     never see results the mutation invalidated.
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

	// Maintenance state. applied is the dataset version the cache is
	// reconciled with: every entry is valid at applied. Once the engine is
	// built, applied is written only under both ds.mu and invMu, and a
	// write stores it before its drain publishes any entry, so a probe that
	// loads it after its lookup never serves an entry from a version ahead
	// of the probe's snapshot. invMu also guards unsub, and orders the drain
	// of each write (reconcile) against cache fills (putIfCurrent).
	invMu   sync.Mutex
	applied atomic.Int64
	unsub   func()

	deduped      atomic.Int64
	computed     atomic.Int64
	invalidated  atomic.Int64 // entries evicted by fine-grained invalidation
	refusedFills atomic.Int64 // fills putIfCurrent turned away: a write drained after their traversal

	fusedGroups  atomic.Int64 // fused traversals that served ≥ 2 queries
	fusedQueries atomic.Int64 // queries those traversals answered
	sharedReads  atomic.Int64 // page visits served from a group's decode cache
}

// EngineOptions tunes a new Engine. The zero value is ready to use:
// GOMAXPROCS workers, a 1024-entry cache and FP (the paper's fastest
// method) for cache-fill GIR computation.
// The query-space domain is inherited from the Dataset (NewDatasetInSpace):
// fills, cache membership and invalidation predicates all run in that
// space — see Engine.Space.
type EngineOptions struct {
	// Workers bounds the goroutines a batch fans out over (≤ 0 =
	// GOMAXPROCS).
	Workers int
	// CacheCapacity is the cache size in entries (0 = 1024, < 0 disables
	// caching entirely). Without a cache every query computes, but a miss
	// then costs only its traversal: no region is built, and the
	// traversal copies out only the records, not the state a build
	// resumes from.
	CacheCapacity int
	// CacheShards is ignored: the cache is one lock-free view (see
	// Cache). The field remains so existing callers still compile.
	CacheShards int
	// CacheMethod is ignored: a fill always builds its region with FP,
	// screening T and the heap in the traversal's tail
	// (topk.ScreenedGroup). Every method would cache the same region.
	//
	// Deprecated: an engine has one fill method; the field remains so
	// existing callers still compile.
	CacheMethod Method
	// RepairMode is ignored: the engine evicts every entry a write can
	// perturb, and never patches one in place.
	//
	// Deprecated: an engine has one maintenance policy; the field remains
	// so existing callers still compile.
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
	if c != nil {
		// Subscribe and read the starting version in one critical section
		// of the writer lock: a write between the two would be drained and
		// then have applied moved back behind it, letting a stale fill in.
		ds.mu.Lock()
		e.applied.Store(ds.Version())
		e.unsub = ds.subscribeLocked(e.reconcile)
		ds.mu.Unlock()
	}
	return e
}

// Close detaches the engine from the dataset's mutation feed. Call it when
// the engine is no longer needed; an engine must not serve queries after
// Close, and a write after it leaves the cache behind the dataset, which
// Engine.Checkpoint then refuses to save. Engines without a cache need no
// Close (it is a no-op).
func (e *Engine) Close() {
	e.invMu.Lock()
	unsub := e.unsub
	e.unsub = nil
	e.invMu.Unlock()
	if unsub != nil {
		// Outside invMu: unsubscribing takes the dataset's writer lock, and
		// a write holds that lock while reconcile takes invMu.
		unsub()
	}
}

// reconcile is the engine's dataset subscriber: it drains one mutation into
// the cache, a batch of one for the internal/maintain planner. It runs under
// the dataset's writer lock, before the mutation's version becomes visible,
// so the write pays for the drain and no reader can pin a version the cache
// is behind. The cache is then one version ahead of every published
// snapshot until the write publishes, so applied moves first and probe
// refuses the cache to a snapshot it is ahead of.
func (e *Engine) reconcile(m maintain.Mutation) {
	e.invMu.Lock()
	defer e.invMu.Unlock()
	e.applied.Store(m.Version)
	out := e.planner.Drain(e.cache.inner, []maintain.Mutation{m})
	e.invalidated.Add(int64(out.Evicted))
}

// Quiesce returns at once: every write has reconciled the cache before it
// returned, so there is nothing to wait for. It remains for callers that
// still call it.
func (e *Engine) Quiesce() {}

// Query is one query of a batch.
type Query struct {
	Vector []float64
	K      int
}

// EngineResult is the engine's answer to one query.
type EngineResult struct {
	// Records is the exact top-k, identical to Dataset.TopK's answer.
	Records []Record
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
	Affected    int64 // (mutation, entry) pairs a mutation could perturb; each evicts, so = Invalidated
	Repaired    int64 // always 0: no entry is patched in place (see EngineOptions.RepairMode)
	Invalidated int64 // cache entries evicted by fine-grained invalidation
	Fenced      int64 // always 0: no hit is vetoed, since a write reconciles the cache before it returns
	// CacheProbes counts the cache entries lookups looked at past the dim
	// and domain checks (÷ lookups = entries probed per lookup); each had
	// its ray box tested. CacheConeTests counts those whose box held the
	// query, so that their cone was tested: the box holds every query the
	// cone does, so it rejects no entry that contains the query.
	CacheProbes    int64
	CacheConeTests int64
	// PredicateEvals counts the affectedness predicates the write path's
	// drains ran, one per (mutation, entry) pair: a delete's scan of the
	// entry's records, or an insert's test on the entry's rays.
	PredicateEvals int64
	// RefusedFills counts the regions fills built that the cache turned
	// away, because a write drained between the fill's traversal and its
	// put: the cache had moved past the version the region describes.
	RefusedFills int64

	// Fused-batch economics: how many multi-member fused traversals ran,
	// how many queries they answered, and how many page visits were served
	// from a group's shared decode cache instead of the store. SharedPageReads
	// is exactly the reads fusion saved over per-query traversals.
	FusedGroups     int64
	FusedQueries    int64
	SharedPageReads int64

	// Version is the dataset mutation version visible when the stats were
	// read.
	Version int64
}

// Stats returns cumulative engine counters.
func (e *Engine) Stats() EngineStats {
	evicted := e.invalidated.Load()
	st := EngineStats{
		Deduped:         e.deduped.Load(),
		Computed:        e.computed.Load(),
		Affected:        evicted,
		Invalidated:     evicted,
		RefusedFills:    e.refusedFills.Load(),
		PredicateEvals:  e.planner.Predicates(),
		FusedGroups:     e.fusedGroups.Load(),
		FusedQueries:    e.fusedQueries.Load(),
		SharedPageReads: e.sharedReads.Load(),
		Version:         e.ds.Version(),
	}
	if e.cache != nil {
		st.CacheHits, st.PartialHits, st.Misses = e.cache.Stats()
		st.CacheProbes, st.CacheConeTests = e.cache.inner.Probes(), e.cache.inner.ConeTests()
	}
	return st
}

// Cache returns the engine's cache (nil when caching is disabled).
func (e *Engine) Cache() *Cache { return e.cache }

// Space returns the query-space domain the engine serves in, inherited
// from its Dataset at construction. Every region the engine computes,
// caches or persists is clipped to this space.
func (e *Engine) Space() Space { return e.ds.Space() }

// fuseGroupSize caps how many misses of one call a fused traversal serves
// together. Misses are grouped by angular similarity of their weight
// vectors and each group shares one pass over the index pages; every
// member's result stays byte-identical to a solo TopK.
const fuseGroupSize = 8

// The life of a query: probe (cache lookup) → on a miss, computeMisses
// dedupes the call's misses and groups them (topk.FuseGroups) →
// computeGroup claims each member's single-flight key, has
// Dataset.answerGroup compute the whole group under one snapshot pin,
// offers each region to the cache (putIfCurrent) and publishes each answer
// to its waiters (Group.Done). A solo TopK is a batch of one and its miss a
// group of one; there is no other way a result is computed.

// BatchTopK answers a batch of top-k queries concurrently. The i-th result
// corresponds to the i-th query; every result is byte-identical to what
// Dataset.TopK would return for that query.
//
// Cache lookups fan out across the worker pool; the batch's cache misses
// are deduplicated, grouped by angular similarity of their weight vectors,
// and each group is answered by ONE fused traversal that shares page
// decodes and block-scores leaves for the whole group (topk.ScreenedGroup,
// or topk.RecordsGroup on an uncached engine) — byte identity per query is
// preserved by construction.
func (e *Engine) BatchTopK(queries []Query) []EngineResult {
	out := make([]EngineResult, len(queries))
	missed := make([]bool, len(queries))
	sn := e.ds.snap.Load()
	engineint.Fan(len(queries), e.opts.Workers, func(i int) {
		out[i], missed[i] = e.probe(nil, queries[i], sn)
	})
	e.computeMisses(queries, out, missed, sn.version)
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
	e.computeMisses([]Query{{Vector: q, K: k}}, out, []bool{true}, sn.version)
	return out[0]
}

// probe validates one query against the snapshot its call observed on
// entry and offers it to the cache. missed reports that the query is valid
// and still needs computing (res then carries only the PartialHit flag);
// otherwise res is final: the validation error, or a complete hit rescored
// into dst.
func (e *Engine) probe(dst []Record, q Query, sn *treeSnap) (res EngineResult, missed bool) {
	if err := sn.validate(q.Vector, q.K); err != nil {
		return EngineResult{Err: err}, false
	}
	if e.cache == nil {
		return EngineResult{}, true
	}
	entry, complete, ok := e.cache.lookupEntry(q.Vector, q.K)
	if !ok || e.applied.Load() != sn.version {
		// A write drained the cache ahead of sn (reconcile): an entry may
		// already hold the answer at a version sn does not show.
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
// already seen.
func (e *Engine) computeMisses(queries []Query, out []EngineResult, missed []bool, version int64) {
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
	for j := range owners {
		owners[j].key = prefix + owners[j].key
	}

	groups := topk.FuseGroups(vecs, fuseGroupSize)
	engineint.Fan(len(groups), e.opts.Workers, func(gi int) {
		e.computeGroup(queries, out, owners, groups[gi])
	})

	for o, fs := range followers {
		src := out[owners[o].i]
		for _, i := range fs {
			e.deduped.Add(1)
			out[i].Records, out[i].Err = slices.Clone(src.Records), src.Err
			out[i].Shared = true
		}
	}
}

// computeGroup is the one claim → compute → put → publish sequence, for
// the members owners[g], g in group. It claims each member's single-flight
// key, answers the claimed subset with one fused traversal under one
// snapshot pin (Dataset.answerGroup), which builds regions only when
// there is a cache to offer them to, offers each region to the cache and
// publishes per-member results, then adopts results for members some
// other caller was already computing. Claiming everything up front keeps
// the engine's dedupe guarantee — a fused member and a concurrent solo
// TopK for the same key still compute once — and waiting only AFTER our
// own subset is published makes overlapping groups deadlock-free (a
// leader never blocks before releasing its claims).
func (e *Engine) computeGroup(queries []Query, out []EngineResult, owners []member, group []int) {
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
		// without a cache nobody would read it, so the traversal then
		// retains nothing a build resumes from either.
		answers, stats := e.ds.answerGroup(qs, ks, e.cache != nil)
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
			if a.err == nil {
				e.putIfCurrent(a) // a failed region build only skips the insert
			}
			e.flight.Done(mb.key, mb.call, a, a.err)
			out[mb.i].set(a, a.err, false)
		}
	}

	for _, g := range group {
		mb := &owners[g]
		if mb.leader {
			continue
		}
		v, err := mb.call.Wait()
		e.deduped.Add(1)
		a, _ := v.(*groupAnswer)
		out[mb.i].set(a, err, true)
	}
}

// set fills in a computed answer, or its error; the PartialHit flag is the
// caller's. A shared answer gets its own copy of the records, so no two
// results ever alias one slice (Attrs stay shared and read-only, as on a
// hit).
func (r *EngineResult) set(a *groupAnswer, err error, shared bool) {
	r.Shared = shared
	if r.Err = err; err != nil {
		return
	}
	r.Records = a.recs
	if shared {
		r.Records = slices.Clone(a.recs)
	}
}

// putIfCurrent inserts a freshly built region only if the cache is
// reconciled with exactly the version it was computed at: a later write has
// already drained, and its verdict on this region was never taken, so a
// stale region must never enter the cache, and counts as a refused fill.
// The check and the insert happen under invMu, the lock every drain holds,
// so no drain can run between them.
func (e *Engine) putIfCurrent(fill *groupAnswer) {
	if e.cache == nil || fill.girErr != nil || fill.g == nil {
		return
	}
	// The entry is built before the lock: dataset writers drain under
	// invMu, so the critical section must stay at one comparison plus the
	// view's copy-and-publish.
	ent := newCacheEntry(fill.g, fill.recs)
	if ent == nil {
		return
	}
	e.invMu.Lock()
	defer e.invMu.Unlock()
	if e.applied.Load() != fill.version {
		e.refusedFills.Add(1)
		return
	}
	e.cache.inner.Insert(ent)
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
