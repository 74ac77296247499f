// Package cache implements GIR-based top-k result caching, one of the
// three applications motivating the paper (Introduction): cached results
// are keyed by their GIR, and a new query whose vector falls inside a
// cached region is answered without touching the index.
//
// Semantics follow the paper:
//   - same k: the cached result is returned as-is;
//   - smaller k: the prefix is exact (the GIR preserves the full order);
//   - larger k: the cached records are an exact prefix that can be
//     reported immediately while the remainder is computed [31].
//
// # Concurrency
//
// The cache is sharded for contention-free concurrent serving. Entries are
// placed in the shard selected by hashing the region's original query
// vector; a lookup hashes its own vector the same way and scans that home
// shard first under a read lock, so the hot serving workload — users
// re-issuing popular queries — touches exactly one shard and lookups for
// different queries proceed fully in parallel. Only if the home shard has
// no containing region are the remaining shards probed (still read-locked,
// never exclusively), which preserves the original semantics: a query
// inside ANY cached GIR hits, wherever that region's entry lives.
//
// Recency is tracked with a global atomic clock: a hit stamps the entry by
// a single atomic store, without upgrading to a write lock. Eviction
// (write-locked, on Put only) removes the globally least-recently-stamped
// entry, giving approximate LRU across shards. Hit/partial/miss counters
// are atomic, so Lookup on the hit path acquires no exclusive lock at all.
package cache

import (
	"hash/maphash"
	"math"
	"sync"
	"sync/atomic"

	"github.com/girlib/gir/internal/gir"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
	"github.com/girlib/gir/internal/viz"
)

// DefaultShards is the shard count used by New. Sixteen read-write locks
// are plenty to spread lookups for tens of hardware threads while keeping
// the cross-shard probe on a miss cheap.
const DefaultShards = 16

// MaxRetained caps the repair state (candidates + subtree bounds) stored
// per entry. A fill whose retained state exceeds the cap is cached without
// it (candComplete = false): the entry still serves and still supports
// insert repair, but a delete of one of its result records evicts instead
// of promoting — promotion is only sound when the candidate set provably
// covers every record the fill did not report.
const MaxRetained = 2048

// Entry is one cached result with its immutable region.
type Entry struct {
	Region  *gir.Region
	Records []topk.Record // the cached top-k, in score order
	K       int

	// InnerLo/InnerHi is an axis-parallel box inscribed in the region (its
	// MAH), computed once at Put time. Invalidation uses it as a closed-form
	// filter: a mutation whose score margin is positive anywhere in the box
	// is positive in the region, with no LP solve.
	InnerLo, InnerHi vec.Vector

	// Repair state (see internal/repair). Cand is the retained non-result
	// candidate set: the fill's T, maintained since by absorbing every
	// later unaffecting mutation. Bounds holds the top corners of R-tree
	// subtrees the fill never expanded; together with Records and Cand they
	// cover the whole dataset, which is what makes delete-repair promotion
	// sound. Both are owned by the single maintenance goroutine (the
	// Engine's drainer, or the caller of the Cache's repair methods) —
	// lookups never touch them — so they need no locking beyond the
	// publish via the shard lock.
	Cand         []topk.Record
	Bounds       []vec.Vector
	candComplete bool
	absorbed     int64 // mutations ≤ this version are folded into Cand

	lastUse atomic.Int64
	cleared atomic.Int64 // mutations ≤ this version are known not to affect the entry
}

// ClearedThrough returns the highest dataset version v such that every
// mutation with version ≤ v is known not to affect this entry (starting at
// the entry's compute version). The Engine's fence and drainer use it to
// evaluate each (mutation, entry) pair at most once.
func (e *Entry) ClearedThrough() int64 { return e.cleared.Load() }

// RaiseCleared monotonically raises ClearedThrough to v. Callers must only
// raise contiguously: v is safe once every mutation in (current, v] has
// been checked against the entry.
func (e *Entry) RaiseCleared(v int64) {
	for {
		cur := e.cleared.Load()
		if cur >= v || e.cleared.CompareAndSwap(cur, v) {
			return
		}
	}
}

// CandComplete reports whether Records ∪ Cand ∪ Bounds provably covers the
// dataset (as of AbsorbedThrough) — the precondition for delete repair.
func (e *Entry) CandComplete() bool { return e.candComplete }

// AbsorbedThrough returns the version through which unaffecting mutations
// have been folded into the candidate set. Maintenance-goroutine only.
func (e *Entry) AbsorbedThrough() int64 { return e.absorbed }

// RaiseStamps raises both maintenance stamps (cleared and absorbed) to v —
// the batch planner's single per-entry stamp raise: individual mutations of
// a batch are absorbed without advancing the stamps, then one call here
// marks the whole batch reconciled. Maintenance-goroutine only (the cleared
// raise is atomic and safe against concurrent fence raises; the absorbed
// raise is not, exactly like Absorb*).
func (e *Entry) RaiseStamps(v int64) {
	e.RaiseCleared(v)
	if e.absorbed < v {
		e.absorbed = v
	}
}

// AbsorbInsert folds an unaffecting insert (version v) into the candidate
// set: the new record is a non-result candidate of this entry from v on.
// Maintenance-goroutine only.
func (e *Entry) AbsorbInsert(v int64, rec topk.Record) {
	if e.candComplete {
		if len(e.Cand) >= MaxRetained {
			e.candComplete = false
			e.Cand, e.Bounds = nil, nil
		} else {
			e.Cand = append(e.Cand, rec)
		}
	}
	e.absorbed = v
}

// AbsorbDelete folds an unaffecting delete (version v) into the candidate
// set, dropping the record if it was a candidate. Maintenance-goroutine
// only.
func (e *Entry) AbsorbDelete(v int64, id int64) {
	for i, c := range e.Cand {
		if c.ID == id {
			e.Cand = append(e.Cand[:i], e.Cand[i+1:]...)
			break
		}
	}
	e.absorbed = v
}

// shard is one lock domain of the cache. Entries are append-ordered;
// region containment is a linear scan (entries are few — the region test,
// not the scan, dominates).
type shard struct {
	mu      sync.RWMutex
	entries []*Entry
}

// Cache holds up to a fixed number of entries across its shards, with
// approximate global LRU eviction. Safe for concurrent use.
type Cache struct {
	shards   []shard
	capacity int
	seed     maphash.Seed

	clock atomic.Int64 // global recency clock
	size  atomic.Int64 // total entries across shards

	hits, misses, partial atomic.Int64
}

// New returns a cache holding at most capacity entries (≥ 1), with
// DefaultShards shards.
func New(capacity int) *Cache { return NewSharded(capacity, DefaultShards) }

// NewSharded returns a cache with an explicit shard count. Shard counts
// above the capacity are clamped (a shard per entry is the useful
// maximum); counts below 1 fall back to 1.
func NewSharded(capacity, shards int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	if shards < 1 {
		shards = 1
	}
	if shards > capacity {
		shards = capacity
	}
	return &Cache{
		shards:   make([]shard, shards),
		capacity: capacity,
		seed:     maphash.MakeSeed(),
	}
}

// shardFor hashes a query vector to its home shard.
func (c *Cache) shardFor(q vec.Vector) *shard {
	if len(c.shards) == 1 {
		return &c.shards[0]
	}
	var h maphash.Hash
	h.SetSeed(c.seed)
	var buf [8]byte
	for _, x := range q {
		bits := math.Float64bits(x)
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return &c.shards[h.Sum64()%uint64(len(c.shards))]
}

// Lookup finds a cached entry whose GIR contains q, preferring one that
// covers the requested k (several entries may contain q — e.g. the same
// popular query cached at different k). The boolean reports a usable hit:
// exact when k ≤ entry.K (use Records[:k]), partial otherwise (an exact
// prefix of the desired result; the caller computes the rest — without
// the preference, a small-K entry would shadow a covering one forever and
// force that recomputation on every repeat). Regions stored by Put are
// always order-sensitive, so a hit is always sound for ordered serving.
func (c *Cache) Lookup(q vec.Vector, k int) (*Entry, bool) {
	return c.LookupVeto(q, k, nil)
}

// LookupVeto is Lookup with a per-entry veto: an entry for which veto
// returns true is skipped as if it were not cached (and never counted as a
// hit). The Engine uses this as its generation fence — while mutation
// events are still draining, a hit is only served after the candidate
// entry is proven unaffected by every pending mutation. The veto may be
// expensive (LP solves); it runs against a snapshot of the shard WITHOUT
// the shard lock held, so concurrent Puts and evictions never stall
// behind it. That is sound because entries are immutable once published
// and the caller takes its fence snapshot before the scan: an entry
// evicted mid-check is one the veto itself rejects, or one whose mutation
// the query legitimately raced.
func (c *Cache) LookupVeto(q vec.Vector, k int, veto func(*Entry) bool) (*Entry, bool) {
	home := c.shardFor(q)
	best := c.scan(home, q, k, veto)
	if best == nil || best.K < k {
		for i := range c.shards {
			s := &c.shards[i]
			if s == home {
				continue
			}
			if e := c.scan(s, q, k, veto); e != nil && (best == nil || e.K > best.K) {
				best = e
				if best.K >= k {
					break
				}
			}
		}
	}
	if best != nil {
		return best, c.recordHit(best, k)
	}
	c.misses.Add(1)
	return nil, false
}

// scan searches one shard: the first entry covering k wins; otherwise the
// containing entry with the largest K (the longest exact prefix) is
// returned. Vetoed entries are invisible. Without a veto the walk happens
// under the read lock (containment tests are a few dot products); with one
// the entries are snapshotted first so the potentially-expensive veto
// never runs with a cache lock held.
func (c *Cache) scan(s *shard, q vec.Vector, k int, veto func(*Entry) bool) *Entry {
	if veto != nil {
		s.mu.RLock()
		snap := append([]*Entry(nil), s.entries...)
		s.mu.RUnlock()
		return bestContaining(snap, q, k, veto)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return bestContaining(s.entries, q, k, nil)
}

// bestContaining returns the first entry containing q that covers k, else
// the containing entry with the largest K.
func bestContaining(entries []*Entry, q vec.Vector, k int, veto func(*Entry) bool) *Entry {
	var best *Entry
	for _, e := range entries {
		if len(q) == e.Region.Dim && e.Region.Contains(q, 0) && (veto == nil || !veto(e)) {
			if e.K >= k {
				return e
			}
			if best == nil || e.K > best.K {
				best = e
			}
		}
	}
	return best
}

// recordHit stamps recency and bumps the hit counters; always true.
func (c *Cache) recordHit(e *Entry, k int) bool {
	e.lastUse.Store(c.clock.Add(1))
	if k <= e.K {
		c.hits.Add(1)
	} else {
		c.partial.Add(1)
	}
	return true
}

// Put stores a result and its order-sensitive GIR in the region query's
// home shard, evicting the approximately least recently used entry
// (cache-wide) if the cache is full. Order-insensitive regions are
// rejected: serving a cached *ordered* list from them would be unsound.
// Entries stored through Put carry no repair state (delete repair evicts).
func (c *Cache) Put(reg *gir.Region, records []topk.Record) bool {
	if reg == nil || !reg.OrderSensitive {
		return false
	}
	lo, hi := viz.MAH(reg, reg.Query)
	return c.PutWithBox(reg, records, lo, hi, nil, nil, false, 0)
}

// PutWithBox is Put with the inscribed box, the retained repair state
// (candidate set + unexpanded-subtree bounds; candComplete asserts they
// cover the dataset at the compute version) and the entry's compute
// version (seeding ClearedThrough) supplied by the caller. The Engine uses
// it to do the box geometry outside its fill lock, so dataset writers —
// who publish events under that lock — are never stalled behind it, and to
// restore persisted entries (oldest first: insertion order is recency).
func (c *Cache) PutWithBox(reg *gir.Region, records []topk.Record, innerLo, innerHi vec.Vector, cand []topk.Record, bounds []vec.Vector, candComplete bool, clearedThrough int64) bool {
	if reg == nil || !reg.OrderSensitive {
		return false
	}
	// The candidate set is mutated in place by later absorption
	// (AbsorbInsert/AbsorbDelete), so the entry must own its backing array
	// — the caller's slice may alias a TopKResult (Candidates) or be Put
	// into several caches. Bounds are never mutated and can be shared.
	e := &Entry{
		Region: reg, Records: records, K: len(records),
		InnerLo: innerLo, InnerHi: innerHi,
		Cand: append([]topk.Record(nil), cand...), Bounds: bounds, candComplete: candComplete,
		absorbed: clearedThrough,
	}
	e.cleared.Store(clearedThrough)
	c.insert(e)
	return true
}

// insert publishes a fresh entry and enforces capacity.
func (c *Cache) insert(e *Entry) {
	e.lastUse.Store(c.clock.Add(1))
	s := c.shardFor(e.Region.Query)
	s.mu.Lock()
	s.entries = append(s.entries, e)
	s.mu.Unlock()
	c.size.Add(1)
	for c.size.Load() > int64(c.capacity) {
		if !c.evictOldest() {
			break // cache drained by concurrent evictions
		}
	}
}

// evictOldest removes the entry with the globally smallest recency stamp.
// It reports whether an entry was removed (and size decremented).
func (c *Cache) evictOldest() bool {
	var victim *Entry
	var victimShard *shard
	best := int64(math.MaxInt64)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		for _, e := range s.entries {
			if u := e.lastUse.Load(); u < best {
				best, victim, victimShard = u, e, s
			}
		}
		s.mu.RUnlock()
	}
	if victim == nil {
		return false
	}
	victimShard.mu.Lock()
	defer victimShard.mu.Unlock()
	for i, e := range victimShard.entries {
		if e == victim {
			n := len(victimShard.entries)
			victimShard.entries[i] = victimShard.entries[n-1]
			victimShard.entries[n-1] = nil
			victimShard.entries = victimShard.entries[:n-1]
			c.size.Add(-1)
			return true
		}
	}
	// A concurrent Put already evicted it; count that as progress.
	return true
}

// RepairedEntry builds the replacement entry a successful repair swaps in
// for old: the patched region/result/candidates, a freshly inscribed box,
// the old entry's unexpanded-subtree bounds and completeness flag, and
// cleared/absorbed stamps at the repairing mutation's version (the repaired
// entry is current as of that mutation, so the fence serves it
// immediately). Recency carries over when the swap happens (MaintainBatch).
func RepairedEntry(old *Entry, reg *gir.Region, records, cand []topk.Record, innerLo, innerHi vec.Vector, version int64) *Entry {
	e := &Entry{
		Region: reg, Records: records, K: len(records),
		InnerLo: innerLo, InnerHi: innerHi,
		Cand: cand, Bounds: old.Bounds, candComplete: old.candComplete,
		absorbed: version,
	}
	e.cleared.Store(version)
	return e
}

// BatchDecision is a MaintainBatch callback's verdict for one entry after
// walking a whole ordered mutation batch: keep (zero value), evict, or
// swap in the final repaired replacement. Affected and Repaired carry the
// per-(mutation, entry) event counts of the entry's verdict chain — an
// entry repaired twice and then evicted reports Affected 3, Repaired 2,
// Evict true — and are credited to the pass outcome only if the verdict
// actually applies (the entry was still present when the shard lock was
// retaken), which keeps Affected == Repaired + Evicted exact even under
// concurrent LRU pressure.
type BatchDecision struct {
	Evict    bool
	Replace  *Entry
	Affected int
	Repaired int
}

// BatchOutcome sums what one MaintainBatch pass actually applied.
type BatchOutcome struct {
	Entries  int // entries the pass scanned (exactly one scan per pass)
	Affected int // (mutation, entry) affect events credited
	Repaired int // in-place patches credited (≥ entries replaced: a chain may repair several times)
	Evicted  int // entries removed
}

// MaintainBatch runs one maintenance pass over the whole cache for an
// entire batch of pending mutations: decide is evaluated once per entry on
// a snapshot of each shard WITHOUT any cache lock held (it may solve LPs
// for every mutation of the batch), then evictions and replacements are
// applied under the shard lock by identity — entries inserted or evicted
// concurrently are simply not considered; the Engine's generation fence
// covers that window. However long the batch,
// the cache is scanned once and each shard lock is taken at most twice
// (snapshot + apply). A replacement inherits the old entry's recency
// stamp, so a repair never perturbs LRU order.
//
// Lookups may keep serving a just-replaced old entry they snapshotted
// before the swap; that is the same race as serving a just-evicted entry,
// and the same fence veto suppresses it while the triggering mutations are
// pending.
func (c *Cache) MaintainBatch(decide func(*Entry) BatchDecision) BatchOutcome {
	var out BatchOutcome
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		snap := append([]*Entry(nil), s.entries...)
		s.mu.RUnlock()
		out.Entries += len(snap)
		type verdict struct {
			old *Entry
			d   BatchDecision
		}
		var verdicts []verdict
		for _, e := range snap {
			if d := decide(e); d.Evict || d.Replace != nil {
				verdicts = append(verdicts, verdict{e, d})
			}
		}
		if len(verdicts) == 0 {
			continue
		}
		s.mu.Lock()
		for _, v := range verdicts {
			for j, e := range s.entries {
				if e != v.old {
					continue
				}
				if v.d.Evict {
					n := len(s.entries)
					s.entries[j] = s.entries[n-1]
					s.entries[n-1] = nil
					s.entries = s.entries[:n-1]
					c.size.Add(-1)
					out.Evicted++
				} else {
					v.d.Replace.lastUse.Store(v.old.lastUse.Load())
					s.entries[j] = v.d.Replace
				}
				out.Affected += v.d.Affected
				out.Repaired += v.d.Repaired
				break
			}
		}
		s.mu.Unlock()
	}
	return out
}

// Entries returns a point-in-time snapshot of every cached entry (tests,
// diagnostics, and persistence).
func (c *Cache) Entries() []*Entry {
	var out []*Entry
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		out = append(out, s.entries...)
		s.mu.RUnlock()
	}
	return out
}

// Snapshot is the part of one entry's state warm-cache persistence
// serializes: what no traversal can rebuild. The repair state (Cand, Bounds,
// candComplete) is left out — the loader reruns the fill's traversal and
// hands PutWithBox a fresh one. Version is the entry's maintenance stamp
// (cleared and absorbed agree whenever the maintenance goroutine is
// quiescent, which is when snapshots are taken).
type Snapshot struct {
	Region           *gir.Region
	Records          []topk.Record
	InnerLo, InnerHi vec.Vector
	Version          int64
}

// LastUse returns the entry's recency stamp on the cache's global clock
// (larger = more recently used); persistence sorts by it so a restored
// cache keeps the saved LRU order.
func (e *Entry) LastUse() int64 { return e.lastUse.Load() }

// Snapshot exports the entry's persisted state. Call it only while
// maintenance is quiescent (the stamp is maintenance-goroutine-owned). It
// copies nothing: every field it reads is immutable once published — the
// candidate slice, the one piece later absorbs mutate in place, is not part
// of it.
func (e *Entry) Snapshot() Snapshot {
	return Snapshot{
		Region:  e.Region,
		Records: e.Records,
		InnerLo: e.InnerLo, InnerHi: e.InnerHi,
		Version: e.ClearedThrough(),
	}
}

// Clear drops every entry (hit/miss counters are preserved) and reports
// how many were dropped. Used when the dataset behind the cached regions
// has mutated and per-entry invalidation is not wanted: a GIR only
// describes the dataset state it was computed against.
func (c *Cache) Clear() int {
	removed := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		removed += len(s.entries)
		c.size.Add(int64(-len(s.entries)))
		s.entries = nil
		s.mu.Unlock()
	}
	return removed
}

// Stats returns (hits, partial hits, misses).
func (c *Cache) Stats() (hits, partial, misses int64) {
	return c.hits.Load(), c.partial.Load(), c.misses.Load()
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	var n int
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.entries)
		s.mu.RUnlock()
	}
	return n
}

// Shards returns the shard count (exposed for benchmarks and reports).
func (c *Cache) Shards() int { return len(c.shards) }

// Capacity returns the maximum entry count the cache admits before
// evicting (exposed so serving tiers can report per-partition fill).
func (c *Cache) Capacity() int { return c.capacity }
