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
// The entries are one immutable view: a slice published through an atomic
// pointer and never written after. A lookup loads it once and scans it
// without a lock, so lookups never wait for each other or for a writer.
// Writers — Put and the eviction it triggers, MaintainBatch's apply, Clear
// and the reorder below — serialize on one mutex and publish a fresh copy;
// fills are milliseconds apart, so copying a few hundred pointers per write
// is noise. A lookup that loaded the previous view may serve an entry a
// writer has just evicted or replaced: entries are immutable once
// published, and the Engine's generation fence covers that window.
//
// A lookup tests the query against the domain once per distinct domain in
// the view, then each entry's cone on its flat row-major normals, stopping
// at the first violated constraint. Entries are ordered by the hits they
// serve: each counts its complete hits, and once the clock (below) has
// advanced 64 ticks per entry since the last reorder, the hit that crosses
// the threshold publishes the view stable-sorted by count, most first, and
// halves every count so stale popularity fades — the frequency-count rule
// for self-organizing lists. That hit only tries the writer mutex; if a
// writer holds it, the next hit retries.
//
// Recency is a global atomic clock that ticks once per served lookup and
// per put: a hit stamps its entry with the tick, and eviction removes the
// least recently stamped entry. The tick doubles as the hit counter (hits
// are the ticks that were neither partial hits nor puts), so a complete hit
// takes no lock and updates two shared counters: the clock and the probe
// count.
package cache

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/girlib/gir/internal/domain"
	"github.com/girlib/gir/internal/gir"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
	"github.com/girlib/gir/internal/viz"
)

// DefaultShards is the shard count NewSharded was once given by default.
// The cache is one lock-free view and ignores shard counts; the name stays
// for callers that still pass one.
const DefaultShards = 16

// MaxRetained caps the repair state (candidates + subtree bounds) stored
// per entry. A fill whose retained state exceeds the cap is cached without
// it (candComplete = false): the entry still serves and still supports
// insert repair, but a delete of one of its result records evicts instead
// of promoting — promotion is only sound when the candidate set provably
// covers every record the fill did not report.
const MaxRetained = 2048

// reorderEvery is how many clock ticks per entry pass between two
// reorders of the view.
const reorderEvery = 64

// Entry is one cached result with its immutable region.
type Entry struct {
	// The containment test's inputs, first so a probe reads them together:
	// the region's cone normals as one row-major slab of dim-wide rows, and
	// its domain (kind and dim identify it).
	normals []float64
	dim     int
	kind    domain.Kind
	space   domain.Domain

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
	// publication of the view.
	Cand         []topk.Record
	Bounds       []vec.Vector
	candComplete bool
	absorbed     int64 // mutations ≤ this version are folded into Cand

	lastUse atomic.Int64
	hits    atomic.Int64 // complete hits served, halved at every reorder
	rank    int64        // hits when the last reorder sorted; writer-only
	cleared atomic.Int64 // mutations ≤ this version are known not to affect the entry
}

// newEntry builds an entry for reg, flattening its normals for the probe.
func newEntry(reg *gir.Region, records []topk.Record, innerLo, innerHi vec.Vector) *Entry {
	normals := make([]float64, 0, len(reg.Constraints)*reg.Dim)
	for _, c := range reg.Constraints {
		normals = append(normals, c.Normal...)
	}
	space := reg.Space()
	return &Entry{
		normals: normals, dim: reg.Dim, kind: space.Kind(), space: space,
		Region: reg, Records: records, K: len(records),
		InnerLo: innerLo, InnerHi: innerHi,
	}
}

// coneContains reports whether q lies on the nonnegative side of every cone
// normal. The dot product accumulates in vec.Dot's order, so the verdict is
// Region.Contains's bit for bit; the caller has checked dim and domain.
//
// Rows are tested two at a time, as two independent sums: one sum at a
// time, the loop waits on its add chain, and its speed depended on where
// the linker placed it (see vec.DotColumns).
func (e *Entry) coneContains(q vec.Vector) bool {
	d := e.dim
	q = q[:d]
	row := e.normals
	for ; len(row) >= 2*d; row = row[2*d:] {
		a, b := row[:d], row[d:2*d]
		var s, t float64
		for i, x := range q {
			s += a[i] * x
			t += b[i] * x
		}
		if s < 0 || t < 0 {
			return false
		}
	}
	if len(row) > 0 {
		var s float64
		for i, x := range q {
			s += row[i] * x
		}
		if s < 0 {
			return false
		}
	}
	return true
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

// Cache holds up to a fixed number of entries in one lock-free view, with
// global LRU eviction. Safe for concurrent use.
type Cache struct {
	view     atomic.Pointer[[]*Entry] // the published entries; never written after publication
	mu       sync.Mutex               // serializes writers
	capacity int

	clock                         atomic.Int64 // one tick per served lookup and per put
	partial, puts, misses, probes atomic.Int64
	reorderedAt                   atomic.Int64 // clock at the last reorder
}

// New returns a cache holding at most capacity entries (≥ 1).
func New(capacity int) *Cache {
	c := &Cache{capacity: max(capacity, 1)}
	c.view.Store(new([]*Entry))
	return c
}

// NewSharded is New: the cache is one lock-free view, and the shard count
// is ignored.
func NewSharded(capacity, _ int) *Cache { return New(capacity) }

// load returns the published view. Callers must not write to it.
func (c *Cache) load() []*Entry { return *c.view.Load() }

// publish makes entries the view. Writers only, under mu.
func (c *Cache) publish(entries []*Entry) { c.view.Store(&entries) }

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
// expensive (LP solves); it runs on the view the lookup loaded, with no
// lock held, so concurrent Puts and evictions never stall behind it. That
// is sound because entries are immutable once published and the caller
// takes its fence snapshot before the scan: an entry evicted mid-check is
// one the veto itself rejects, or one whose mutation the query
// legitimately raced.
func (c *Cache) LookupVeto(q vec.Vector, k int, veto func(*Entry) bool) (*Entry, bool) {
	view := c.load()
	best, probes := bestContaining(view, q, k, veto)
	c.probes.Add(int64(probes))
	if best == nil {
		c.misses.Add(1)
		return nil, false
	}
	now := c.clock.Add(1)
	best.lastUse.Store(now)
	if k > best.K {
		c.partial.Add(1)
		return best, true
	}
	best.hits.Add(1)
	if now-c.reorderedAt.Load() > reorderEvery*int64(len(view)) {
		c.reorder()
	}
	return best, true
}

// bestContaining returns the first entry containing q that covers k, else
// the containing entry with the largest K, and how many entries it
// containment-tested. Vetoed entries are invisible.
func bestContaining(entries []*Entry, q vec.Vector, k int, veto func(*Entry) bool) (best *Entry, probes int) {
	kind, inside := domain.Kind(-1), false
	for _, e := range entries {
		if e.dim != len(q) {
			continue
		}
		if e.kind != kind { // every entry of one dim and kind shares the domain
			kind, inside = e.kind, e.space.Contains(q, 0)
		}
		if !inside {
			continue
		}
		probes++
		if !e.coneContains(q) || (veto != nil && veto(e)) {
			continue
		}
		if e.K >= k {
			return e, probes
		}
		if best == nil || e.K > best.K {
			best = e
		}
	}
	return best, probes
}

// reorder publishes the view stable-sorted by hits served, most first, and
// halves every count. It gives up if a writer holds the mutex; the next hit
// past the threshold retries. An already-ordered view is not copied.
func (c *Cache) reorder() {
	if !c.mu.TryLock() {
		return
	}
	defer c.mu.Unlock()
	view := c.load()
	for _, e := range view {
		e.rank = e.hits.Load()
		e.hits.Add(e.rank/2 - e.rank)
	}
	byHits := func(a, b *Entry) int { return cmp.Compare(b.rank, a.rank) }
	if !slices.IsSortedFunc(view, byHits) {
		fresh := slices.Clone(view)
		slices.SortStableFunc(fresh, byHits)
		c.publish(fresh)
	}
	c.reorderedAt.Store(c.clock.Load())
}

// Put stores a result and its order-sensitive GIR, evicting the least
// recently used entry if the cache is full. Order-insensitive regions are
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
	e := newEntry(reg, records, innerLo, innerHi)
	// The candidate set is mutated in place by later absorption
	// (AbsorbInsert/AbsorbDelete), so the entry must own its backing array
	// — the caller's slice may alias a TopKResult (Candidates) or be Put
	// into several caches. Bounds are never mutated and can be shared.
	e.Cand, e.Bounds, e.candComplete = append([]topk.Record(nil), cand...), bounds, candComplete
	e.absorbed = clearedThrough
	e.cleared.Store(clearedThrough)
	c.insert(e)
	return true
}

// insert publishes a fresh entry at the end of the view, evicting the least
// recently stamped entry when the cache is full.
func (c *Cache) insert(e *Entry) {
	e.lastUse.Store(c.clock.Add(1))
	c.puts.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	view := c.load()
	fresh := make([]*Entry, 0, min(len(view)+1, c.capacity))
	if len(view) < c.capacity {
		fresh = append(fresh, view...)
	} else {
		victim, oldest := 0, view[0].lastUse.Load()
		for i, v := range view {
			if u := v.lastUse.Load(); u < oldest {
				victim, oldest = i, u
			}
		}
		fresh = append(append(fresh, view[:victim]...), view[victim+1:]...)
	}
	c.publish(append(fresh, e))
}

// RepairedEntry builds the replacement entry a successful repair swaps in
// for old: the patched region/result/candidates, a freshly inscribed box,
// the old entry's unexpanded-subtree bounds and completeness flag, and
// cleared/absorbed stamps at the repairing mutation's version (the repaired
// entry is current as of that mutation, so the fence serves it
// immediately). Recency and hit count carry over when the swap happens
// (MaintainBatch).
func RepairedEntry(old *Entry, reg *gir.Region, records, cand []topk.Record, innerLo, innerHi vec.Vector, version int64) *Entry {
	e := newEntry(reg, records, innerLo, innerHi)
	e.Cand, e.Bounds, e.candComplete = cand, old.Bounds, old.candComplete
	e.absorbed = version
	e.cleared.Store(version)
	return e
}

// BatchDecision is a MaintainBatch callback's verdict for one entry after
// walking a whole ordered mutation batch: keep (zero value), evict, or
// swap in the final repaired replacement. Affected and Repaired carry the
// per-(mutation, entry) event counts of the entry's verdict chain — an
// entry repaired twice and then evicted reports Affected 3, Repaired 2,
// Evict true — and are credited to the pass outcome only if the verdict
// actually applies (the entry was still cached when the writer mutex was
// taken), which keeps Affected == Repaired + Evicted exact even under
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
// entire batch of pending mutations: decide is evaluated once per entry of
// the published view with no lock held (it may solve LPs for every
// mutation of the batch), then the evictions and replacements are applied
// by identity to the view current at that point, published as one fresh
// copy under the writer mutex. Entries inserted or evicted concurrently
// are simply not considered; the Engine's generation fence covers that
// window. However long the batch, the cache is scanned once and the mutex
// is taken at most once. A replacement inherits the old entry's recency
// stamp and hit count, so a repair never perturbs LRU or hit order.
//
// Lookups may keep serving a just-replaced old entry from the view they
// loaded before the swap; that is the same race as serving a just-evicted
// entry, and the same fence veto suppresses it while the triggering
// mutations are pending.
func (c *Cache) MaintainBatch(decide func(*Entry) BatchDecision) BatchOutcome {
	view := c.load()
	out := BatchOutcome{Entries: len(view)}
	var verdicts map[*Entry]BatchDecision
	for _, e := range view {
		if d := decide(e); d.Evict || d.Replace != nil {
			if verdicts == nil {
				verdicts = make(map[*Entry]BatchDecision)
			}
			verdicts[e] = d
		}
	}
	if verdicts == nil {
		return out
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	view = c.load()
	fresh := make([]*Entry, 0, len(view))
	for _, e := range view {
		d, ok := verdicts[e]
		if !ok {
			fresh = append(fresh, e)
			continue
		}
		if d.Evict {
			out.Evicted++
		} else {
			d.Replace.lastUse.Store(e.lastUse.Load())
			d.Replace.hits.Store(e.hits.Load())
			fresh = append(fresh, d.Replace)
		}
		out.Affected += d.Affected
		out.Repaired += d.Repaired
	}
	c.publish(fresh)
	return out
}

// Entries returns a point-in-time copy of the view (tests, diagnostics, and
// persistence).
func (c *Cache) Entries() []*Entry { return slices.Clone(c.load()) }

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
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.load())
	c.publish(nil)
	return n
}

// Stats returns (hits, partial hits, misses). Hits are the clock's ticks
// that were neither partial hits nor puts; those two are read first, and
// every tick precedes its partial or put count, so the difference is never
// negative.
func (c *Cache) Stats() (hits, partial, misses int64) {
	partial, puts := c.partial.Load(), c.puts.Load()
	return c.clock.Load() - partial - puts, partial, c.misses.Load()
}

// Probes returns how many entries lookups have containment-tested.
func (c *Cache) Probes() int64 { return c.probes.Load() }

// Len returns the number of cached entries.
func (c *Cache) Len() int { return len(c.load()) }

// Capacity returns the maximum entry count the cache admits before
// evicting (exposed so serving tiers can report per-partition fill).
func (c *Cache) Capacity() int { return c.capacity }
