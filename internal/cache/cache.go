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
// Writers — Insert and the eviction it triggers, MaintainBatch's evictions,
// Clear and the reorder below — serialize on one mutex and publish a fresh
// copy; fills are milliseconds apart, so copying a few hundred pointers per
// write is noise. A lookup that loaded the previous view may serve an entry
// a writer has just evicted: entries are immutable once published, and the
// Engine drains each write into the cache before the write's version
// becomes visible, so such a lookup is one that raced the write and is
// served from the version before it.
//
// A lookup tests the query against the domain once per distinct domain in
// the view, then each entry's ray box (Entry), and only where the box holds
// the query, the entry's cone on its flat row-major normals, stopping at
// the first violated constraint. Entries are ordered by the hits they
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
// takes no lock and updates three shared counters: the clock, and the
// probe and cone-test counts, which share a cache line.
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
)

// DefaultShards is the shard count NewSharded was once given by default.
// The cache is one lock-free view and ignores shard counts; the name stays
// for callers that still pass one.
const DefaultShards = 16

// MaxRetained was the cap on the repair state an entry kept.
//
// Deprecated: no entry retains repair state; the cache never reads it.
const MaxRetained = 2048

// reorderEvery is how many clock ticks per entry pass between two
// reorders of the view.
const reorderEvery = 64

// Entry is one cached result with its immutable region.
//
// A probe screens an entry by its ray box before its cone: box holds lo_j
// then hi_j, the least and largest j-th coordinate of the entry's Rays,
// padded by boxPad (or [0,1]^d when there are no rays). A query q with
// s = Σq passes when s·lo_j ≤ q_j ≤ s·hi_j for every j. The box never
// rejects a query the cone holds: the rays span at least the region on the
// orthant (gir.Region.Rays' shortcuts only widen them), so such a q is a
// nonnegative combination of rays, q/s a convex combination of the Σ = 1
// rays, and each q_j/s lies between the rays' least and largest j-th
// coordinates; the padding absorbs the rounding of s, of the products and
// of the rays themselves.
type Entry struct {
	// The containment test's inputs, first so a probe reads them together:
	// the ray box, the region's cone normals as row-major dim-wide rows (the
	// box and the normals are one slab, so the box costs a fill no
	// allocation), and its domain (kind and dim identify it).
	box     []float64
	normals []float64
	dim     int
	kind    domain.Kind
	space   domain.Domain

	Region  *gir.Region
	Records []topk.Record // the cached top-k, in score order
	K       int

	// Rays is the region's extreme rays on the nonnegative orthant, scaled
	// to Σw = 1, row-major (gir.Region.Rays), enumerated once when the
	// entry is built: a drain decides an insert on them and their Box
	// (invalidate.InsertAffectsRays).
	Rays []float64

	// InnerLo and InnerHi are always nil: no entry holds an inscribed box.
	//
	// Deprecated: the fields remain so existing callers still compile.
	InnerLo, InnerHi vec.Vector

	// Cand, Bounds and CandComplete hold what PutWithBox was given for
	// them, unread: the cache keeps or evicts an entry, and never patches
	// one from a candidate set. They remain for callers that still pass
	// one.
	Cand         []topk.Record
	Bounds       []vec.Vector
	candComplete bool

	lastUse atomic.Int64
	hits    atomic.Int64 // complete hits served, halved at every reorder
	rank    int64        // hits when the last reorder sorted; writer-only
}

// boxPad widens the ray box on every side; see Entry.
const boxPad = 1e-9

// NewEntry builds the entry for an order-sensitive region and its result,
// enumerating its rays for the drain and flattening their bounding box and
// the region's normals into one slab for the probe; it returns nil for a
// nil or order-insensitive region, which the cache refuses: serving a
// cached *ordered* list from it would be unsound. The entry keeps reg and
// records, which must not change after; Insert publishes it, once.
func NewEntry(reg *gir.Region, records []topk.Record) *Entry {
	if reg == nil || !reg.OrderSensitive {
		return nil
	}
	d, rays := reg.Dim, reg.Rays()
	slab := make([]float64, 2*d, (2+len(reg.Constraints))*d)
	lo, hi := slab[:d], slab[d:]
	for j := range lo {
		lo[j], hi[j] = 0, 1 // [0,1]^d when there are no rays
		if len(rays) > 0 {
			lo[j], hi[j] = rays[j], rays[j]
		}
		for i := j; i < len(rays); i += d {
			lo[j], hi[j] = min(lo[j], rays[i]), max(hi[j], rays[i])
		}
		lo[j], hi[j] = lo[j]-boxPad, hi[j]+boxPad
	}
	for _, c := range reg.Constraints {
		slab = append(slab, c.Normal...)
	}
	space := reg.Space()
	return &Entry{
		box: slab[: 2*d : 2*d], normals: slab[2*d:], dim: d, kind: space.Kind(), space: space,
		Region: reg, Records: records, K: len(records),
		Rays: rays,
	}
}

// boxHolds reports whether q, whose coordinates sum to s, lies in the ray
// box scaled by s (see Entry), testing one coordinate at a time and
// stopping at the first outside. The caller has checked dim.
func (e *Entry) boxHolds(q vec.Vector, s float64) bool {
	d := e.dim
	lo, hi := e.box[:d], e.box[d:2*d]
	for j, x := range q[:d] {
		if x < s*lo[j] || x > s*hi[j] {
			return false
		}
	}
	return true
}

// Box returns the entry's padded ray box, lo then hi (see Entry). The
// caller must not modify it.
func (e *Entry) Box() []float64 { return e.box }

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

// CandComplete returns the candComplete flag PutWithBox was given.
func (e *Entry) CandComplete() bool { return e.candComplete }

// Cache holds up to a fixed number of entries in one lock-free view, with
// global LRU eviction. Safe for concurrent use.
type Cache struct {
	view     atomic.Pointer[[]*Entry] // the published entries; never written after publication
	mu       sync.Mutex               // serializes writers
	capacity int

	clock                 atomic.Int64 // one tick per served lookup and per put
	partial, puts, misses atomic.Int64
	probes, coneTests     atomic.Int64 // adjacent: a lookup adds to both
	reorderedAt           atomic.Int64 // clock at the last reorder
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
// An entry's cone is tested only when its ray box holds q; the box never
// rejects an entry whose cone holds q (Entry), so the entry returned is the
// one a cone-only scan would return.
func (c *Cache) Lookup(q vec.Vector, k int) (*Entry, bool) {
	view := c.load()
	best, probes, coneTests := bestContaining(view, q, k)
	c.probes.Add(int64(probes))
	c.coneTests.Add(int64(coneTests))
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
// the containing entry with the largest K, how many entries past the dim
// and domain checks it looked at (probes) and how many of those it
// cone-tested: those whose ray box holds q, a superset of those whose cone
// does (Entry).
func bestContaining(entries []*Entry, q vec.Vector, k int) (best *Entry, probes, coneTests int) {
	var sum float64
	for _, x := range q {
		sum += x
	}
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
		if !e.boxHolds(q, sum) {
			continue
		}
		coneTests++
		if !e.coneContains(q) {
			continue
		}
		if e.K >= k {
			return e, probes, coneTests
		}
		if best == nil || e.K > best.K {
			best = e
		}
	}
	return best, probes, coneTests
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

// Put stores a result and its order-sensitive GIR (NewEntry, then Insert)
// and reports whether the cache took it.
func (c *Cache) Put(reg *gir.Region, records []topk.Record) bool {
	e := NewEntry(reg, records)
	if e == nil {
		return false
	}
	c.Insert(e)
	return true
}

// PutWithBox is Put. The box arguments and the last parameter are ignored;
// cand, bounds and candComplete are stored on the entry as given and never
// read (see Entry.Cand). They remain so existing callers still compile.
func (c *Cache) PutWithBox(reg *gir.Region, records []topk.Record, _, _ vec.Vector, cand []topk.Record, bounds []vec.Vector, candComplete bool, _ int64) bool {
	e := NewEntry(reg, records)
	if e == nil {
		return false
	}
	e.Cand, e.Bounds, e.candComplete = cand, bounds, candComplete
	c.Insert(e)
	return true
}

// Insert publishes an entry NewEntry built at the end of the view, evicting
// the least recently stamped entry when the cache is full. The Engine
// builds the entry before it takes the lock its drains hold, so a put
// under that lock is this copy-and-publish alone.
func (c *Cache) Insert(e *Entry) {
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

// BatchOutcome sums what one MaintainBatch pass applied.
type BatchOutcome struct {
	Entries int // entries the pass scanned (exactly one scan per pass)
	Evicted int // entries removed
}

// MaintainBatch runs one maintenance pass over the whole cache for an
// entire ordered batch of mutations: evict is evaluated once per entry of
// the published view with no lock held (it may test every mutation of the
// batch against the entry's rays), then the entries it condemned are
// removed by identity from the view current at that point, published as
// one fresh copy under the writer mutex. Entries inserted or evicted concurrently
// are simply not considered (the Engine admits no fill while it drains).
// However long the batch, the cache is scanned once and the mutex is taken
// at most once. A lookup that loaded the view before the eviction may
// still serve the entry: that lookup raced the write.
func (c *Cache) MaintainBatch(evict func(*Entry) bool) BatchOutcome {
	view := c.load()
	out := BatchOutcome{Entries: len(view)}
	var condemned map[*Entry]bool
	for _, e := range view {
		if evict(e) {
			if condemned == nil {
				condemned = make(map[*Entry]bool)
			}
			condemned[e] = true
		}
	}
	if condemned == nil {
		return out
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	view = c.load()
	fresh := make([]*Entry, 0, len(view))
	for _, e := range view {
		if condemned[e] {
			out.Evicted++
			continue
		}
		fresh = append(fresh, e)
	}
	c.publish(fresh)
	return out
}

// Entries returns a point-in-time copy of the view (tests, diagnostics, and
// persistence).
func (c *Cache) Entries() []*Entry { return slices.Clone(c.load()) }

// Snapshot is the part of one entry's state warm-cache persistence
// serializes: its region and records. A loader rebuilds the rest (Put).
type Snapshot struct {
	Region  *gir.Region
	Records []topk.Record
}

// LastUse returns the entry's recency stamp on the cache's global clock
// (larger = more recently used); persistence sorts by it so a restored
// cache keeps the saved LRU order.
func (e *Entry) LastUse() int64 { return e.lastUse.Load() }

// Snapshot exports the entry's persisted state. It copies nothing: every
// field it reads is immutable once published.
func (e *Entry) Snapshot() Snapshot {
	return Snapshot{Region: e.Region, Records: e.Records}
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

// Probes returns how many entries lookups have looked at past the dim and
// domain checks: each had its ray box tested.
func (c *Cache) Probes() int64 { return c.probes.Load() }

// ConeTests returns how many of those entries' ray boxes held the query, so
// that their cones were tested.
func (c *Cache) ConeTests() int64 { return c.coneTests.Load() }

// Len returns the number of cached entries.
func (c *Cache) Len() int { return len(c.load()) }

// Capacity returns the maximum entry count the cache admits before
// evicting.
func (c *Cache) Capacity() int { return c.capacity }
