package gir

import (
	"github.com/girlib/gir/internal/cache"
	girint "github.com/girlib/gir/internal/gir"
	"github.com/girlib/gir/internal/maintain"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
	"github.com/girlib/gir/internal/viz"
)

// Cache is a GIR-keyed top-k result cache (the caching application from
// the paper's Introduction): a query whose vector lands inside a cached
// result's GIR is served without touching the index.
//
// A Cache is safe for concurrent use. Its entries are one immutable view
// behind an atomic pointer: a lookup loads it and scans it with no lock,
// writers publish a fresh copy, and the entries that serve the most hits
// move to the front. Recency is stamped through a global atomic clock and
// eviction is LRU. See internal/cache for the full concurrency model.
type Cache struct {
	inner *cache.Cache
}

// NewCache returns a cache holding at most capacity entries (LRU).
func NewCache(capacity int) *Cache { return &Cache{inner: cache.New(capacity)} }

// CachedResult is a cache hit.
type CachedResult struct {
	// Records holds min(k, cached k) records, in exact result order, each
	// scored for the looked-up vector.
	Records []Record
	// Complete is true when the cached entry covered the requested k;
	// false means Records is an exact prefix and the caller should compute
	// the remainder (the paper's progressive-reporting case [31]).
	Complete bool
}

// Put caches a result with its order-sensitive GIR. Order-insensitive
// regions are rejected (serving an ordered list from one is unsound).
// The result's retained repair state (Candidates plus unexpanded-subtree
// bounds, snapshotted when the GIR computation consumed it) is stored with
// the entry, so ApplyBatch can patch it later.
func (c *Cache) Put(g *GIR, res *TopKResult) bool {
	if res == nil {
		return false
	}
	return c.commitPut(prepareCachePut(g, res.Records, res.cand, res.bounds, res.complete), 0)
}

// preparedPut is a staged cache insert: all admission checks, record
// copies and inscribed-box geometry done, only the publication left. The
// Engine stages outside its fill lock and commits inside it, so dataset
// writers (which publish events under that lock) never wait on geometry.
type preparedPut struct {
	reg    *girint.Region
	recs   []topk.Record
	cand   []topk.Record
	bounds []vec.Vector
	candOK bool
	lo, hi vec.Vector
}

// prepareCachePut stages an insert, or returns nil when the entry is not
// cacheable (no region, or an order-insensitive GIR*).
func prepareCachePut(g *GIR, recs []Record, cand []topk.Record, bounds []vec.Vector, candOK bool) *preparedPut {
	if g == nil {
		return nil
	}
	reg := g.internalRegion()
	if !reg.OrderSensitive {
		return nil
	}
	trecs := make([]topk.Record, len(recs))
	for i, r := range recs {
		trecs[i] = topk.Record{ID: r.ID, Point: vec.Vector(r.Attrs), Score: r.Score}
	}
	lo, hi := viz.MAH(reg, reg.Query)
	return &preparedPut{reg: reg, recs: trecs, cand: cand, bounds: bounds, candOK: candOK, lo: lo, hi: hi}
}

// commitPut inserts a staged entry, seeding its cleared-version stamp.
func (c *Cache) commitPut(p *preparedPut, clearedThrough int64) bool {
	if p == nil {
		return false
	}
	return c.inner.PutWithBox(p.reg, p.recs, p.lo, p.hi, p.cand, p.bounds, p.candOK, clearedThrough)
}

// Lookup serves a top-k query from the cache if some cached GIR contains
// q. See CachedResult for partial-hit semantics. The records are scored
// for q, exactly as Dataset.TopK scores them.
func (c *Cache) Lookup(q []float64, k int) (*CachedResult, bool) {
	e, complete, ok := c.lookupEntry(q, k, nil)
	if !ok {
		return nil, false
	}
	out := &CachedResult{Records: make([]Record, min(k, e.K)), Complete: complete}
	rescoreInto(out.Records, e.Records[:len(out.Records)], q)
	return out, true
}

// lookupEntry is the engine's allocation-free hit path: it hands back the
// raw cache entry instead of materializing a CachedResult, so a complete
// hit can be rescored straight into a caller-owned buffer. Entries the
// generation-fence veto rejects are invisible and never counted as hits.
// The entry's Records are shared and read-only — the PutWithBox copy
// discipline means they alias neither pooled scratch nor any caller
// slice. complete is true when the entry covers the requested k.
func (c *Cache) lookupEntry(q []float64, k int, veto func(*cache.Entry) bool) (e *cache.Entry, complete, ok bool) {
	e, ok = c.inner.LookupVeto(vec.Vector(q), k, veto)
	if !ok {
		return nil, false, false
	}
	return e, k <= e.K, true
}

// Stats returns (exact hits, partial hits, misses).
func (c *Cache) Stats() (hits, partial, misses int64) { return c.inner.Stats() }

// Len returns the number of cached entries.
func (c *Cache) Len() int { return c.inner.Len() }

// Capacity returns the maximum number of entries the cache holds before
// LRU eviction kicks in.
func (c *Cache) Capacity() int { return c.inner.Capacity() }

// Clear drops every cached entry. The blunt instrument for hand-managed
// caches; ApplyBatch touches only the entries a specific mutation can
// actually perturb (the Engine drives that automatically from dataset
// mutation events).
func (c *Cache) Clear() { c.inner.Clear() }

// CacheMutation is one already-applied dataset write, in the form
// ApplyBatch reconciles a hand-managed cache with — the maintenance
// layer's own mutation record: Insert (false = delete), the record's ID,
// its Point (an insert's attributes; unused for a delete) and Version,
// which optionally stamps the mutation with the dataset version it
// produced — stamped entries skip re-evaluation of mutations they are
// already cleared through, exactly as in the Engine; 0 leaves stamps out
// of play.
type CacheMutation = maintain.Mutation

// BatchStats reports what one ApplyBatch pass did. Affected counts
// (mutation, entry) pairs the batch could perturb and always equals
// Repaired + Evicted; Entries, StampRaises and Predicates expose the
// batching economics (one cache scan per pass, at most one stamp raise
// per entry, and the number of affectedness predicates evaluated).
type BatchStats struct {
	Entries     int
	Scans       int // full cache scans the pass performed (always 1)
	Affected    int
	Repaired    int
	Evicted     int
	StampRaises int
	Predicates  int64
}

// ApplyBatch reconciles the cache with an ordered batch of dataset
// mutations in ONE maintenance pass: the cache is scanned once, and every
// entry walks the whole batch in order through the unified verdict chain
// (internal/maintain) — unaffecting mutations are absorbed into the
// entry's candidate set, affecting ones patch the entry in place when a
// sound closed-form repair exists and evict it otherwise, and a repaired
// entry keeps being checked against the rest of the batch. Call it after
// applying Dataset writes — one or a burst — when managing a Cache by
// hand. Maintenance must not run concurrently with itself (lookups may run
// concurrently freely).
func (c *Cache) ApplyBatch(ms []CacheMutation) BatchStats {
	p := maintain.Planner{Repair: true}
	out := p.Drain(c.inner, ms)
	return BatchStats{
		Entries:     out.Entries,
		Scans:       out.Scans,
		Affected:    out.Affected,
		Repaired:    out.Repaired,
		Evicted:     out.Evicted,
		StampRaises: out.StampRaises,
		Predicates:  out.Predicates,
	}
}
