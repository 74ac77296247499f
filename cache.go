package gir

import (
	"github.com/girlib/gir/internal/cache"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

// Cache is an Engine's GIR-keyed top-k result cache (the caching
// application from the paper's Introduction): a query whose vector lands
// inside a cached result's GIR is served without touching the index. The
// Engine owns it — fills it on misses and reconciles it with every dataset
// write — and Engine.Cache hands it out for inspection.
//
// A Cache is safe for concurrent use. Its entries are one immutable view
// behind an atomic pointer: a lookup loads it and scans it with no lock,
// writers publish a fresh copy, and the entries that serve the most hits
// move to the front. Recency is stamped through a global atomic clock and
// eviction is LRU. See internal/cache for the full concurrency model.
type Cache struct {
	inner *cache.Cache
}

// newCacheEntry builds the cache entry for a fill's region and records —
// the record copies, the probe's flat normals and the drain's rays — or
// returns nil when the region is not cacheable (no region, or an
// order-insensitive GIR*). The Engine builds it outside its fill lock and
// only inserts it under that lock, so dataset writers (which drain into
// the cache under it) never wait on the geometry.
func newCacheEntry(g *GIR, recs []Record) *cache.Entry {
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
	return cache.NewEntry(reg, trecs)
}

// lookupEntry is the engine's allocation-free hit path: it hands back the
// raw cache entry, so a complete hit can be rescored straight into a
// caller-owned buffer. The entry's Records are shared and read-only —
// newCacheEntry copies them, so they alias neither pooled scratch nor any
// caller slice. complete is true when the entry covers the requested k.
func (c *Cache) lookupEntry(q []float64, k int) (e *cache.Entry, complete, ok bool) {
	e, ok = c.inner.Lookup(vec.Vector(q), k)
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

// Clear drops every cached entry; the next query of each region misses
// and refills it.
func (c *Cache) Clear() { c.inner.Clear() }
