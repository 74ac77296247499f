package gir

import (
	"github.com/girlib/gir/internal/cache"
	girint "github.com/girlib/gir/internal/gir"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
	"github.com/girlib/gir/internal/viz"
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

// lookupEntry is the engine's allocation-free hit path: it hands back the
// raw cache entry, so a complete hit can be rescored straight into a
// caller-owned buffer. Entries the generation-fence veto rejects are
// invisible and never counted as hits. The entry's Records are shared and
// read-only — the PutWithBox copy discipline means they alias neither
// pooled scratch nor any caller slice. complete is true when the entry
// covers the requested k.
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

// Clear drops every cached entry; the next query of each region misses
// and refills it.
func (c *Cache) Clear() { c.inner.Clear() }
