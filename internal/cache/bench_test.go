package cache

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/girlib/gir/internal/gir"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

// mutexCache is the first implementation — one global mutex and a linear
// scan — kept here verbatim as the benchmark baseline so the lock-free
// view's scaling claim is measured against a real predecessor.
type mutexCache struct {
	mu      sync.Mutex
	clock   int64
	entries []*mutexEntry

	hits, misses, partial int64
}

type mutexEntry struct {
	region  *gir.Region
	records []topk.Record
	k       int
	lastUse int64
}

func (c *mutexCache) lookup(q vec.Vector, k int) (*mutexEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		if len(q) == e.region.Dim && e.region.Contains(q, 0) {
			c.clock++
			e.lastUse = c.clock
			if k <= e.k {
				c.hits++
			} else {
				c.partial++
			}
			return e, true
		}
	}
	c.misses++
	return nil, false
}

func (c *mutexCache) put(reg *gir.Region, records []topk.Record, capacity int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock++
	e := &mutexEntry{region: reg, records: records, k: len(records), lastUse: c.clock}
	if len(c.entries) < capacity {
		c.entries = append(c.entries, e)
		return
	}
	victim := 0
	for i, ent := range c.entries {
		if ent.lastUse < c.entries[victim].lastUse {
			victim = i
		}
	}
	c.entries[victim] = e
}

// BenchmarkLookupParallel measures concurrent hit-path throughput of the
// lock-free view against the single-mutex predecessor. Run with -cpu 1,4,8
// to see the scaling: the mutex baseline flatlines (every lookup
// serializes) while the view's read path scales with GOMAXPROCS.
func BenchmarkLookupParallel(b *testing.B) {
	const nfix = 32
	fixtures := buildFixtures(b, nfix, 14)

	queries := make([]vec.Vector, nfix)
	for i := range fixtures {
		queries[i] = fixtures[i].q
	}

	b.Run("view", func(b *testing.B) {
		c := New(nfix)
		for i := range fixtures {
			c.Put(fixtures[i].reg, fixtures[i].recs)
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			r := rand.New(rand.NewSource(1))
			for pb.Next() {
				q := queries[r.Intn(nfix)]
				if _, ok := c.Lookup(q, 6); !ok {
					b.Error("unexpected miss")
					return
				}
			}
		})
	})

	b.Run("mutex-baseline", func(b *testing.B) {
		c := &mutexCache{}
		for i := range fixtures {
			c.put(fixtures[i].reg, fixtures[i].recs, nfix)
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			r := rand.New(rand.NewSource(1))
			for pb.Next() {
				q := queries[r.Intn(nfix)]
				if _, ok := c.lookup(q, 6); !ok {
					b.Error("unexpected miss")
					return
				}
			}
		})
	})
}

// BenchmarkPutParallel measures concurrent insertion with eviction
// pressure (capacity below the working set).
func BenchmarkPutParallel(b *testing.B) {
	fixtures := buildFixtures(b, 16, 14)
	b.Run("view", func(b *testing.B) {
		c := New(8)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			r := rand.New(rand.NewSource(1))
			for pb.Next() {
				f := &fixtures[r.Intn(len(fixtures))]
				c.Put(f.reg, f.recs)
			}
		})
	})
	b.Run("mutex-baseline", func(b *testing.B) {
		c := &mutexCache{}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			r := rand.New(rand.NewSource(1))
			for pb.Next() {
				f := &fixtures[r.Intn(len(fixtures))]
				c.put(f.reg, f.recs, 8)
			}
		})
	})
}
