// Package pager simulates the disk underneath the R*-tree: fixed-size
// 4 KiB pages, explicit read/write accounting, and a configurable I/O cost
// model that converts page reads into simulated I/O time.
//
// The paper evaluates algorithms on a spinning disk and reports I/O time;
// we do not have that hardware, so every claim involving I/O is reproduced
// as (counted page reads) × (per-read latency). All relative comparisons —
// which are what the paper's evaluation argues — are preserved exactly,
// since no algorithm in this library ever reads the same page twice (the
// paper makes the same observation to justify running without a buffer
// pool).
package pager

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// PageSize is the simulated disk page size in bytes, matching the paper's
// 4 KByte setting.
const PageSize = 4096

// PageID identifies a page within a Store. Zero is never a valid page.
type PageID uint32

// Stats counts page-level I/O.
type Stats struct {
	Reads  int64
	Writes int64
}

// CostModel converts I/O counts into simulated elapsed time.
type CostModel struct {
	// ReadLatency is charged per page read. The default (100µs) is the
	// order of magnitude of a random 4 KiB read on a 2014-era 7200rpm
	// disk with some locality; girbench's figure tables charge it per Phase-2
	// page read (`io_ms`; `read_latency_us` in the report's config).
	ReadLatency time.Duration
}

// DefaultCostModel is used when none is specified.
var DefaultCostModel = CostModel{ReadLatency: 100 * time.Microsecond}

// IOTime returns the simulated I/O time for the given stats.
func (c CostModel) IOTime(s Stats) time.Duration {
	return time.Duration(s.Reads) * c.ReadLatency
}

// Store is an abstract page store. Implementations must be safe for
// concurrent use: any number of goroutines may Read (and query Stats)
// simultaneously, and reads never block each other. Alloc/Write may run
// concurrently with reads but are expected to be rare once an index is
// built; callers that mutate an index concurrently with queries need
// higher-level coordination (see gir.Dataset). MemStore is the one
// implementation; the interface is the seam for a test fake or another
// backend. Read and Write cannot fail — everything the library writes to
// a disk goes through AtomicWriteFile, AppendSegment and the WAL, which
// return errors.
type Store interface {
	// Alloc reserves a new page and returns its id, preferring ids
	// released by Free over growing the store.
	Alloc() PageID
	// Write stores a copy of data (at most PageSize bytes) at the page;
	// the caller may reuse data once Write returns.
	Write(id PageID, data []byte)
	// Read returns the page contents. The returned slice must not be
	// modified by the caller.
	Read(id PageID) []byte
	// Free returns a page to the allocator for reuse by a later Alloc.
	// The page's last contents stay readable until the page is both
	// reallocated and rewritten — copy-on-write readers pin superseded
	// pages and release them asynchronously, and full-store snapshots
	// read every allocated page — so Free must neither shrink the store
	// nor scrub the page.
	Free(id PageID)
	// NumPages returns the number of allocated pages (including freed
	// pages not yet reused; the store never shrinks).
	NumPages() int
	// Stats returns the I/O counters.
	Stats() Stats
	// ResetStats zeroes the I/O counters.
	ResetStats()
}

// MemStore is an in-memory Store: pages are real byte arrays (nodes are
// genuinely serialized and deserialized, so byte-level layout bugs cannot
// hide), while "I/O" is counted rather than performed.
//
// Reads take only a shared lock and bump atomic counters, so concurrent
// query traversals (gir.Engine fan-out, parallel benchmarks) never
// serialize on the store.
type MemStore struct {
	mu     sync.RWMutex
	pages  [][]byte
	free   []PageID // freed ids awaiting reuse (LIFO)
	reads  atomic.Int64
	writes atomic.Int64
}

// NewMemStore returns an empty MemStore.
func NewMemStore() *MemStore { return &MemStore{} }

// Alloc implements Store.
func (m *MemStore) Alloc() PageID {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := len(m.free); n > 0 {
		id := m.free[n-1]
		m.free = m.free[:n-1]
		return id
	}
	m.pages = append(m.pages, nil)
	return PageID(len(m.pages)) // 1-based: id 0 stays invalid
}

// Free implements Store. The page's bytes are kept — readers that were
// handed the old contents (and whole-store snapshots) stay valid until a
// reuse overwrites the page, and Write installs a fresh buffer anyway.
func (m *MemStore) Free(id PageID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if id == 0 || int(id) > len(m.pages) {
		panic(fmt.Sprintf("pager: free of unallocated page %d", id))
	}
	m.free = append(m.free, id)
}

// FreePages reports how many freed pages are awaiting reuse — the
// reclamation tests assert pages come back exactly when the last pinned
// snapshot referencing them releases.
func (m *MemStore) FreePages() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.free)
}

// Write implements Store.
func (m *MemStore) Write(id PageID, data []byte) {
	if len(data) > PageSize {
		panic(fmt.Sprintf("pager: page overflow: %d > %d bytes", len(data), PageSize))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if id == 0 || int(id) > len(m.pages) {
		panic(fmt.Sprintf("pager: write to unallocated page %d", id))
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	m.pages[id-1] = buf
	m.writes.Add(1)
}

// Read implements Store.
func (m *MemStore) Read(id PageID) []byte {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if id == 0 || int(id) > len(m.pages) || m.pages[id-1] == nil {
		panic(fmt.Sprintf("pager: read of unallocated page %d", id))
	}
	m.reads.Add(1)
	return m.pages[id-1]
}

// NumPages implements Store.
func (m *MemStore) NumPages() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.pages)
}

// Stats implements Store.
func (m *MemStore) Stats() Stats {
	return Stats{Reads: m.reads.Load(), Writes: m.writes.Load()}
}

// ResetStats implements Store.
func (m *MemStore) ResetStats() {
	m.reads.Store(0)
	m.writes.Store(0)
}
