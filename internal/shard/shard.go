// Package shard is the horizontally partitioned serving tier: a
// Coordinator owns N Engine partitions of one logical dataset, fans every
// query to all partitions, and merges the per-partition answers into the
// exact global result.
//
// Consistency is a per-partition version vector. A write routes to
// exactly one partition (its record's hash), so the mutation history is a
// set of independent per-partition sequences; the vector of dataset
// versions (v_1 … v_N) read at issue time is the consistency cut a
// lookup is served against. No new machinery enforces it: each
// partition's Engine already guarantees — a write reconciles its cache
// before the write's version becomes visible — that a served result
// reflects at least the partition's version at the moment the query was
// issued. Versions only advance, so a scatter issued after reading the
// vector is served with every partition at-or-past its coordinate;
// Result.At reports the cut.
package shard

import (
	"fmt"

	gir "github.com/girlib/gir"
	engineint "github.com/girlib/gir/internal/engine"
)

// partition maps a record id to its owning partition: a splitmix64-style
// finalizer over the id, reduced mod parts, so ids minted sequentially (the
// common case) spread uniformly instead of striping. It is a pure function
// of (id, parts): an insert and a later delete of the same id route to the
// same partition.
func partition(id int64, parts int) int {
	x := uint64(id)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(parts))
}

// Options configures a Coordinator.
type Options struct {
	// Parts is the partition count (≥ 1; 0 = 1).
	Parts int
	// Engine configures every partition's Engine identically.
	Engine gir.EngineOptions
	// Space is the query-space domain, shared by all partitions.
	Space gir.Space
}

func (o Options) parts() int {
	if o.Parts <= 0 {
		return 1
	}
	return o.Parts
}

// part is one partition: its shard of the dataset plus the Engine serving
// it.
type part struct {
	ds  *gir.Dataset
	eng *gir.Engine
}

// Coordinator scatters queries over N partitions and gathers exact global
// results. All methods are safe for concurrent use (they delegate to the
// per-partition Engines, which are).
type Coordinator struct {
	parts []part
	dim   int
}

// New partitions points by record hash over their indices (record i gets
// global id int64(i), exactly as gir.NewDataset numbers them) and builds
// one Dataset + Engine per partition. Every partition must end up
// non-empty — an empty shard cannot answer its scatter — so Parts must
// not exceed what the assignment populates.
func New(points [][]float64, opts Options) (*Coordinator, error) {
	n := opts.parts()
	ids := make([][]int64, n)
	pts := make([][][]float64, n)
	for i, p := range points {
		w := partition(int64(i), n)
		ids[w] = append(ids[w], int64(i))
		pts[w] = append(pts[w], p)
	}
	c := &Coordinator{}
	for w := 0; w < n; w++ {
		if len(ids[w]) == 0 {
			c.Close()
			return nil, fmt.Errorf("shard: partition %d of %d is empty over %d records — fewer partitions needed", w, n, len(points))
		}
		ds, err := gir.NewDatasetWithIDs(ids[w], pts[w], opts.Space)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("shard: partition %d: %w", w, err)
		}
		c.parts = append(c.parts, part{ds: ds, eng: gir.NewEngine(ds, opts.Engine)})
	}
	c.dim = c.parts[0].ds.Dim()
	return c, nil
}

// Dataset returns partition i's shard of the dataset.
func (c *Coordinator) Dataset(i int) *gir.Dataset { return c.parts[i].ds }

// Len returns the total record count across partitions.
func (c *Coordinator) Len() int {
	n := 0
	for i := range c.parts {
		n += c.parts[i].ds.Len()
	}
	return n
}

// Dim returns the data dimensionality.
func (c *Coordinator) Dim() int { return c.dim }

// Insert routes the record to its owning partition; only that partition's
// version advances, and only its cache reconciles the mutation.
func (c *Coordinator) Insert(id int64, p []float64) error {
	return c.parts[partition(id, len(c.parts))].ds.Insert(id, p)
}

// Delete routes the delete to the record's owning partition.
func (c *Coordinator) Delete(id int64, p []float64) (bool, error) {
	return c.parts[partition(id, len(c.parts))].ds.Delete(id, p)
}

// VersionVector is a consistency cut: element i is partition i's dataset
// version.
type VersionVector []int64

// Versions reads the current version vector. A query scattered after this
// read is served with every partition at-or-past its coordinate (each
// Engine's write-time reconciliation enforces the per-partition half;
// versions only advance).
func (c *Coordinator) Versions() VersionVector {
	v := make(VersionVector, len(c.parts))
	for i := range c.parts {
		v[i] = c.parts[i].ds.Version()
	}
	return v
}

// Close shuts down every partition's Engine and Dataset. The first error
// wins; all partitions are closed regardless.
func (c *Coordinator) Close() error {
	var first error
	for i := range c.parts {
		c.parts[i].eng.Close()
		if err := c.parts[i].ds.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// PartitionStats is one partition's slice of a Stats read.
type PartitionStats struct {
	Part     int
	Records  int
	Version  int64
	CacheLen int
	CacheCap int
	Lookups  int64 // cache lookups (hits + partial + misses)
	Engine   gir.EngineStats
}

// Stats aggregates the tier: per-partition engine counters plus the skew
// ratios a rebalancer watches. RecordSkew and LookupSkew are max/mean
// across partitions (1.0 = perfectly even).
type Stats struct {
	Parts      []PartitionStats
	Aggregate  gir.EngineStats // counter sums; Version holds the vector's minimum
	RecordSkew float64
	LookupSkew float64
}

// Stats reads every partition and aggregates.
func (c *Coordinator) Stats() Stats {
	st := Stats{Parts: make([]PartitionStats, len(c.parts))}
	var recSum, lookSum, recMax, lookMax float64
	for i := range c.parts {
		es := c.parts[i].eng.Stats()
		ps := PartitionStats{
			Part:    i,
			Records: c.parts[i].ds.Len(),
			Version: es.Version,
			Lookups: es.CacheHits + es.PartialHits + es.Misses,
			Engine:  es,
		}
		if cache := c.parts[i].eng.Cache(); cache != nil {
			ps.CacheLen, ps.CacheCap = cache.Len(), cache.Capacity()
		}
		st.Parts[i] = ps

		st.Aggregate.CacheHits += es.CacheHits
		st.Aggregate.PartialHits += es.PartialHits
		st.Aggregate.Misses += es.Misses
		st.Aggregate.Deduped += es.Deduped
		st.Aggregate.Computed += es.Computed
		st.Aggregate.Affected += es.Affected
		st.Aggregate.Invalidated += es.Invalidated
		st.Aggregate.CacheProbes += es.CacheProbes
		st.Aggregate.CacheConeTests += es.CacheConeTests
		st.Aggregate.PredicateEvals += es.PredicateEvals
		st.Aggregate.RefusedFills += es.RefusedFills
		st.Aggregate.FusedGroups += es.FusedGroups
		st.Aggregate.FusedQueries += es.FusedQueries
		st.Aggregate.SharedPageReads += es.SharedPageReads
		if i == 0 || es.Version < st.Aggregate.Version {
			st.Aggregate.Version = es.Version
		}

		recSum += float64(ps.Records)
		lookSum += float64(ps.Lookups)
		recMax = max(recMax, float64(ps.Records))
		lookMax = max(lookMax, float64(ps.Lookups))
	}
	if recSum > 0 {
		st.RecordSkew = recMax / (recSum / float64(len(c.parts)))
	}
	if lookSum > 0 {
		st.LookupSkew = lookMax / (lookSum / float64(len(c.parts)))
	}
	return st
}

// scatter runs fn once per partition, each on its own goroutine.
func (c *Coordinator) scatter(fn func(i int)) {
	engineint.Fan(len(c.parts), len(c.parts), fn)
}
