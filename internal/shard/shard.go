// Package shard is the horizontally partitioned serving tier: a
// Coordinator is one partitioned dataset (gir.NewPartitionedDataset) and
// one Engine over it, behind the API the repository benchmark's probes
// call. Anything else can build the two directly, as girbench's shard
// table does.
//
// The dataset places each record by a hash of its id in one of N R*-trees
// in one page store, and every published snapshot is a single tree whose
// root is a top page with the N partition roots as children. The top page
// gives each child the unit box: hash placement makes every partition span
// the data space, so true boxes would prune nothing and would change with
// every write. Queries therefore see one ordinary tree, and the cache,
// single-flight, fusion and write-time drain exist once, above the
// partitions: a query is one cache probe and, on a miss, one traversal and
// one region build, whose region is the answer's.
//
// Consistency is a version vector: element i counts the writes partition i
// has taken, so the vector sums to the dataset version. A write routes to
// exactly one partition (its record's hash) and advances exactly its
// coordinate; Versions reads the vector off one published snapshot, and a
// query issued after that read is served at or past it, since the Engine
// drains every write into its cache before the write's version becomes
// visible. Result.At reports the cut read before the query.
//
// The trade: writes to different partitions serialize on the dataset's one
// writer mutex, and one query no longer fans out over goroutines — a batch
// still spreads over the Engine's workers. A partitioned dataset has no
// durable form (EnableWAL and both Checkpoints refuse it).
package shard

import (
	"fmt"

	gir "github.com/girlib/gir"
)

// Options configures a Coordinator.
type Options struct {
	// Parts is the partition count (≥ 1; 0 = 1).
	Parts int
	// Engine configures the Engine over the partitions.
	Engine gir.EngineOptions
	// Space is the query-space domain.
	Space gir.Space
}

// Coordinator is a partitioned dataset and the one Engine that serves it.
// All methods are safe for concurrent use.
type Coordinator struct {
	ds  *gir.Dataset
	eng *gir.Engine
}

// New places points by record hash over their indices (record i gets id
// int64(i), exactly as gir.NewDataset numbers them) into Parts partitions
// and builds the Engine over them. Every partition must start non-empty,
// so Parts must not exceed what the placement populates.
func New(points [][]float64, opts Options) (*Coordinator, error) {
	ds, err := gir.NewPartitionedDataset(points, max(opts.Parts, 1), opts.Space)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	return &Coordinator{ds: ds, eng: gir.NewEngine(ds, opts.Engine)}, nil
}

// Insert routes the record to its owning partition; only that partition's
// coordinate advances.
func (c *Coordinator) Insert(id int64, p []float64) error { return c.ds.Insert(id, p) }

// Delete routes the delete to the record's owning partition.
func (c *Coordinator) Delete(id int64, p []float64) (bool, error) { return c.ds.Delete(id, p) }

// VersionVector is a consistency cut: element i is the number of writes
// partition i has taken.
type VersionVector []int64

// Versions reads the current version vector off one published snapshot.
func (c *Coordinator) Versions() VersionVector {
	parts := c.ds.Partitions()
	v := make(VersionVector, len(parts))
	for i, p := range parts {
		v[i] = p.Version
	}
	return v
}

// Close detaches the Engine and closes the dataset.
func (c *Coordinator) Close() error {
	c.eng.Close()
	return c.ds.Close()
}

// Stats is the tier read: each partition's records and writes from one
// snapshot, and the Engine's counters.
type Stats struct {
	Parts     []gir.Partition
	Aggregate gir.EngineStats
}

// Stats reads the partitions and the Engine.
func (c *Coordinator) Stats() Stats {
	return Stats{Parts: c.ds.Partitions(), Aggregate: c.eng.Stats()}
}

// Result is the coordinator's answer to one query: the exact top-k, plus
// the version vector read before the query, which it is served at or past.
type Result struct {
	Records []gir.Record
	At      VersionVector
	Err     error
}

// TopK answers one top-k query through the Engine.
func (c *Coordinator) TopK(q []float64, k int) Result {
	return c.BatchTopK([]gir.Query{{Vector: q, K: k}})[0]
}

// BatchTopK answers a batch through the Engine's BatchTopK; every result
// carries the cut read before the batch.
func (c *Coordinator) BatchTopK(queries []gir.Query) []Result {
	at := c.Versions()
	out := make([]Result, len(queries))
	for i, r := range c.eng.BatchTopK(queries) {
		out[i] = Result{Records: r.Records, At: at, Err: r.Err}
	}
	return out
}
