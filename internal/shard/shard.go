// Package shard is a shim kept only because the repository benchmark's
// shard probe compiles against it: a Coordinator is one dataset
// (gir.NewDatasetInSpace) and one Engine over it. It is deleted with that
// probe.
package shard

import (
	"fmt"

	gir "github.com/girlib/gir"
)

// Options configures a Coordinator.
type Options struct {
	// Deprecated: Parts is ignored; a dataset is one R*-tree.
	Parts int
	// Engine configures the Engine over the dataset.
	Engine gir.EngineOptions
	// Space is the query-space domain.
	Space gir.Space
}

// Coordinator is a dataset and the one Engine that serves it. All methods
// are safe for concurrent use.
type Coordinator struct {
	ds  *gir.Dataset
	eng *gir.Engine
}

// New builds the dataset over points (record i gets id int64(i)) and the
// Engine over it.
func New(points [][]float64, opts Options) (*Coordinator, error) {
	ds, err := gir.NewDatasetInSpace(points, opts.Space)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	return &Coordinator{ds: ds, eng: gir.NewEngine(ds, opts.Engine)}, nil
}

// Close detaches the Engine and closes the dataset.
func (c *Coordinator) Close() error {
	c.eng.Close()
	return c.ds.Close()
}

// TopK answers one top-k query through the Engine.
func (c *Coordinator) TopK(q []float64, k int) gir.EngineResult {
	return c.eng.TopK(q, k)
}

// BatchTopK answers a batch through the Engine's BatchTopK.
func (c *Coordinator) BatchTopK(queries []gir.Query) []gir.EngineResult {
	return c.eng.BatchTopK(queries)
}
