// Concurrent serving: the paper's caching application at production
// shape. An Engine wraps the dataset and a GIR cache and serves
// batches of top-k queries from a pool of workers: cache hits are
// answered without touching the index, identical in-flight misses are
// collapsed into a single computation, and every fresh result is
// inserted back into the cache keyed by its immutable region.
//
// The workload is a Zipf-distributed stream — a few popular preference
// vectors dominate, with a long tail — plus slight jitter, standing in
// for users nudging their weights. That is exactly the regime the GIR
// guarantees make cacheable: any query inside a cached region gets the
// byte-exact result the index would have produced.
//
// Run with: go run ./examples/serving
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	gir "github.com/girlib/gir"
	"github.com/girlib/gir/internal/datagen"
	"github.com/girlib/gir/internal/engine"
)

func main() {
	const (
		n        = 100000
		d        = 4
		distinct = 48   // distinct preference vectors in the pool
		stream   = 3000 // queries served
		zipfS    = 1.3  // popularity skew
		jitter   = 0.001
		batch    = 64
	)
	pts := datagen.Independent(n, d, 3)
	raw := make([][]float64, len(pts))
	for i, p := range pts {
		raw[i] = p
	}
	ds, err := gir.NewDataset(raw)
	if err != nil {
		log.Fatal(err)
	}

	// The query stream: Zipf-popular vectors, k between 5 and 20, with
	// occasional tiny nudges that usually stay inside the popular
	// query's immutable region.
	st := engine.NewStream(11, d, distinct, zipfS, 5, 20, jitter)
	qs, ks := st.Draw(stream)
	queries := make([]gir.Query, stream)
	for i := range queries {
		queries[i] = gir.Query{Vector: qs[i], K: ks[i]}
	}

	// Baseline: compute every query, no cache (still fanned out).
	base := gir.NewEngine(ds, gir.EngineOptions{CacheCapacity: -1})
	defer base.Close()
	ds.ResetIOStats()
	start := time.Now()
	serve(base, queries, batch)
	baseElapsed := time.Since(start)
	baseReads := ds.IOStats().PageReads

	// The serving engine: GIR cache, FP cache fill.
	e := gir.NewEngine(ds, gir.EngineOptions{CacheCapacity: 2 * distinct})
	defer e.Close()
	ds.ResetIOStats()
	start = time.Now()
	serve(e, queries, batch) // cold: misses also build their GIR
	coldElapsed := time.Since(start)
	coldReads := ds.IOStats().PageReads

	ds.ResetIOStats()
	start = time.Now()
	serve(e, queries, batch) // warm: steady-state serving
	warmElapsed := time.Since(start)
	warmReads := ds.IOStats().PageReads

	stats := e.Stats()
	total := stats.CacheHits + stats.PartialHits + stats.Misses
	fmt.Printf("workload: %d top-k queries over %d records (%d distinct vectors, zipf %.1f), %d workers\n\n",
		stream, n, distinct, zipfS, runtime.GOMAXPROCS(0))
	fmt.Printf("no cache:    %8v  %7d page reads\n", baseElapsed.Round(time.Millisecond), baseReads)
	fmt.Printf("cache, cold: %8v  %7d page reads   (misses also build their GIR — the one-time fill cost)\n",
		coldElapsed.Round(time.Millisecond), coldReads)
	fmt.Printf("cache, warm: %8v  %7d page reads   (%.0fx the uncached throughput)\n\n",
		warmElapsed.Round(time.Millisecond), warmReads,
		float64(baseElapsed)/float64(warmElapsed))
	fmt.Printf("engine stats: %d hits (%.1f%%), %d partial, %d misses, %d deduplicated, %d computed\n",
		stats.CacheHits, 100*float64(stats.CacheHits)/float64(total),
		stats.PartialHits, stats.Misses, stats.Deduped, stats.Computed)
	fmt.Printf("cache: %d entries, %.1f probed per lookup\n\n", e.Cache().Len(), float64(stats.CacheProbes)/float64(total))
	fmt.Println("every answer — hit or miss — is byte-identical to running the query")
	fmt.Println("against the index: the immutable region guarantees it.")
}

func serve(e *gir.Engine, queries []gir.Query, batch int) {
	for lo := 0; lo < len(queries); lo += batch {
		hi := lo + batch
		if hi > len(queries) {
			hi = len(queries)
		}
		for _, res := range e.BatchTopK(queries[lo:hi]) {
			if res.Err != nil {
				log.Fatal(res.Err)
			}
		}
	}
}
