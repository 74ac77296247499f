// Serving under churn: what fine-grained cache invalidation buys.
//
// The GIR is a certificate of exactly where a cached top-k result stays
// valid, and that certificate also answers the dynamic question: which
// cache entries does a write actually endanger? Deleting a record only
// invalidates entries whose result contains it; inserting a record only
// invalidates entries whose region admits some weight vector that scores
// the newcomer above their k-th result (a small LP, usually short-cut by
// closed-form filters). Every other entry keeps serving.
//
// This program runs the same Zipf query stream twice under a 5% write mix:
// once with the Engine's event-driven fine-grained invalidation, once with
// the blunt alternative — Cache().Clear() after every write, dropping the
// whole cache — and prints the hit rate each retains. Every answer in both
// runs is still byte-identical to a fresh computation; invalidation only
// decides what must be recomputed.
//
// Run with: go run ./examples/churn
package main

import (
	"fmt"
	"log"
	"time"

	gir "github.com/girlib/gir"
	"github.com/girlib/gir/internal/datagen"
	"github.com/girlib/gir/internal/engine"
)

const (
	n        = 50000
	d        = 4
	distinct = 48   // distinct preference vectors in the pool
	stream   = 2000 // operations (queries + writes)
	writeMix = 0.05 // fraction of operations that are Insert/Delete
	zipfS    = 1.3
)

func main() {
	pts := datagen.Independent(n, d, 5)
	raw := make([][]float64, len(pts))
	for i, p := range pts {
		raw[i] = p
	}
	ops, queries, writes := engine.NewChurnWorkloadIn(23, d, distinct, zipfS, 0.001, stream, writeMix, 5, 20, false)
	fmt.Printf("workload: %d operations over %d records — %d top-k queries, %d writes (%.1f%%)\n\n",
		stream, n, queries, writes, 100*float64(writes)/float64(stream))

	fine := run("fine-grained invalidation", raw, ops, false)
	flush := run("global flush per write  ", raw, ops, true)

	fmt.Printf("\nwith %.0f%% writes, fine-grained invalidation served %.1f%% of queries from\n",
		100*writeMix, 100*fine)
	fmt.Printf("the cache; flushing the world on every write managed %.1f%%. The regions\n", 100*flush)
	fmt.Println("themselves told us which entries each write could perturb — the rest kept serving.")
}

// run replays the operation stream against a fresh dataset + engine and
// returns the warm hit rate. flushOnWrite clears the cache after every
// write, on top of what the engine does by itself.
func run(name string, raw [][]float64, ops []engine.ChurnOp, flushOnWrite bool) float64 {
	ds, err := gir.NewDataset(raw)
	if err != nil {
		log.Fatal(err)
	}
	e := gir.NewEngine(ds, gir.EngineOptions{CacheCapacity: 2 * distinct})
	defer e.Close()
	for _, o := range ops { // warm the cache with the query side
		if !o.Write {
			if res := e.TopK(o.Query, o.K); res.Err != nil {
				log.Fatal(res.Err)
			}
		}
	}
	warm := e.Stats()
	start := time.Now()
	flushed := 0 // entries the flush arm dropped, on top of the engine's own evictions
	for _, o := range ops {
		switch {
		case o.Write && o.Insert:
			if err := ds.Insert(o.ID, o.Point); err != nil {
				log.Fatal(err)
			}
		case o.Write:
			if _, err := ds.Delete(o.ID, o.Point); err != nil {
				log.Fatal(err)
			}
		default:
			if res := e.TopK(o.Query, o.K); res.Err != nil {
				log.Fatal(res.Err)
			}
		}
		if o.Write && flushOnWrite {
			flushed += e.Cache().Len()
			e.Cache().Clear()
		}
	}
	elapsed := time.Since(start)
	e.Quiesce() // settle the drainer so the eviction counters are final
	st := e.Stats()
	hits := st.CacheHits - warm.CacheHits
	lookups := hits + st.PartialHits - warm.PartialHits + st.Misses - warm.Misses
	rate := float64(hits) / float64(lookups)
	fmt.Printf("%s  %8v   %5d hits / %5d lookups (%.1f%%), %d entries evicted, %d fence vetoes\n",
		name, elapsed.Round(time.Millisecond), hits, lookups, 100*rate,
		st.Invalidated-warm.Invalidated+int64(flushed), st.Fenced-warm.Fenced)
	return rate
}
