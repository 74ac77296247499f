// The -serve -fuse mode benchmarks the fused batched execution path: the
// same Zipf/jitter stream every serving benchmark draws is served in
// batches, unfused (each batch fanned out as per-query Engine.TopK calls —
// every miss a group of one; the baseline is built here from the public
// call, the engine has no switch for it) and fused (BatchTopK:
// cache-missing queries grouped by angular similarity, one shared
// traversal per group). The page-read economics — reads a fused group
// actually paid vs visits served from its shared decode cache — are
// printed per row and written as the BENCH_fusion.json artifact.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	gir "github.com/girlib/gir"
	"github.com/girlib/gir/internal/datagen"
	"github.com/girlib/gir/internal/engine"
)

// fusionRow is one measured configuration of the fused-batch benchmark.
type fusionRow struct {
	Name            string  `json:"name"`
	ElapsedMS       float64 `json:"elapsed_ms"`
	QPS             float64 `json:"qps"`
	Queries         int     `json:"queries"`
	Hits            int64   `json:"hits"`
	Misses          int64   `json:"misses"`
	Deduped         int64   `json:"deduped"`
	PageReads       int64   `json:"page_reads"`
	PageReadsPerQ   float64 `json:"page_reads_per_query"`
	FusedGroups     int64   `json:"fused_groups"`
	FusedQueries    int64   `json:"fused_queries"`
	SharedPageReads int64   `json:"shared_page_reads"`
	AllocsPerQuery  float64 `json:"allocs_per_query"`
	BytesPerQuery   float64 `json:"bytes_per_query"`
}

// fusionReport is the -json artifact (BENCH_fusion.json in CI).
type fusionReport struct {
	Benchmark string       `json:"benchmark"`
	Config    fusionConfig `json:"config"`
	Rows      []fusionRow  `json:"rows"`
}

type fusionConfig struct {
	N         int     `json:"n"`
	D         int     `json:"d"`
	Seed      int64   `json:"seed"`
	Stream    int     `json:"stream"`
	Distinct  int     `json:"distinct"`
	ZipfS     float64 `json:"zipf_s"`
	Jitter    float64 `json:"jitter"`
	Batch     int     `json:"batch"`
	GroupSize int     `json:"group_size"`
	Space     string  `json:"space"`
}

func runFusion(cfg serveConfig, jsonPath string, w io.Writer) error {
	pts := datagen.Independent(cfg.N, cfg.D, cfg.Seed)
	raw := make([][]float64, len(pts))
	for i, p := range pts {
		raw[i] = p
	}
	ds, err := gir.NewDatasetInSpace(raw, cfg.Space)
	if err != nil {
		return err
	}
	st := engine.NewStreamIn(cfg.Seed+1, cfg.D, cfg.Distinct, cfg.ZipfS, 5, 20, cfg.Jitter, cfg.Space == gir.SpaceSimplex)
	qs, ks := st.Draw(cfg.Stream)
	queries := make([]gir.Query, cfg.Stream)
	for i := range queries {
		queries[i] = gir.Query{Vector: qs[i], K: ks[i]}
	}
	batchSize := cfg.Batch
	if batchSize <= 0 {
		batchSize = 64
	}

	fmt.Fprintf(w, "fused-batch benchmark: n=%d d=%d space=%v, %d queries over %d distinct vectors (zipf s=%.2f, jitter %.3g), batches of %d, GOMAXPROCS=%d\n\n",
		cfg.N, cfg.D, cfg.Space, cfg.Stream, cfg.Distinct, cfg.ZipfS, cfg.Jitter, batchSize, runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "%-22s %10s %12s %8s %8s %8s %12s %10s %8s %8s %12s %12s\n",
		"configuration", "elapsed", "queries/s", "hits", "misses", "deduped", "page reads", "reads/query", "groups", "fusedq", "shared reads", "allocs/query")

	var rows []fusionRow
	row := func(name string, run func() (gir.EngineStats, error)) error {
		ds.ResetIOStats()
		var stats gir.EngineStats
		start := time.Now()
		allocs, bytes, err := measureAllocs(func() error {
			var err error
			stats, err = run()
			return err
		})
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		reads := ds.IOStats().PageReads
		r := fusionRow{
			Name:            name,
			ElapsedMS:       float64(elapsed.Microseconds()) / 1000,
			QPS:             float64(cfg.Stream) / elapsed.Seconds(),
			Queries:         cfg.Stream,
			Hits:            stats.CacheHits,
			Misses:          stats.Misses,
			Deduped:         stats.Deduped,
			PageReads:       reads,
			PageReadsPerQ:   float64(reads) / float64(max(1, cfg.Stream)),
			FusedGroups:     stats.FusedGroups,
			FusedQueries:    stats.FusedQueries,
			SharedPageReads: stats.SharedPageReads,
			AllocsPerQuery:  float64(allocs) / float64(max(1, cfg.Stream)),
			BytesPerQuery:   float64(bytes) / float64(max(1, cfg.Stream)),
		}
		rows = append(rows, r)
		fmt.Fprintf(w, "%-22s %10v %12.0f %8d %8d %8d %12d %10.1f %8d %8d %12d %12.1f\n",
			name, elapsed.Round(time.Millisecond), r.QPS, r.Hits, r.Misses, r.Deduped,
			r.PageReads, r.PageReadsPerQ, r.FusedGroups, r.FusedQueries, r.SharedPageReads, r.AllocsPerQuery)
		return nil
	}

	// serveBatches pushes the stream through BatchTopK in fixed-size
	// batches — the shape a scatter/gather tier or an HTTP batch endpoint
	// produces — and surfaces the first error.
	serveBatches := func(e *gir.Engine) (gir.EngineStats, error) {
		for off := 0; off < len(queries); off += batchSize {
			end := min(off+batchSize, len(queries))
			for _, res := range e.BatchTopK(queries[off:end]) {
				if res.Err != nil {
					return gir.EngineStats{}, res.Err
				}
			}
		}
		return e.Stats(), nil
	}

	if err := row("unfused no-cache", func() (gir.EngineStats, error) {
		e := gir.NewEngine(ds, gir.EngineOptions{Workers: cfg.Workers, CacheCapacity: -1})
		defer e.Close()
		errs := make([]error, len(queries))
		for off := 0; off < len(queries); off += batchSize {
			batch := queries[off:min(off+batchSize, len(queries))]
			engine.Fan(len(batch), cfg.Workers, func(i int) {
				errs[off+i] = e.TopK(batch[i].Vector, batch[i].K).Err
			})
		}
		return e.Stats(), errors.Join(errs...)
	}); err != nil {
		return err
	}

	if err := row("fused no-cache", func() (gir.EngineStats, error) {
		e := gir.NewEngine(ds, gir.EngineOptions{Workers: cfg.Workers, CacheCapacity: -1})
		defer e.Close()
		return serveBatches(e)
	}); err != nil {
		return err
	}

	// Fusion under the GIR cache: cold pass fills (every fused member's
	// fill passes through putIfCurrent), warm pass mostly hits — fusion
	// then only serves the leftover misses.
	e := gir.NewEngine(ds, gir.EngineOptions{Workers: cfg.Workers, CacheCapacity: cfg.Distinct * 2})
	defer e.Close()
	if err := row("fused cache (cold)", func() (gir.EngineStats, error) {
		return serveBatches(e)
	}); err != nil {
		return err
	}
	before := e.Stats()
	if err := row("fused cache (warm)", func() (gir.EngineStats, error) {
		after, err := serveBatches(e)
		if err != nil {
			return after, err
		}
		return gir.EngineStats{
			CacheHits:       after.CacheHits - before.CacheHits,
			Misses:          after.Misses - before.Misses,
			Deduped:         after.Deduped - before.Deduped,
			Computed:        after.Computed - before.Computed,
			FusedGroups:     after.FusedGroups - before.FusedGroups,
			FusedQueries:    after.FusedQueries - before.FusedQueries,
			SharedPageReads: after.SharedPageReads - before.SharedPageReads,
		}, nil
	}); err != nil {
		return err
	}

	if len(rows) >= 2 && rows[1].PageReads > 0 {
		fmt.Fprintf(w, "\nfusion read reduction (no-cache): %.1f× fewer page reads, %.2f× throughput\n",
			float64(rows[0].PageReads)/float64(rows[1].PageReads), rows[1].QPS/rows[0].QPS)
	}
	fmt.Fprintln(w, "every fused result is byte-identical to a per-query traversal at the same")
	fmt.Fprintln(w, "dataset version; groups only share page decodes and leaf block-scoring.")

	if jsonPath != "" {
		report := fusionReport{
			Benchmark: "girbench-fusion",
			Config: fusionConfig{
				N: cfg.N, D: cfg.D, Seed: cfg.Seed, Stream: cfg.Stream,
				Distinct: cfg.Distinct, ZipfS: cfg.ZipfS, Jitter: cfg.Jitter,
				Batch: batchSize, GroupSize: 8,
				Space: cfg.Space.String(),
			},
			Rows: rows,
		}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", jsonPath)
	}
	return nil
}
