// The -serve -churn mode benchmarks the serving layer under a mixed
// read/write workload: a fraction of the operation stream is Insert/Delete
// churn, and the question is how much of the warm-cache hit rate survives.
// Fine-grained invalidation (what the Engine does) evicts only the entries
// a mutation can actually perturb; the "global flush" row is the
// clear-the-world alternative, built here from public calls — the same
// engine with Cache().Clear() after every write — because the engine has
// no switch for it. With -json the measured rows are also written
// as a machine-readable artifact (BENCH_serve.json in CI), so the serving
// perf trajectory accumulates across commits.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	gir "github.com/girlib/gir"
	"github.com/girlib/gir/internal/datagen"
	"github.com/girlib/gir/internal/engine"
)

// churnRow is one measured configuration, printed and serialized. The
// latency block samples each query's individual service time (mutations
// are not sampled — the write-side percentiles live in the -wal rows);
// note that this mode issues mutations inline in the operation loop, so
// writer-induced reader stalls do not appear here — the -stall mode runs
// a dedicated concurrent mutator to expose exactly those.
type churnRow struct {
	Name        string  `json:"name"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	QPS         float64 `json:"qps"`
	Queries     int     `json:"queries"`
	Writes      int     `json:"writes"`
	Hits        int64   `json:"hits"`
	Partial     int64   `json:"partial"`
	Misses      int64   `json:"misses"`
	HitRate     float64 `json:"hit_rate"`
	Affected    int64   `json:"affected"`
	Repaired    int64   `json:"repaired"`
	Invalidated int64   `json:"invalidated"`
	Fenced      int64   `json:"fenced"`
	Recomputes  int64   `json:"recomputes"`
	PageReads   int64   `json:"page_reads"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	latSummary
}

// churnReport is the -json artifact.
type churnReport struct {
	Benchmark string      `json:"benchmark"`
	Config    churnConfig `json:"config"`
	Rows      []churnRow  `json:"rows"`
}

type churnConfig struct {
	N        int     `json:"n"`
	D        int     `json:"d"`
	Seed     int64   `json:"seed"`
	Stream   int     `json:"stream"`
	Distinct int     `json:"distinct"`
	ZipfS    float64 `json:"zipf_s"`
	Jitter   float64 `json:"jitter"`
	Churn    float64 `json:"churn"`
	Repair   bool    `json:"repair"`
	Space    string  `json:"space"`
}

func runChurn(cfg serveConfig, churn float64, repair bool, jsonPath string, w io.Writer) error {
	pts := datagen.Independent(cfg.N, cfg.D, cfg.Seed)
	raw := make([][]float64, len(pts))
	for i, p := range pts {
		raw[i] = p
	}
	ops, queries, writes := engine.NewChurnWorkloadIn(
		cfg.Seed+1, cfg.D, cfg.Distinct, cfg.ZipfS, cfg.Jitter, cfg.Stream, churn, 5, 20,
		cfg.Space == gir.SpaceSimplex)

	fmt.Fprintf(w, "churn benchmark: n=%d d=%d space=%v, %d operations (%d queries, %d writes = %.1f%%) over %d distinct vectors (zipf s=%.2f)\n\n",
		cfg.N, cfg.D, cfg.Space, cfg.Stream, queries, writes, 100*float64(writes)/float64(max(1, cfg.Stream)), cfg.Distinct, cfg.ZipfS)
	fmt.Fprintf(w, "%-22s %10s %10s %8s %8s %8s %9s %9s %12s %10s %8s %8s %8s %8s\n",
		"configuration", "elapsed", "queries/s", "hits", "misses", "hitrate", "repaired", "evicted", "fence-vetos", "recomputes", "reads", "p50", "p99", "p99.9")

	var rows []churnRow
	measure := func(name string, flushOnWrite, repairMode bool) error {
		ds, err := gir.NewDatasetInSpace(raw, cfg.Space)
		if err != nil {
			return err
		}
		e := gir.NewEngine(ds, gir.EngineOptions{
			Workers: cfg.Workers, CacheCapacity: cfg.Distinct * 2, RepairMode: repairMode,
		})
		defer e.Close()
		var flushed int64 // entries the flush arm dropped, on top of the engine's own evictions
		// Warm: serve the whole query side once so the cache is populated
		// before churn begins (the steady state a long-running server is in).
		for _, op := range ops {
			if !op.Write {
				if res := e.TopK(op.Query, op.K); res.Err != nil {
					return res.Err
				}
			}
		}
		warm := e.Stats()
		ds.ResetIOStats()
		lat := newLatRecorder(queries)
		start := time.Now()
		allocs, bytes, err := measureAllocs(func() error {
			for _, op := range ops {
				switch {
				case op.Write && op.Insert:
					if err := ds.Insert(op.ID, op.Point); err != nil {
						return err
					}
				case op.Write:
					if _, err := ds.Delete(op.ID, op.Point); err != nil {
						return err
					}
				default:
					qStart := time.Now()
					res := e.TopK(op.Query, op.K)
					lat.add(time.Since(qStart))
					if res.Err != nil {
						return res.Err
					}
				}
				if op.Write && flushOnWrite {
					flushed += int64(e.Cache().Len())
					e.Cache().Clear()
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		e.Quiesce() // settle the drainer so Invalidated/Fenced are deterministic
		st := e.Stats()
		row := churnRow{
			Name:        name,
			ElapsedMS:   float64(elapsed.Microseconds()) / 1000,
			QPS:         float64(queries) / elapsed.Seconds(),
			Queries:     queries,
			Writes:      writes,
			Hits:        st.CacheHits - warm.CacheHits,
			Partial:     st.PartialHits - warm.PartialHits,
			Misses:      st.Misses - warm.Misses,
			Affected:    st.Affected - warm.Affected + flushed,
			Repaired:    st.Repaired - warm.Repaired,
			Invalidated: st.Invalidated - warm.Invalidated + flushed,
			Fenced:      st.Fenced - warm.Fenced,
			Recomputes:  st.Computed - warm.Computed,
			PageReads:   ds.IOStats().PageReads,
			AllocsPerOp: float64(allocs) / float64(max(1, cfg.Stream)),
			BytesPerOp:  float64(bytes) / float64(max(1, cfg.Stream)),
			latSummary:  lat.summarize(),
		}
		if lookups := row.Hits + row.Partial + row.Misses; lookups > 0 {
			row.HitRate = float64(row.Hits) / float64(lookups)
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-22s %10v %10.0f %8d %8d %7.1f%% %9d %9d %12d %10d %8d %7.0fµ %7.0fµ %7.0fµ\n",
			name, elapsed.Round(time.Millisecond), row.QPS, row.Hits, row.Misses,
			100*row.HitRate, row.Repaired, row.Invalidated, row.Fenced, row.Recomputes, row.PageReads,
			row.P50US, row.P99US, row.P999US)
		return nil
	}

	if repair {
		if err := measure("repair", false, true); err != nil {
			return err
		}
	}
	if err := measure("fine-grained", false, false); err != nil {
		return err
	}
	if err := measure("global flush", true, false); err != nil {
		return err
	}

	fg, gf := rows[len(rows)-2], rows[len(rows)-1]
	fmt.Fprintf(w, "\nfine-grained invalidation retains %.1f%% warm hit rate under %.1f%% writes (global flush: %.1f%%);\n",
		100*fg.HitRate, 100*float64(writes)/float64(max(1, cfg.Stream)), 100*gf.HitRate)
	fmt.Fprintf(w, "each write evicted only the cached regions it could perturb (%d evictions across %d writes).\n",
		fg.Invalidated, writes)
	if repair {
		rp := rows[0]
		fmt.Fprintf(w, "repair-instead-of-evict: %.1f%% hit rate with %d full recomputes (eviction: %.1f%% with %d) — %d of %d affected entries were patched in place.\n",
			100*rp.HitRate, rp.Recomputes, 100*fg.HitRate, fg.Recomputes, rp.Repaired, rp.Affected)
	}

	if jsonPath != "" {
		report := churnReport{
			Benchmark: "girbench-serve-churn",
			Config: churnConfig{
				N: cfg.N, D: cfg.D, Seed: cfg.Seed, Stream: cfg.Stream,
				Distinct: cfg.Distinct, ZipfS: cfg.ZipfS, Jitter: cfg.Jitter, Churn: churn,
				Repair: repair, Space: cfg.Space.String(),
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
