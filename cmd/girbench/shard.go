// The -serve -shards mode benchmarks the horizontally partitioned
// serving tier (internal/shard): the same churn stream is driven through
// a single-partition coordinator and an N-partition one, so the artifact
// prices exactly what partitioning costs (scatter/gather merge overhead)
// and what it buys (partition-parallel evaluation), with per-partition
// throughput and skew for the rebalancing story. With -json the rows are
// written as the CI BENCH_shard.json artifact.
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
	"github.com/girlib/gir/internal/shard"
)

// shardPartRow is one partition's slice of a measured row.
type shardPartRow struct {
	Part    int     `json:"part"`
	Records int     `json:"records"`
	Lookups int64   `json:"lookups"`
	Hits    int64   `json:"hits"`
	HitRate float64 `json:"hit_rate"`
	QPS     float64 `json:"qps"`
	Version int64   `json:"version"`
}

// shardRow is one measured configuration (a shard count).
type shardRow struct {
	Name             string         `json:"name"`
	Shards           int            `json:"shards"`
	ElapsedMS        float64        `json:"elapsed_ms"`
	QPS              float64        `json:"qps"`
	Queries          int            `json:"queries"`
	Writes           int            `json:"writes"`
	Hits             int64          `json:"hits"`
	Partial          int64          `json:"partial"`
	Misses           int64          `json:"misses"`
	HitRate          float64        `json:"hit_rate"`
	RecordSkew       float64        `json:"record_skew"`
	LookupSkew       float64        `json:"lookup_skew"`
	MergeOverheadPct float64        `json:"merge_overhead_pct"` // QPS lost vs the -shards 1 row (negative = faster)
	Parts            []shardPartRow `json:"parts"`
}

// shardReport is the -json artifact (BENCH_shard.json in CI).
type shardReport struct {
	Benchmark string      `json:"benchmark"`
	Config    shardConfig `json:"config"`
	Rows      []shardRow  `json:"rows"`
}

type shardConfig struct {
	N        int     `json:"n"`
	D        int     `json:"d"`
	Seed     int64   `json:"seed"`
	Stream   int     `json:"stream"`
	Distinct int     `json:"distinct"`
	ZipfS    float64 `json:"zipf_s"`
	Jitter   float64 `json:"jitter"`
	Churn    float64 `json:"churn"`
	Shards   int     `json:"shards"`
	Space    string  `json:"space"`
}

func runShard(cfg serveConfig, churn float64, shards int, jsonPath string, w io.Writer) error {
	pts := datagen.Independent(cfg.N, cfg.D, cfg.Seed)
	raw := make([][]float64, len(pts))
	for i, p := range pts {
		raw[i] = p
	}
	ops, queries, writes := engine.NewChurnWorkloadIn(
		cfg.Seed+1, cfg.D, cfg.Distinct, cfg.ZipfS, cfg.Jitter, cfg.Stream, churn, 5, 20,
		cfg.Space == gir.SpaceSimplex)

	fmt.Fprintf(w, "shard benchmark: n=%d d=%d space=%v, %d operations (%d queries, %d writes) over %d distinct vectors, 1 vs %d partitions\n\n",
		cfg.N, cfg.D, cfg.Space, cfg.Stream, queries, writes, cfg.Distinct, shards)
	fmt.Fprintf(w, "%-14s %10s %10s %8s %8s %8s %10s %10s %10s\n",
		"configuration", "elapsed", "queries/s", "hits", "misses", "hitrate", "rec-skew", "look-skew", "merge-ovh")

	var rows []shardRow
	measure := func(parts int) error {
		c, err := shard.New(raw, shard.Options{
			Parts: parts,
			Space: cfg.Space,
			Engine: gir.EngineOptions{
				Workers: cfg.Workers, CacheCapacity: cfg.Distinct * 2,
			},
		})
		if err != nil {
			return err
		}
		defer c.Close()
		// Warm: serve the query side once so every partition's cache is
		// populated before the measured churn pass.
		for _, op := range ops {
			if !op.Write {
				if res := c.TopK(op.Query, op.K); res.Err != nil {
					return res.Err
				}
			}
		}
		warm := c.Stats()
		start := time.Now()
		for _, op := range ops {
			switch {
			case op.Write && op.Insert:
				if err := c.Insert(op.ID, op.Point); err != nil {
					return err
				}
			case op.Write:
				if _, err := c.Delete(op.ID, op.Point); err != nil {
					return err
				}
			default:
				if res := c.TopK(op.Query, op.K); res.Err != nil {
					return res.Err
				}
			}
		}
		elapsed := time.Since(start)
		c.Quiesce()
		st := c.Stats()
		row := shardRow{
			Name:       fmt.Sprintf("%d shard(s)", parts),
			Shards:     parts,
			ElapsedMS:  float64(elapsed.Microseconds()) / 1000,
			QPS:        float64(queries) / elapsed.Seconds(),
			Queries:    queries,
			Writes:     writes,
			Hits:       st.Aggregate.CacheHits - warm.Aggregate.CacheHits,
			Partial:    st.Aggregate.PartialHits - warm.Aggregate.PartialHits,
			Misses:     st.Aggregate.Misses - warm.Aggregate.Misses,
			RecordSkew: st.RecordSkew,
			LookupSkew: st.LookupSkew,
		}
		if lookups := row.Hits + row.Partial + row.Misses; lookups > 0 {
			row.HitRate = float64(row.Hits) / float64(lookups)
		}
		for i, ps := range st.Parts {
			pr := shardPartRow{
				Part:    ps.Part,
				Records: ps.Records,
				Lookups: ps.Lookups - warm.Parts[i].Lookups,
				Hits:    ps.Engine.CacheHits - warm.Parts[i].Engine.CacheHits,
				Version: ps.Version,
			}
			if pr.Lookups > 0 {
				pr.HitRate = float64(pr.Hits) / float64(pr.Lookups)
				pr.QPS = float64(pr.Lookups) / elapsed.Seconds()
			}
			row.Parts = append(row.Parts, pr)
		}
		if len(rows) > 0 && rows[0].QPS > 0 {
			row.MergeOverheadPct = 100 * (rows[0].QPS - row.QPS) / rows[0].QPS
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-14s %10v %10.0f %8d %8d %7.1f%% %10.2f %10.2f %9.1f%%\n",
			row.Name, elapsed.Round(time.Millisecond), row.QPS, row.Hits, row.Misses,
			100*row.HitRate, row.RecordSkew, row.LookupSkew, row.MergeOverheadPct)
		return nil
	}

	if err := measure(1); err != nil {
		return err
	}
	if shards > 1 {
		if err := measure(shards); err != nil {
			return err
		}
	}

	last := rows[len(rows)-1]
	fmt.Fprintf(w, "\n%d-partition scatter/gather retains %.1f%% hit rate at %.1f%% merge overhead vs one partition; record skew %.2f, lookup skew %.2f.\n",
		last.Shards, 100*last.HitRate, last.MergeOverheadPct, last.RecordSkew, last.LookupSkew)

	if jsonPath != "" {
		report := shardReport{
			Benchmark: "girbench-serve-shard",
			Config: shardConfig{
				N: cfg.N, D: cfg.D, Seed: cfg.Seed, Stream: cfg.Stream,
				Distinct: cfg.Distinct, ZipfS: cfg.ZipfS, Jitter: cfg.Jitter,
				Churn: churn, Shards: shards, Space: cfg.Space.String(),
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
