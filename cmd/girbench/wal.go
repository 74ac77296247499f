// The -serve -wal mode prices durability: the same mixed read/write
// stream as the churn benchmark runs against a plain in-memory dataset
// (the no-WAL baseline), a write-ahead log fsyncing every append
// (SyncEvery=1 — each acknowledged write is durable), and a group-commit
// log (SyncEvery=N). The columns that matter are per-write latency p50/p99
// and the overall operation rate; the gap between the three rows is what
// crash safety costs at each durability level. Every WAL row ends with a
// checkpoint + full recovery whose recovered cardinality must match the
// live dataset — the benchmark doubles as an end-to-end replay check.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	gir "github.com/girlib/gir"
	"github.com/girlib/gir/internal/datagen"
	"github.com/girlib/gir/internal/engine"
)

// walRow is one measured durability configuration.
type walRow struct {
	Name        string  `json:"name"`
	SyncEvery   int     `json:"sync_every"` // 0 = no WAL
	ElapsedMS   float64 `json:"elapsed_ms"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	QPS         float64 `json:"qps"`
	Queries     int     `json:"queries"`
	Writes      int     `json:"writes"`
	WriteP50US  float64 `json:"write_p50_us"`
	WriteP99US  float64 `json:"write_p99_us"`
	WriteMeanUS float64 `json:"write_mean_us"`
	WALRecords  int64   `json:"wal_records"`
	WALBytes    int64   `json:"wal_bytes"`
	Recovered   bool    `json:"recovered"` // checkpoint + Recover round-trip matched
}

// walReport is the -json artifact (BENCH_wal.json in CI).
type walReport struct {
	Benchmark string    `json:"benchmark"`
	Config    walConfig `json:"config"`
	Rows      []walRow  `json:"rows"`
}

type walConfig struct {
	N         int     `json:"n"`
	D         int     `json:"d"`
	Seed      int64   `json:"seed"`
	Stream    int     `json:"stream"`
	Distinct  int     `json:"distinct"`
	ZipfS     float64 `json:"zipf_s"`
	Jitter    float64 `json:"jitter"`
	Churn     float64 `json:"churn"`
	SyncEvery int     `json:"sync_every"`
	Space     string  `json:"space"`
}

func runWAL(cfg serveConfig, churn float64, syncEvery int, jsonPath string, w io.Writer) error {
	pts := datagen.Independent(cfg.N, cfg.D, cfg.Seed)
	raw := make([][]float64, len(pts))
	for i, p := range pts {
		raw[i] = p
	}
	ops, queries, writes := engine.NewChurnWorkloadIn(
		cfg.Seed+1, cfg.D, cfg.Distinct, cfg.ZipfS, cfg.Jitter, cfg.Stream, churn, 5, 20,
		cfg.Space == gir.SpaceSimplex)

	fmt.Fprintf(w, "wal benchmark: n=%d d=%d space=%v, %d operations (%d queries, %d writes = %.1f%%), group commit every %d\n\n",
		cfg.N, cfg.D, cfg.Space, cfg.Stream, queries, writes, 100*float64(writes)/float64(max(1, cfg.Stream)), syncEvery)
	fmt.Fprintf(w, "%-22s %10s %10s %10s %12s %12s %12s %10s\n",
		"configuration", "elapsed", "ops/s", "queries/s", "write p50", "write p99", "wal bytes", "recovered")

	var rows []walRow
	measure := func(name string, walSync int) error {
		ds, err := gir.NewDatasetInSpace(raw, cfg.Space)
		if err != nil {
			return err
		}
		defer ds.Close()
		var walDir string
		if walSync > 0 {
			walDir, err = os.MkdirTemp("", "girbench-wal-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(walDir)
			if err := ds.EnableWAL(walDir, gir.WALOptions{SyncEvery: walSync}); err != nil {
				return err
			}
		}

		lat := make([]time.Duration, 0, writes)
		start := time.Now()
		for _, op := range ops {
			switch {
			case op.Write && op.Insert:
				t0 := time.Now()
				if err := ds.Insert(op.ID, op.Point); err != nil {
					return err
				}
				lat = append(lat, time.Since(t0))
			case op.Write:
				t0 := time.Now()
				if _, err := ds.Delete(op.ID, op.Point); err != nil {
					return err
				}
				lat = append(lat, time.Since(t0))
			default:
				if _, err := ds.TopK(op.Query, op.K); err != nil {
					return err
				}
			}
		}
		elapsed := time.Since(start)

		row := walRow{
			Name:      name,
			SyncEvery: walSync,
			ElapsedMS: float64(elapsed.Microseconds()) / 1000,
			OpsPerSec: float64(cfg.Stream) / elapsed.Seconds(),
			QPS:       float64(queries) / elapsed.Seconds(),
			Queries:   queries,
			Writes:    writes,
		}
		if len(lat) > 0 {
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			var sum time.Duration
			for _, d := range lat {
				sum += d
			}
			pct := func(p float64) float64 {
				i := int(p * float64(len(lat)-1))
				return float64(lat[i].Nanoseconds()) / 1e3
			}
			row.WriteP50US = pct(0.50)
			row.WriteP99US = pct(0.99)
			row.WriteMeanUS = float64(sum.Nanoseconds()) / 1e3 / float64(len(lat))
		}

		if walSync > 0 {
			st := ds.WALStats()
			row.WALRecords, row.WALBytes = st.Records, st.Bytes
			// End-to-end sanity: checkpoint, then recover the directory into
			// a fresh dataset and require the same cardinality. A benchmark
			// that measures a broken durability path is worse than no number.
			if err := ds.Checkpoint(walDir); err != nil {
				return err
			}
			rec, err := gir.Recover(walDir, gir.WALOptions{SyncEvery: walSync})
			if err != nil {
				return fmt.Errorf("post-run recovery failed: %v", err)
			}
			if rec.Len() != ds.Len() {
				rec.Close()
				return fmt.Errorf("post-run recovery holds %d points, live dataset %d", rec.Len(), ds.Len())
			}
			rec.Close()
			row.Recovered = true
		}

		rows = append(rows, row)
		fmt.Fprintf(w, "%-22s %10v %10.0f %10.0f %9.1fµs %9.1fµs %12d %10v\n",
			name, elapsed.Round(time.Millisecond), row.OpsPerSec, row.QPS,
			row.WriteP50US, row.WriteP99US, row.WALBytes, row.Recovered)
		return nil
	}

	if err := measure("no-wal", 0); err != nil {
		return err
	}
	if err := measure("wal (sync every 1)", 1); err != nil {
		return err
	}
	if syncEvery > 1 {
		if err := measure(fmt.Sprintf("wal (sync every %d)", syncEvery), syncEvery); err != nil {
			return err
		}
	}

	base, every1 := rows[0], rows[1]
	if base.WriteP99US > 0 {
		fmt.Fprintf(w, "\nper-append fsync costs %.1fx at the write p99 (%.1fµs vs %.1fµs without a WAL)",
			every1.WriteP99US/base.WriteP99US, every1.WriteP99US, base.WriteP99US)
		if len(rows) > 2 {
			g := rows[2]
			fmt.Fprintf(w, "; group commit every %d recovers to %.1fµs", g.SyncEvery, g.WriteP99US)
		}
		fmt.Fprintln(w, ".")
	}

	if jsonPath != "" {
		report := walReport{
			Benchmark: "girbench-wal",
			Config: walConfig{
				N: cfg.N, D: cfg.D, Seed: cfg.Seed, Stream: cfg.Stream,
				Distinct: cfg.Distinct, ZipfS: cfg.ZipfS, Jitter: cfg.Jitter,
				Churn: churn, SyncEvery: syncEvery, Space: cfg.Space.String(),
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
