// Command girbench measures the library two ways. Without -serve it
// regenerates the paper's evaluation figures (Section 8) as printed tables
// — figure N is internal/bench's FigN:
//
//	girbench -fig 15                # one figure
//	girbench                        # all figures
//	girbench -n 1000000 -queries 20 # closer to paper scale
//
// Cells whose skyline/hull sizes would take hours (the paper's own SP/CP
// charts reach 10⁶–10⁸ ms) are printed as skip(reason).
//
// With -serve it runs the serving suite (suite.go): six tables of arms over
// one operation stream, one row schema, one report.
//
//	girbench -serve -json BENCH.json   # every table
//	girbench -serve -table churn       # one of serve, fuse, churn, wal, stall, shard
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/girlib/gir/internal/bench"
)

func main() {
	cfg := bench.Default()
	fig := flag.Int("fig", 0, "figure to reproduce (6, 8, 14, 15, 16, 17, 18, 19); 0 = all")
	serve := flag.Bool("serve", false, "run the serving suite instead of a figure")
	suiteTable := flag.String("table", "", "-serve: run only this table (serve, fuse, churn, wal, stall, shard); default all")
	suiteStream := flag.Int("stream", 4000, "-serve: operations in the stream")
	suiteDistinct := flag.Int("distinct", 64, "-serve: distinct query vectors in the Zipf pool")
	suiteSpace := flag.String("space", "box", "-serve: query-space domain — box ([0,1]^d) or simplex (the paper's Σw=1 convention; queries are sum-normalized)")
	suiteJSON := flag.String("json", "", "-serve: also write the tables to this file as one JSON report (the committed BENCH.json)")
	flag.IntVar(&cfg.N, "n", cfg.N, "synthetic dataset cardinality (paper: 1000000)")
	flag.IntVar(&cfg.Queries, "queries", cfg.Queries, "queries averaged per cell (paper: 100)")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "deterministic seed")
	flag.IntVar(&cfg.RealN, "realn", cfg.RealN, "cap HOUSE/HOTEL surrogate cardinality (0 = paper sizes)")
	flag.DurationVar(&cfg.Budget, "budget", cfg.Budget, "wall-time budget per cell")
	flag.IntVar(&cfg.SkylineCap, "skycap", cfg.SkylineCap, "abort SP/CP cells whose skyline exceeds this")
	dims := flag.String("dims", joinInts(cfg.Dims), "comma-separated dimensionality sweep")
	ks := flag.String("ks", joinInts(cfg.Ks), "comma-separated k sweep")
	nsweep := flag.String("nsweep", joinInts(cfg.NSweep), "comma-separated cardinality sweep (figs 16/18)")
	latency := flag.Duration("iolat", 100*time.Microsecond, "simulated latency per 4KiB page read")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file on exit (go tool pprof)")
	blockProfile := flag.String("blockprofile", "", "write a goroutine-blocking profile to this file on exit (go tool pprof; records every blocking event)")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex-contention profile to this file on exit (go tool pprof; records every contended lock)")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal("bad -cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("-cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			runtime.GC() // flush recent frees so the profile shows live + cumulative allocs accurately
			writeProfile("heap", *memProfile)
		}()
	}
	// The block/mutex collectors are off by default and stay off unless
	// their flag is set — sampling every blocking event costs enough that
	// it must never tax an unprofiled benchmark run.
	if *blockProfile != "" {
		runtime.SetBlockProfileRate(1)
		defer writeProfile("block", *blockProfile)
	}
	if *mutexProfile != "" {
		runtime.SetMutexProfileFraction(1)
		defer writeProfile("mutex", *mutexProfile)
	}

	var err error
	if cfg.Dims, err = parseInts(*dims); err != nil {
		fatal("bad -dims: %v", err)
	}
	if cfg.Ks, err = parseInts(*ks); err != nil {
		fatal("bad -ks: %v", err)
	}
	if cfg.NSweep, err = parseInts(*nsweep); err != nil {
		fatal("bad -nsweep: %v", err)
	}
	cfg.Cost.ReadLatency = *latency

	if *serve {
		scfg := suiteConfig{N: cfg.N, Seed: cfg.Seed, Stream: *suiteStream, Distinct: *suiteDistinct, Space: *suiteSpace}
		if err := runSuite(scfg, *suiteTable, *suiteJSON, os.Stdout); err != nil {
			fatal("%v", err)
		}
		return
	}

	fmt.Printf("girbench: n=%d queries=%d seed=%d budget=%v (paper scale: -n 1000000 -queries 100)\n",
		cfg.N, cfg.Queries, cfg.Seed, cfg.Budget)
	start := time.Now()
	h := bench.New(cfg, os.Stdout)
	if err := h.Run(*fig); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("\ntotal: %v\n", time.Since(start).Round(time.Millisecond))
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "girbench: "+format+"\n", args...)
	os.Exit(1)
}

// writeProfile dumps a named runtime profile ("heap", "block", "mutex") to
// path.
func writeProfile(name, path string) {
	f, err := os.Create(path)
	if err == nil {
		defer f.Close()
		err = pprof.Lookup(name).WriteTo(f, 0)
	}
	if err != nil {
		fatal("writing the %s profile: %v", name, err)
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}
