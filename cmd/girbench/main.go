// Command girbench regenerates the paper's evaluation figures as printed
// tables (see DESIGN.md §3 for the per-figure index and EXPERIMENTS.md for
// paper-vs-measured comparisons).
//
// Usage:
//
//	girbench -fig 15                # one figure
//	girbench                        # all figures
//	girbench -n 1000000 -queries 20 # closer to paper scale
//
// Cells whose skyline/hull sizes would take hours (the paper's own SP/CP
// charts reach 10⁶–10⁸ ms) are printed as skip(reason).
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

	gir "github.com/girlib/gir"
	"github.com/girlib/gir/internal/bench"
)

func main() {
	cfg := bench.Default()
	fig := flag.Int("fig", 0, "figure to reproduce (6, 8, 14, 15, 16, 17, 18, 19); 0 = all")
	serve := flag.Bool("serve", false, "run the concurrent serving benchmark (engine + sharded GIR cache) instead of a figure")
	serveStream := flag.Int("stream", 4000, "-serve: queries in the served stream")
	serveDistinct := flag.Int("distinct", 64, "-serve: distinct query vectors in the Zipf pool")
	serveZipf := flag.Float64("zipf", 1.3, "-serve: Zipf skew parameter (> 1)")
	serveJitter := flag.Float64("jitter", 0.001, "-serve: gaussian query jitter (0 = exact repeats only)")
	serveBatch := flag.Int("batch", 64, "-serve: queries per BatchTopK call")
	serveWorkers := flag.Int("workers", 0, "-serve: engine worker-pool size (0 = GOMAXPROCS)")
	serveChurn := flag.Float64("churn", 0, "-serve: fraction of operations that are Insert/Delete writes (> 0 runs the churn benchmark)")
	serveRepair := flag.Bool("repair", false, "-serve -churn: also measure RepairMode (repair-instead-of-evict cache maintenance) as a third configuration")
	serveWAL := flag.Bool("wal", false, "-serve -churn: benchmark write-ahead-log durability (no-wal vs per-append fsync vs group commit) instead of cache maintenance")
	serveShards := flag.Int("shards", 0, "-serve: benchmark the horizontally partitioned scatter/gather tier with this many partitions vs a single partition (> 1)")
	serveFuse := flag.Bool("fuse", false, "-serve: benchmark the fused batched execution path (BatchTopK with angular-similarity grouping and shared page scans) against the per-query fan (the BENCH_fusion.json artifact)")
	serveStall := flag.Bool("stall", false, "-serve: benchmark read tail latency against a dedicated mutator goroutine doing SyncEvery=1 durable writes (the BENCH_latency.json artifact)")
	serveWriteRate := flag.Int("writerate", 200, "-serve -stall: the concurrent mutator's target durable-write rate per second")
	serveFsyncDelay := flag.Duration("fsyncdelay", 2*time.Millisecond, "-serve -stall: simulated extra fsync latency per durable write (a spinning disk's fsync; 0 = the real filesystem only)")
	serveWALSync := flag.Int("walsync", 32, "-serve -wal: group-commit interval for the third row (fsync once per this many appends)")
	serveSpace := flag.String("space", "box", "-serve: query-space domain — box ([0,1]^d) or simplex (the paper's Σw=1 convention; queries are sum-normalized)")
	serveJSON := flag.String("json", "", "-serve: also write the measured rows to this file as JSON (the CI BENCH_hotpath.json / BENCH_serve.json / BENCH_repair.json / BENCH_simplex.json artifact)")
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
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal("bad -memprofile: %v", err)
			}
			defer f.Close()
			runtime.GC() // flush recent frees so the profile shows live + cumulative allocs accurately
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal("-memprofile: %v", err)
			}
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
		if *serveZipf <= 1 {
			fatal("bad -zipf: %v (the Zipf skew parameter must be > 1)", *serveZipf)
		}
		if *serveDistinct < 1 {
			fatal("bad -distinct: %d (need at least one query vector)", *serveDistinct)
		}
		if *serveStream < 0 {
			fatal("bad -stream: %d", *serveStream)
		}
		if *serveChurn < 0 || *serveChurn >= 1 {
			fatal("bad -churn: %v (want a write fraction in [0, 1))", *serveChurn)
		}
		space, err := gir.ParseSpace(*serveSpace)
		if err != nil {
			fatal("bad -space: %v", err)
		}
		scfg := serveConfig{
			N: cfg.N, D: 4, Seed: cfg.Seed,
			Stream: *serveStream, Distinct: *serveDistinct,
			ZipfS: *serveZipf, Jitter: *serveJitter,
			Batch: *serveBatch, Workers: *serveWorkers,
			Space: space,
		}
		if *serveWAL && *serveChurn == 0 {
			fatal("-wal prices the write path and needs a write mix: add -churn (e.g. -churn 0.05)")
		}
		if *serveWALSync < 1 {
			fatal("bad -walsync: %d (want a group-commit interval ≥ 1)", *serveWALSync)
		}
		if *serveShards < 0 || *serveShards == 1 {
			fatal("bad -shards: %d (want a partition count > 1, or 0 for the unsharded benchmarks)", *serveShards)
		}
		if *serveShards > 1 && (*serveWAL || *serveRepair) {
			fatal("-shards is its own benchmark; drop -wal/-repair")
		}
		if *serveStall && (*serveWAL || *serveRepair || *serveShards > 1 || *serveChurn > 0) {
			fatal("-stall is its own benchmark (it brings its own concurrent mutator); drop -wal/-repair/-shards/-churn")
		}
		if *serveFuse && (*serveWAL || *serveRepair || *serveShards > 1 || *serveChurn > 0 || *serveStall) {
			fatal("-fuse is its own benchmark; drop -wal/-repair/-shards/-churn/-stall")
		}
		if *serveWriteRate < 1 {
			fatal("bad -writerate: %d (want at least one write per second)", *serveWriteRate)
		}
		if *serveFsyncDelay < 0 {
			fatal("bad -fsyncdelay: %v", *serveFsyncDelay)
		}
		switch {
		case *serveFuse:
			err = runFusion(scfg, *serveJSON, os.Stdout)
		case *serveStall:
			err = runStall(scfg, *serveWriteRate, *serveFsyncDelay, *serveJSON, os.Stdout)
		case *serveShards > 1:
			err = runShard(scfg, *serveChurn, *serveShards, *serveJSON, os.Stdout)
		case *serveWAL:
			err = runWAL(scfg, *serveChurn, *serveWALSync, *serveJSON, os.Stdout)
		case *serveChurn > 0:
			err = runChurn(scfg, *serveChurn, *serveRepair, *serveJSON, os.Stdout)
		default:
			err = runServe(scfg, *serveJSON, os.Stdout)
		}
		if err != nil {
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

// writeProfile dumps a named runtime profile ("block", "mutex") to path.
func writeProfile(name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fatal("bad -%sprofile: %v", name, err)
	}
	defer f.Close()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fatal("-%sprofile: %v", name, err)
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
