// Command girbench measures the library: one harness (suite.go), two groups
// of tables, one row schema, one report. Without -serve the tables are the
// paper's evaluation figures (Section 8; figures.go):
//
//	girbench -fig 15                # one figure
//	girbench -json FIGURES.json     # all figures
//	girbench -n 1000000 -queries 20 # closer to paper scale
//
// Cells whose skyline/hull sizes would take hours (the paper's own SP/CP
// charts reach 10⁶–10⁸ ms) are `skipped` rows that say why.
//
// With -serve they are the serving tables: arms over one operation stream.
//
//	girbench -serve -json BENCH.json   # every table
//	girbench -serve -table churn       # one of serve, fuse, churn, wal, stall
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
)

func main() {
	var cfg suiteConfig
	fig := flag.Int("fig", 0, "figure to reproduce (6, 8, 14, 15, 16, 17, 18, 19); 0 = all")
	serve := flag.Bool("serve", false, "run the serving tables instead of the figures")
	suiteTable := flag.String("table", "", "-serve: run only this table (serve, fuse, churn, wal, stall); default all")
	suiteStream := flag.Int("stream", 4000, "-serve: operations in the stream")
	suiteDistinct := flag.Int("distinct", 64, "-serve: distinct query vectors in the Zipf pool")
	suiteSpace := flag.String("space", "box", "-serve: query-space domain — box ([0,1]^d) or simplex (the paper's Σw=1 convention; queries are sum-normalized)")
	suiteJSON := flag.String("json", "", "also write the tables to this file as one JSON report (the committed FIGURES.json and BENCH.json)")
	flag.IntVar(&cfg.N, "n", 100_000, "synthetic dataset cardinality (paper: 1000000)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "deterministic seed")
	queries := flag.Int("queries", 5, "figures: queries averaged per cell (paper: 100)")
	realN := flag.Int("realn", 0, "figures: cap HOUSE/HOTEL surrogate cardinality (0 = paper sizes)")
	dims := flag.String("dims", "2,3,4,5,6,7,8", "figures: comma-separated dimensionality sweep")
	ks := flag.String("ks", "5,10,20,50,100", "figures: comma-separated k sweep")
	nsweep := flag.String("nsweep", "50000,100000,500000,1000000,2000000", "figures: comma-separated cardinality sweep (figs 16/18)")
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

	only := *suiteTable
	if *serve {
		cfg.Stream, cfg.Distinct, cfg.Space = *suiteStream, *suiteDistinct, *suiteSpace
	} else {
		only = ""
		if *fig != 0 {
			only = strconv.Itoa(*fig)
		}
		ints := func(name, csv string) []int {
			xs, err := parseInts(csv)
			if err != nil {
				fatal("bad -%s: %v", name, err)
			}
			return xs
		}
		cfg.Queries, cfg.RealN = *queries, *realN
		cfg.Dims, cfg.Ks, cfg.NSweep = ints("dims", *dims), ints("ks", *ks), ints("nsweep", *nsweep)
	}
	if err := runSuite(cfg, !*serve, only, *suiteJSON, os.Stdout); err != nil {
		fatal("%v", err)
	}
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
