// Command benchmark is the repository's benchmark: four closed-loop
// workloads driven by one client goroutine against the embedded library,
// every result checked against the benchmark's own brute-force oracle.
//
//	go run ./benchmark                       all four workloads, untraced: the end-to-end metrics
//	go run ./benchmark -trace                the traced run: per-layer metrics and span files
//	go run ./benchmark -workload fill_cold   one workload
//	go run ./benchmark -check-exact          every exact count must repeat bit for bit
//	go run ./benchmark -selfcheck 5          two alternating sets of 5 suite runs must agree within the bounds
//
// See README.md in this directory for the run protocol and what each
// metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// defaultSeconds is the measured time per workload (BENCHMARK.json
// run_seconds): ten rounds of at least a tenth of it each.
const defaultSeconds = 15

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	sz       sizes
	outDir   string
}

func main() {
	// One client, at most two cores: the second serves the engine's drainer
	// and batch_scan's second worker, and more would only add scheduler noise.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	var o options
	var scale string
	var trace int
	var checkExact bool
	var selfcheck int
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all four)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the traffic: draws from the pools, jitter, scripts and inserted records")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "measured seconds per workload, split over the rounds")
	flag.IntVar(&trace, "trace", 0, "1 = the traced run (per-layer metrics, span files); bare -trace means 1")
	flag.StringVar(&scale, "scale", "full", "full, or tiny (the smoke test's scale)")
	flag.StringVar(&o.outDir, "out", "benchmark/out", "directory for span files and the durable workload's temporary files")
	flag.BoolVar(&checkExact, "check-exact", false, "run the traced pass of each workload twice and require identical exact counts")
	flag.IntVar(&selfcheck, "selfcheck", 0, "run the suite N times twice over and require the two sets to agree within the bounds")
	if err := flag.CommandLine.Parse(bareTrace(os.Args[1:])); err != nil {
		os.Exit(2)
	}
	o.trace = trace != 0
	switch scale {
	case "full":
		o.sz = full
	case "tiny":
		o.sz = tiny
	default:
		fmt.Fprintf(os.Stderr, "benchmark: unknown -scale %q (want full or tiny)\n", scale)
		os.Exit(2)
	}

	var err error
	switch {
	case checkExact:
		err = runCheckExact(o)
	case selfcheck > 0:
		err = runSelfcheck(o, selfcheck)
	default:
		err = run(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// bareTrace lets "-trace" stand alone: the driver passes "--trace 0|1", a
// person types "-trace". A bare flag gets the value 1.
func bareTrace(args []string) []string {
	out := make([]string, 0, len(args)+1)
	for i, a := range args {
		out = append(out, a)
		if a != "-trace" && a != "--trace" {
			continue
		}
		if i+1 == len(args) || (args[i+1] != "0" && args[i+1] != "1") {
			out = append(out, "1")
		}
	}
	return out
}

func (o options) roundDur() time.Duration {
	if o.sz.rounds == 1 {
		return 0 // tiny: one pass is the round
	}
	return time.Duration(o.seconds) * time.Second / time.Duration(o.sz.rounds)
}

func (o options) workloads() []string {
	if o.workload != "" {
		return []string{o.workload}
	}
	return workloadNames
}

// errFailed is returned after the metrics are printed when any op failed or
// a workload invariant broke.
var errFailed = fmt.Errorf("failed ops or a broken run: see the report above")

// run executes the selected workloads, printing a report and, last, one
// JSON line per workload in the driver's form.
func run(o options, out io.Writer) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	fmt.Fprintf(out, "benchmark: seed %d, n %d, %d rounds of at least %v, GOMAXPROCS %d, one client goroutine\n",
		o.seed, o.sz.n, o.sz.rounds, o.roundDur(), runtime.GOMAXPROCS(0))
	e := newEnv(o.sz, o.seed, o.outDir)
	sound := true
	for _, name := range o.workloads() {
		w, err := newWorkload(e, name)
		if err != nil {
			return err
		}
		var line contractLine
		if o.trace {
			tr, err := traceRun(e, w)
			if err != nil {
				return err
			}
			tr.print(out)
			line = tr.contract()
		} else {
			res, err := measure(w, o.sz, o.roundDur())
			if err != nil {
				return err
			}
			res.print(out)
			line = res.contract()
		}
		sound = sound && line.Correct
		js, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", js)
	}
	if !sound {
		return errFailed
	}
	return nil
}

// contractLine is the driver's result object.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) contract() contractLine {
	line := contractLine{
		Correct: r.failed == 0 && r.broken == "", Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]contractMetric{},
	}
	for name, v := range r.metrics {
		line.Metrics[name] = contractMetric{Value: v.v, Unit: v.unit}
	}
	return line
}

func (r *result) print(out io.Writer) {
	fmt.Fprintf(out, "\n%s: attempted %d, failed %d; hit ratio %.4f\n", r.workload, r.attempted, r.failed, r.hitRatio)
	if r.broken != "" {
		fmt.Fprintf(out, "  BROKEN RUN: %s\n", r.broken)
	}
	for _, name := range endToEnd {
		printValue(out, name, r.metrics[name])
	}
	fmt.Fprintln(out, "  on the wall clock, not gated:")
	printValue(out, "setup_s", r.wallSetup)
	printValue(out, "ops_per_s", r.wallRate)
	printValue(out, "lat_p50_us", r.p50us)
	printValue(out, "lat_p95_us", r.p95us)
	printValue(out, "lat_p99_us", r.p99us)
	fmt.Fprintln(out, "  round passes samples      ops_per_s    on the wall  cpu_stolen     lat_p50_us     lat_p95_us")
	for i, rd := range r.rounds {
		fmt.Fprintf(out, "  %5d %6d %7d %14.4f %14.4f %11.4f %14.4f %14.4f\n", i+1, rd.passes, rd.samples, rd.rate(), rd.wallRate, rd.stolen, rd.p50, rd.p95)
	}
}

func printValue(out io.Writer, name string, v value) {
	fmt.Fprintf(out, "  %-24s %14.4f %-4s", name, v.v, v.unit)
	if v.samples > 1 {
		fmt.Fprintf(out, "  median of %d, round_spread [%.4f, %.4f]", v.samples, v.lo, v.hi)
	}
	fmt.Fprintln(out)
}
