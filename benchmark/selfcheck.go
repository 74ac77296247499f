package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// manifest is the part of BENCHMARK.json the benchmark reads back.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// runSelfcheck does to the benchmark what the driver does before accepting
// it: the suite runs n times twice over — set A and set B, alternating, the
// same code; run i of either set uses seed+i — and per workload and
// end-to-end metric it prints the two medians, how much worse B's is than
// A's (the gap a regression gate would see from noise alone), and each set's
// interquartile range as a share of its median. It fails if a gap or a
// spread exceeds the metric's bound in BENCHMARK.json.
func runSelfcheck(o options, n int) error {
	mf, err := readManifest("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("selfcheck reads the bounds from BENCHMARK.json in the current directory: %w", err)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for i := 0; i < 2*n; i++ {
		set := i % 2
		for _, name := range o.workloads() {
			e := newEnv(o.sz, o.seed+int64(i/2), o.outDir)
			w, err := newWorkload(e, name)
			if err != nil {
				return err
			}
			res, err := measure(w, o.sz, o.roundDur())
			if err != nil {
				return err
			}
			if res.failed > 0 || res.broken != "" {
				return fmt.Errorf("%s: %d failed ops %s", name, res.failed, res.broken)
			}
			for m, v := range res.metrics {
				sets[set][key{name, m}] = append(sets[set][key{name, m}], v.v)
			}
			fmt.Fprintf(os.Stderr, "selfcheck: run %d of %d (set %c) %s done\n", i/2+1, n, 'A'+set, name)
		}
	}

	fmt.Printf("Noise self-check: %d runs per set on seeds %d..%d, %d s per workload, GOMAXPROCS %d on %d CPUs.\n\n",
		n, o.seed, o.seed+int64(n)-1, o.seconds, runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Println("`gap` is how much worse set B's median is than set A's, as a share of A's; `iqr` is a set's interquartile range (`statistics.quantiles(n=4)`) as a share of its median, which for `setup_s` the driver does not gate.")
	fmt.Println()
	fmt.Println("| workload | metric | median A | median B | gap | iqr A | iqr B | bound |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	var over []string
	for _, name := range o.workloads() {
		for _, m := range mf.EndToEnd {
			a, b := sets[0][key{name, m.Name}], sets[1][key{name, m.Name}]
			ma, mb := median(a), median(b)
			gap := (mb - ma) / ma
			if m.Better == "higher" {
				gap = -gap
			}
			fmt.Printf("| %s | %s | %.5g | %.5g | %+.4f | %.4f | %.4f | %.2f |\n",
				name, m.Name, ma, mb, gap, iqrShare(a), iqrShare(b), m.Bound)
			if math.Abs(gap) > m.Bound { // the same code on both sides: better by that much is the same disagreement
				over = append(over, fmt.Sprintf("%s/%s gap %+.4f over bound %.2f", name, m.Name, gap, m.Bound))
			}
			if wide := max(iqrShare(a), iqrShare(b)); wide > m.Bound && m.Name != "setup_s" {
				over = append(over, fmt.Sprintf("%s/%s iqr %.4f over bound %.2f", name, m.Name, wide, m.Bound))
			}
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("runs of the same code disagree by more than the bounds:\n  %s", strings.Join(over, "\n  "))
	}
	return nil
}

// iqrShare is the interquartile range over the median, with the quartiles
// Python's statistics.quantiles(xs, n=4) gives (the driver's): position
// p*(n+1) in the sorted sample, interpolated.
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		at := p*float64(len(s)+1) - 1
		lo := min(max(int(math.Floor(at)), 0), len(s)-2)
		return s[lo] + (at-float64(lo))*(s[lo+1]-s[lo])
	}
	return (q(0.75) - q(0.25)) / median(xs)
}
