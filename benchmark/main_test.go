package main

import (
	"bufio"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// placeholderRE matches a template slot left unfilled (SOME_NUMBER): neither
// document has another use for upper-case words joined by underscores.
var placeholderRE = regexp.MustCompile(`\b[A-Z]+(_[A-Z]+)+\b`)

// TestDocsAreFilledIn fails on a measured value the documents promise and
// do not give.
func TestDocsAreFilledIn(t *testing.T) {
	for _, path := range []string{"README.md", "NOISE.md"} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range placeholderRE.FindAll(raw, -1) {
			t.Errorf("%s still holds the placeholder %s", path, m)
		}
	}
}

// TestManifestMatchesCode holds BENCHMARK.json and the code together: the
// same workloads, the same metrics with the same units and directions.
func TestManifestMatchesCode(t *testing.T) {
	mf, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if mf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the benchmark's default is %d", mf.RunSeconds, defaultSeconds)
	}
	if len(mf.Workloads) != len(workloadNames) {
		t.Fatalf("manifest lists %d workloads, the benchmark runs %d", len(mf.Workloads), len(workloadNames))
	}
	for i, w := range mf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in the manifest, %q in the benchmark", i, w.Name, workloadNames[i])
		}
	}
	if len(mf.EndToEnd) != len(endToEnd) {
		t.Fatalf("manifest lists %d end-to-end metrics, the benchmark prints %d", len(mf.EndToEnd), len(endToEnd))
	}
	for i, m := range mf.EndToEnd {
		if m.Name != endToEnd[i] {
			t.Errorf("end-to-end metric %d is %q in the manifest, %q in the benchmark", i, m.Name, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 { // the driver's maximum
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(mf.PerLayer) != len(perLayer) {
		t.Fatalf("manifest lists %d per-layer metrics, the benchmark prints %d", len(mf.PerLayer), len(perLayer))
	}
	for i, m := range mf.PerLayer {
		want := perLayer[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per-layer metric %d is %s/%s/%s in the manifest, %s/%s/%s in the benchmark",
				i, m.Name, m.Unit, m.Better, want.name, want.unit, want.better)
		}
		if !nameRE.MatchString(m.Name) {
			t.Errorf("%q is not a metric name the driver accepts", m.Name)
		}
	}
}

// TestSmoke runs every workload at tiny scale, untraced once and traced
// twice: no op may fail, every metric must be there with its unit, exact
// counts must repeat, and the span file must parse with every child inside
// its parent.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, name := range workloadNames {
		e := newEnv(tiny, 1, out)
		w, err := newWorkload(e, name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := measure(w, tiny, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 || res.broken != "" || res.attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d, %s", name, res.attempted, res.failed, res.broken)
		}
		line := res.contract()
		for _, m := range endToEnd {
			if v, ok := line.Metrics[m]; !ok || v.Unit == "" || v.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is missing, unitless or zero: %+v", name, m, v)
			}
		}
		if len(line.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics printed, want %d", name, len(line.Metrics), len(endToEnd))
		}

		runs := make([]*traced, 2)
		if raceOn {
			runs = runs[:1]
		}
		for i := range runs {
			e := newEnv(tiny, 1, out)
			w, err := newWorkload(e, name)
			if err != nil {
				t.Fatal(err)
			}
			if runs[i], err = traceRun(e, w); err != nil {
				t.Fatal(err)
			}
			if runs[i].failed != 0 {
				t.Errorf("%s traced: %d failed ops", name, runs[i].failed)
			}
		}
		traced := runs[0].contract()
		if len(traced.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics printed, want %d", name, len(traced.Metrics), len(perLayer))
		}
		for _, m := range perLayer {
			a, b := runs[0].vals[m.name], runs[len(runs)-1].vals[m.name]
			if m.exact && m.slack == 0 && a != b {
				t.Errorf("%s: exact count %s read %v then %v", name, m.name, a, b)
			}
			if traced.Metrics[m.name].Unit != m.unit {
				t.Errorf("%s: %s has unit %q, want %q", name, m.name, traced.Metrics[m.name].Unit, m.unit)
			}
		}
		checkSpanFile(t, runs[0].file)
	}
	if left, _ := os.ReadDir(out); len(left) != len(workloadNames) {
		t.Errorf("%d entries left in the output directory, want only the %d span files", len(left), len(workloadNames))
	}
}

func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: line %d: %v", path, len(spans)+1, err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	children := 0
	for i, s := range spans {
		if s.ID != i+1 || s.End < s.Start || s.Name == "" || s.Op == 0 {
			t.Fatalf("%s: malformed span %+v at line %d", path, s, i+1)
		}
		if s.Parent == 0 {
			continue
		}
		children++
		if p := spans[s.Parent-1]; s.Start < p.Start || s.End > p.End || s.Op != p.Op {
			t.Errorf("%s: span %+v is not inside its parent %+v", path, s, p)
		}
	}
	if children == 0 {
		t.Errorf("%s: no span has a parent: the replay recorded nothing", path)
	}
}
