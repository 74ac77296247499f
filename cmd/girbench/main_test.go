package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts("2, 3,4")
	if err != nil || len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Errorf("parseInts = %v, %v", got, err)
	}
	if _, err := parseInts("2,x"); err == nil {
		t.Error("bad int accepted")
	}
	got, err = parseInts("5,")
	if err != nil || len(got) != 1 {
		t.Errorf("trailing comma: %v, %v", got, err)
	}
}

func TestJoinInts(t *testing.T) {
	if got := joinInts([]int{1, 2, 3}); got != "1,2,3" {
		t.Errorf("joinInts = %q", got)
	}
	if got := joinInts(nil); got != "" {
		t.Errorf("joinInts(nil) = %q", got)
	}
}

// TestSuiteSmoke runs every table of the serving suite at toy scale in both
// query spaces and holds, per table, the arm names in order and the one
// thing each comparison is there to show; the file it wrote must read back
// through the one report type as what was measured. Exactly the arms whose
// counts depend on goroutine timing are marked so, in the file and in the
// printed table, and a row writes pages exactly when it applies writes.
func TestSuiteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("the serving suite smoke is not -short")
	}
	// The stream must outlast a couple of scheduler ticks, or on one core
	// the stall table's mutator never gets to write beside the readers.
	cfg := suiteConfig{N: 1500, Seed: 7, Stream: 1200, Distinct: 8}
	// The 64-caller arms of serve and fuse, and the stall mutator's.
	timed := map[string]bool{"engine no-cache": true, "engine cache (cold)": true, "engine cache (warm)": true, "unfused no-cache": true, "syncevery=1 churn": true}
	checks := []struct {
		table string
		arms  []string
		check func(t *testing.T, rows []row)
	}{
		{"serve", []string{"sequential no-cache", "engine no-cache", "engine cache (cold)", "engine cache (warm)"}, func(t *testing.T, rows []row) {
			if rows[0].Hits+rows[1].Hits != 0 || rows[0].PageReads == 0 {
				t.Errorf("the no-cache arms hit a cache or read nothing: %+v %+v", rows[0], rows[1])
			}
			if warm := rows[3]; warm.Hits == 0 || warm.AllocsPerOp >= rows[0].AllocsPerOp+400 {
				t.Errorf("warm pass: %d hits, %.1f allocs/op against %.1f sequential — the hot path regressed", warm.Hits, warm.AllocsPerOp, rows[0].AllocsPerOp)
			}
		}},
		{"fuse", []string{"unfused no-cache", "fused no-cache", "fused cache (cold)", "fused cache (warm)"}, func(t *testing.T, rows []row) {
			unfused, fused := rows[0], rows[1]
			if unfused.FusedGroups != 0 || unfused.SharedPageReads != 0 {
				t.Errorf("the per-query arm recorded fused activity: %+v", unfused)
			}
			if fused.FusedGroups == 0 || fused.FusedQueries == 0 || fused.SharedPageReads == 0 {
				t.Errorf("the batched arm fused nothing: %+v", fused)
			}
			if fused.PageReads >= unfused.PageReads {
				t.Errorf("fusion read %d pages, the per-query arm %d", fused.PageReads, unfused.PageReads)
			}
			if rows[3].Hits == 0 {
				t.Error("warm fused pass served no cache hits")
			}
		}},
		{"churn", []string{"fine-grained", "global flush"}, func(t *testing.T, rows []row) {
			for _, r := range rows {
				if r.Affected != r.Invalidated {
					t.Errorf("%s: affected %d != invalidated %d", r.Name, r.Affected, r.Invalidated)
				}
				if r.Hits == 0 || r.Writes == 0 {
					t.Errorf("%s: %d hits, %d writes — the cache never matched a region or the stream carried no churn", r.Name, r.Hits, r.Writes)
				}
				if r.RefusedFills > r.Recomputes {
					t.Errorf("%s: %d refused fills of %d recomputes", r.Name, r.RefusedFills, r.Recomputes)
				}
			}
		}},
		{"wal", []string{"no-wal", "wal (sync every 1)", "wal (sync every 32)"}, func(t *testing.T, rows []row) {
			if r := rows[0]; r.SyncEvery != 0 || r.WALBytes != 0 || r.WALRecords != 0 || r.Recovered {
				t.Errorf("the no-wal arm carries log state: %+v", r)
			}
			for i, r := range rows {
				if r.Writes == 0 || r.WriteP50US <= 0 || r.WriteP99US < r.WriteP50US {
					t.Errorf("%s: bad write latencies: %+v", r.Name, r)
				}
				if i > 0 && (!r.Recovered || r.WALRecords != int64(r.Writes) || r.WALBytes == 0) {
					t.Errorf("%s: recovered=%v with %d records, %d bytes logged for %d writes", r.Name, r.Recovered, r.WALRecords, r.WALBytes, r.Writes)
				}
			}
			if rows[1].SyncEvery != 1 || rows[2].SyncEvery != 32 {
				t.Errorf("sync_every = %d, %d", rows[1].SyncEvery, rows[2].SyncEvery)
			}
		}},
		{"stall", []string{"read-only", "syncevery=1 churn"}, func(t *testing.T, rows []row) {
			for _, r := range rows {
				if r.Queries != cfg.Stream || r.P50US <= 0 || r.P99US < r.P50US || r.P999US < r.P99US || r.MaxUS < r.P999US {
					t.Errorf("%s: unordered or empty read percentiles: %+v", r.Name, r)
				}
			}
			if rows[0].Writes != 0 {
				t.Errorf("the read-only arm saw %d writes", rows[0].Writes)
			}
			if rows[1].Writes == 0 || !rows[1].Recovered {
				t.Errorf("the churn arm: %d durable writes, recovered=%v — the mutator never ran or its log does not replay", rows[1].Writes, rows[1].Recovered)
			}
		}},
	}

	for _, space := range []string{"box", "simplex"} {
		t.Run(space, func(t *testing.T) {
			cfg := cfg
			cfg.Space = space
			path := t.TempDir() + "/BENCH.json"
			var out strings.Builder
			if err := runSuite(cfg, false, "", path, &out); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var rep report
			if err := json.Unmarshal(data, &rep); err != nil {
				t.Fatalf("the report is not valid JSON: %v", err)
			}
			if rep.Benchmark != "girbench-serve" || rep.Config.Space != space || rep.Config.N != cfg.N ||
				rep.Config.D != suiteD || rep.Config.WriteMix != suiteWriteMix || rep.Config.WALGroup != suiteWALGroup ||
				rep.Config.WriteRate != suiteWriteRate || rep.Config.FsyncDelayMS != 2 {
				t.Errorf("report header: %q %+v", rep.Benchmark, rep.Config)
			}
			again, err := json.MarshalIndent(rep, "", "  ")
			if err != nil || string(again)+"\n" != string(data) {
				t.Errorf("the file does not round-trip through the report type (err %v)", err)
			}
			if len(rep.Tables) != len(checks) {
				t.Fatalf("%d tables, want %d", len(rep.Tables), len(checks))
			}
			for i, c := range checks {
				tb := rep.Tables[i]
				t.Run(c.table, func(t *testing.T) {
					if tb.Name != c.table || len(tb.Rows) != len(c.arms) {
						t.Fatalf("table %d is %q with %d rows, want %q with %d", i, tb.Name, len(tb.Rows), c.table, len(c.arms))
					}
					for j, r := range tb.Rows {
						if r.Name != c.arms[j] {
							t.Errorf("arm %d is %q, want %q", j, r.Name, c.arms[j])
						}
						// Only the stall mutator writes outside the stream.
						if inStream := r.Queries + r.Writes; r.QPS <= 0 || r.AllocsPerOp < 0 || r.Queries > cfg.Stream ||
							(inStream != cfg.Stream && c.table != "stall") {
							t.Errorf("%s: bad volume or throughput for a %d-op stream: %+v", r.Name, cfg.Stream, r)
						}
						if !strings.Contains(out.String(), "\n"+r.Name) {
							t.Errorf("%s was not printed", r.Name)
						}
						if r.Timed != timed[r.Name] || strings.Contains(out.String(), "\n"+r.Name+" †") != timed[r.Name] {
							t.Errorf("%s: marked timing-dependent %v, want %v, in the file or the printed table", r.Name, r.Timed, timed[r.Name])
						}
						if (r.PageWrites > 0) != (r.Writes > 0) {
							t.Errorf("%s: %d page writes for %d writes", r.Name, r.PageWrites, r.Writes)
						}
					}
					c.check(t, tb.Rows)
				})
			}
		})
	}
}

// TestSuiteTableFlag holds -table and -fig: one name runs one table (one
// number that figure's), an unknown one is an error that lists what there
// is, and so are sizes no stream can be drawn from or no cell measured at.
func TestSuiteTableFlag(t *testing.T) {
	cfg := suiteConfig{N: 400, Seed: 3, Stream: 60, Distinct: 4, Space: "box"}
	var out strings.Builder
	if err := runSuite(cfg, false, "wal", "", &out); err != nil {
		t.Fatal(err)
	}
	if s := out.String(); !strings.Contains(s, "\nwal —") || strings.Contains(s, "\nserve —") {
		t.Errorf("-table wal printed:\n%s", s)
	}
	if err := runSuite(cfg, false, "burst", "", &out); err == nil || !strings.Contains(err.Error(), "serve, fuse, churn, wal, stall") {
		t.Errorf("unknown table: %v", err)
	}
	for _, bad := range []suiteConfig{{N: 400, Stream: 60, Distinct: 0, Space: "box"}, {N: 400, Stream: 60, Distinct: 4, Space: "sphere"}, {N: 400, Distinct: 4, Space: "box"}} {
		if err := runSuite(bad, false, "", "", &out); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}

	out.Reset()
	tiny := suiteConfig{N: 400, Seed: 1, Queries: 1, RealN: 400, Dims: []int{2, 3}, Ks: []int{5}, NSweep: []int{300}}
	if err := runSuite(tiny, true, "14", "", &out); err != nil {
		t.Fatal(err)
	}
	if s := out.String(); !strings.Contains(s, "\nfig14a —") || !strings.Contains(s, "\nfig14b —") || strings.Contains(s, "\nfig15 —") {
		t.Errorf("-fig 14 printed:\n%s", s)
	}
	if err := runSuite(tiny, true, "99", "", &out); err == nil || !strings.Contains(err.Error(), "6, 8, 14, 15, 16, 17, 18, 19") {
		t.Errorf("unknown figure: %v", err)
	}
	// Each of these was a panic from the command line, or tables of nothing.
	for _, bad := range []struct {
		fig  string
		edit func(*suiteConfig)
	}{
		{"15", func(c *suiteConfig) { c.Queries = 0 }},                 // -fig 15 -queries 0: divide by zero
		{"15", func(c *suiteConfig) { c.N = 0 }},                       // -fig 15 -n 0: k out of range
		{"16", func(c *suiteConfig) { c.NSweep = []int{5} }},           // -fig 16 -nsweep 5
		{"17", func(c *suiteConfig) { c.RealN, c.Ks = 10, []int{20} }}, // -fig 17 -realn 10 -ks 20
		{"", func(c *suiteConfig) { c.Dims = []int{1} }},               // -dims 1: no hull below d = 2
		{"", func(c *suiteConfig) { c.Dims = nil }},                    // -dims ,: three empty tables, exit 0
		{"17", func(c *suiteConfig) { c.Ks = []int{0} }},               // k = 0
	} {
		cfg := tiny
		bad.edit(&cfg)
		if err := runSuite(cfg, true, bad.fig, "", &out); err == nil || !strings.HasPrefix(err.Error(), "bad size:") {
			t.Errorf("-fig %q with %+v: %v", bad.fig, cfg, err)
		}
	}
	// What a figure does not build is not checked against it.
	tiny.NSweep = []int{5}
	if err := runSuite(tiny, true, "6", "", &out); err != nil {
		t.Errorf("-fig 6 refused over -nsweep, which it never reads: %v", err)
	}
}

// TestLatSummaryNearestRank pins the one percentile rule reads and writes
// share: the q-quantile of n sorted samples is the one at index ⌊q·n⌋,
// clamped to the last — so p50 of an even count is the upper median, and a
// tail quantile of a short sample is its maximum.
func TestLatSummaryNearestRank(t *testing.T) {
	if n, s := newLatRecorder(0).summarize(); n != 0 || s != (latSummary{}) {
		t.Errorf("empty recorder: %d %+v", n, s)
	}
	l := newLatRecorder(4)
	for _, us := range []int{40, 10, 30, 20} { // recorded out of order
		l.add(time.Duration(us) * time.Microsecond)
	}
	if n, s := l.summarize(); n != 4 || s != (latSummary{P50US: 30, P99US: 40, P999US: 40, MaxUS: 40, MeanUS: 25}) {
		t.Errorf("4 samples: %d %+v", n, s)
	}
	l = newLatRecorder(1000)
	for us := 1; us <= 1000; us++ {
		l.add(time.Duration(us) * time.Microsecond)
	}
	if n, s := l.summarize(); n != 1000 || s != (latSummary{P50US: 501, P99US: 991, P999US: 1000, MaxUS: 1000, MeanUS: 500.5}) {
		t.Errorf("1000 samples: %d %+v", n, s)
	}
}
