package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/girlib/gir/internal/datagen"
)

// figureToy is every figure at a scale where the whole group takes seconds.
var figureToy = suiteConfig{N: 3000, Seed: 1, Queries: 3, RealN: 3000, Dims: []int{2, 3, 4, 5}, Ks: []int{5, 20}, NSweep: []int{2000, 3000}}

// figureRun is one run of the figure tables, rows by name.
type figureRun struct {
	t      *testing.T
	rep    report
	tables map[string]map[string]row
}

func runFigures(t *testing.T, cfg suiteConfig, only string) figureRun {
	t.Helper()
	path := t.TempDir() + "/FIGURES.json"
	var out strings.Builder
	if err := runSuite(cfg, true, only, path, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	run := figureRun{t: t, tables: map[string]map[string]row{}}
	if err := json.Unmarshal(data, &run.rep); err != nil {
		t.Fatalf("the report is not valid JSON: %v", err)
	}
	if again, err := json.MarshalIndent(run.rep, "", "  "); err != nil || string(again)+"\n" != string(data) {
		t.Errorf("the file does not round-trip through the report type (err %v)", err)
	}
	for _, tb := range run.rep.Tables {
		run.tables[tb.Name] = map[string]row{}
		for _, r := range tb.Rows {
			run.tables[tb.Name][r.Name] = r
			if !strings.Contains(out.String(), "\n"+r.Name+" ") {
				t.Errorf("%s: %s was not printed", tb.Name, r.Name)
			}
		}
	}
	return run
}

// row is the measured row of that name; a skipped or missing one fails the
// test, since no claim can be held on it.
func (f figureRun) row(table, format string, args ...any) row {
	f.t.Helper()
	name := fmt.Sprintf(format, args...)
	r, ok := f.tables[table][name]
	if !ok || r.Skipped != "" {
		f.t.Fatalf("%s: no measured row %q (found %v, skipped %q)", table, name, ok, r.Skipped)
	}
	return r
}

// TestFigureClaims runs every figure table at toy scale and holds the
// orderings the paper's evaluation claims, on the deterministic columns
// only: sizes, facet counts, log-volumes and page reads repeat bit for bit
// at one seed, so these gate exactly. cpu_ms is recorded, never asserted.
func TestFigureClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("the figure tables are not -short")
	}
	cfg := figureToy
	f := runFigures(t, cfg, "")
	first, last := func(xs []int) int { return xs[0] }, func(xs []int) int { return xs[len(xs)-1] }

	// Every figure is there, with a measured row per kind, cell and sweep
	// value, and no serving column or machine-dependent config in the file.
	t.Run("rows", func(t *testing.T) {
		if c := f.rep.Config; f.rep.Benchmark != "girbench-figures" || c.K != figK || c.D != suiteD || c.SkylineCap != figSkylineCap ||
			c.ReadLatUS != 100 || c.GOMAXPROCS != 0 || c.Stream != 0 {
			t.Errorf("report header: %q %+v", f.rep.Benchmark, c)
		}
		want := map[string]int{"fig6": 3 * 2 * 4, "fig8": 3 * 2 * 4, "fig14a": 3 * 4, "fig14b": 2 * 2, "fig15": 3 * 3 * 4,
			"fig16": 3 * 2, "fig17": 2 * 3 * 2, "fig18": 3 * 2, "fig19": 3 * 2}
		if len(f.rep.Tables) != len(want) {
			t.Fatalf("%d tables, want %d", len(f.rep.Tables), len(want))
		}
		for _, tb := range f.rep.Tables {
			if len(tb.Rows) != want[tb.Name] || len(f.tables[tb.Name]) != len(tb.Rows) {
				t.Errorf("%s: %d rows under %d names, want %d", tb.Name, len(tb.Rows), len(f.tables[tb.Name]), want[tb.Name])
			}
			for _, r := range tb.Rows {
				if r.Skipped != "" || r.Queries < 1 || r.QPS != 0 || r.ElapsedMS != 0 {
					t.Errorf("%s: %s skipped (%q) at toy scale, or carries a serving column: %+v", tb.Name, r.Name, r.Skipped, r)
				}
			}
		}
	})

	// Figure 6: CP keeps a subset of what SP keeps, and both grow with d.
	t.Run("fig6", func(t *testing.T) {
		for _, kind := range synthetic {
			var prev row
			for _, d := range cfg.Dims {
				sp, cp := f.row("fig6", "%s SP d=%d", kind, d), f.row("fig6", "%s CP d=%d", kind, d)
				if sp.SkylineSize != cp.SkylineSize || cp.HullVertices < 1 || cp.HullVertices > cp.SkylineSize {
					t.Errorf("%s d=%d: |SL| %d (SP) %d (CP), |SL∩CH| %d", kind, d, sp.SkylineSize, cp.SkylineSize, cp.HullVertices)
				}
				if cp.SkylineSize < prev.SkylineSize || cp.HullVertices < prev.HullVertices {
					t.Errorf("%s d=%d: |SL| %d, |SL∩CH| %d shrank from %d, %d", kind, d, cp.SkylineSize, cp.HullVertices, prev.SkylineSize, prev.HullVertices)
				}
				prev = cp
			}
		}
	})

	// Figure 8: the facets FP keeps at p_k — its cone's extreme rays on the
	// orthant, the normals of the facets incident to p_k — are never more
	// than the hull it avoids,
	// and from d = 3 strictly less (15 rays against 27 732 facets on IND at
	// d = 5, where the star had 211). There are at least d, as
	// every vertex of a d-polytope lies on d facets. FP need not yield a
	// critical record: where the Phase-1 cone alone bounds the region, no
	// record cuts it.
	t.Run("fig8", func(t *testing.T) {
		for _, kind := range synthetic {
			for _, d := range cfg.Dims {
				full, fp := f.row("fig8", "%s CH′ d=%d", kind, d), f.row("fig8", "%s FP d=%d", kind, d)
				if fp.StarFacets < d || fp.StarFacets > full.HullFacets || (d >= 3 && fp.StarFacets >= full.HullFacets) {
					t.Errorf("%s d=%d: %d star facets (%d critical) against %d on CH′", kind, d, fp.StarFacets, fp.Critical, full.HullFacets)
				}
			}
		}
	})

	// Figure 14: the region's share of the query space falls with d, end to
	// end, and never rises with k, cell by cell: GIR(top-K′) ⊆ GIR(top-K)
	// for K < K′ at every query and the ratio is exact, so the three-query
	// mean cannot rise either. The toy run sweeps two k, the committed
	// FIGURES.json five.
	t.Run("fig14", func(t *testing.T) {
		for _, kind := range synthetic {
			lo, hi := f.row("fig14a", "%s FP d=%d", kind, first(cfg.Dims)), f.row("fig14a", "%s FP d=%d", kind, last(cfg.Dims))
			if !(hi.Log10Volume < lo.Log10Volume && lo.Log10Volume < 0) {
				t.Errorf("%s: log10 volume %.2f at d=%d, %.2f at d=%d", kind, lo.Log10Volume, lo.At, hi.Log10Volume, hi.At)
			}
		}
		data, err := os.ReadFile("../../FIGURES.json")
		if err != nil {
			t.Fatal(err)
		}
		var committed report
		if err := json.Unmarshal(data, &committed); err != nil {
			t.Fatal(err)
		}
		for _, rep := range []report{f.rep, committed} {
			for _, tb := range rep.Tables {
				if tb.Name != "fig14b" {
					continue
				}
				// Rows run by kind, then by ascending k: a k below the
				// previous row's starts the next kind.
				for i, r := range tb.Rows {
					if !(r.Log10Volume < 0) {
						t.Errorf("%s: log10 volume %.2f", r.Name, r.Log10Volume)
					}
					if prev := tb.Rows[max(i-1, 0)]; r.At > prev.At && r.Log10Volume > prev.Log10Volume {
						t.Errorf("%s: log10 volume %.2f rises from %.2f at %s", r.Name, r.Log10Volume, prev.Log10Volume, prev.Name)
					}
				}
			}
		}
	})

	// Figures 15–17: Phase 2 reads FP ≤ CP ≤ SP pages in every cell. The
	// d = 6 HOUSE surrogate at k = 5 held the one exception while FP grew
	// a star wherever four Phase-1 rows left no pointed cone in d = 6 (108
	// pages against SP's 73 here); on the orthant the cone is pointed at
	// every k, and FP reads 12.
	t.Run("reads", func(t *testing.T) {
		check := func(table, cell string, kind datagen.Kind, at int) {
			cp, sp, fp := f.row(table, "%s CP "+cell, kind, at), f.row(table, "%s SP "+cell, kind, at), f.row(table, "%s FP "+cell, kind, at)
			if cp.PageReads > sp.PageReads || cp.PageReads == 0 {
				t.Errorf("%s %s %s=%d: CP read %d pages, SP %d", table, kind, cell[:1], at, cp.PageReads, sp.PageReads)
			}
			if fp.PageReads > cp.PageReads {
				t.Errorf("%s %s %s=%d: FP read %d pages, CP %d", table, kind, cell[:1], at, fp.PageReads, cp.PageReads)
			}
		}
		for _, kind := range synthetic {
			for _, d := range cfg.Dims {
				check("fig15", "d=%d", kind, d)
			}
		}
		for _, n := range cfg.NSweep {
			check("fig16", "n=%d", datagen.IND, n)
		}
		for _, kind := range surrogate {
			for _, k := range cfg.Ks {
				check("fig17", "k=%d", kind, k)
			}
		}
	})

	// Figure 18: GIR* adds the constraints of the removable result records,
	// and pays for them in reads.
	t.Run("fig18", func(t *testing.T) {
		for _, n := range cfg.NSweep {
			for _, m := range []string{"CP", "SP", "FP"} {
				star, plain := f.row("fig18", "IND %s GIR* n=%d", m, n), f.row("fig16", "IND %s n=%d", m, n)
				if star.RMinus < 1 || star.PageReads < plain.PageReads || star.Constraints < plain.Constraints {
					t.Errorf("%s n=%d: GIR* |R⁻| %d, %d reads, %d constraints; GIR %d reads, %d constraints", m, n, star.RMinus, star.PageReads, star.Constraints, plain.PageReads, plain.Constraints)
				}
			}
		}
	})

	// Figure 19: SP needs no linearity — every non-linear cell completes
	// with a region.
	t.Run("fig19", func(t *testing.T) {
		for _, k := range cfg.Ks {
			for _, fn := range []string{"Polynomial", "Mixed", "Linear"} {
				if r := f.row("fig19", "HOTEL SP %s k=%d", fn, k); r.Constraints < 1 || r.SkylineSize < 1 || r.PageReads < 1 {
					t.Errorf("%s k=%d: %d constraints from a skyline of %d over %d reads", fn, k, r.Constraints, r.SkylineSize, r.PageReads)
				}
			}
		}
	})

	// A skyline cap of 1 turns every SP and CP cell into a skipped row that
	// says why, and leaves FP measured — at the same counts as the uncapped
	// run, which is also the two-runs-agree check on everything but the
	// clock.
	t.Run("cap", func(t *testing.T) {
		cfg.SkylineCap = 1
		capped := runFigures(t, cfg, "15")
		for name, r := range capped.tables["fig15"] {
			switch {
			case !strings.Contains(name, " FP "):
				if r.Skipped != "|SL|>1" || r.PageReads != 0 || r.CPUMS != 0 {
					t.Errorf("%s under a cap of 1: %+v", name, r)
				}
			default:
				was := f.row("fig15", name)
				if r.CPUMS, was.CPUMS = 0, 0; !reflect.DeepEqual(r, was) || r.StarFacets == 0 {
					t.Errorf("%s: %+v under the cap, %+v without", name, r, was)
				}
			}
		}
	})
}

// TestCommittedReports holds the two artifacts to the one schema: each is a
// report that re-marshals to the bytes committed, FIGURES.json with every
// figure in it.
func TestCommittedReports(t *testing.T) {
	for file, tables := range map[string]int{"BENCH.json": 5, "FIGURES.json": 9} {
		data, err := os.ReadFile("../../" + file)
		if err != nil {
			t.Fatal(err)
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if again, err := json.MarshalIndent(rep, "", "  "); err != nil || string(again)+"\n" != string(data) || len(rep.Tables) != tables {
			t.Errorf("%s: %d tables (want %d), or not what the report type writes (err %v)", file, len(rep.Tables), tables, err)
		}
	}
}
