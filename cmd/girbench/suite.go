// The suite is every table girbench measures, in two groups that share the
// row, the report, the printer, the -json writer and the size check.
//
// The serving tables (-serve) measure the serving side: one deterministic
// operation stream (Zipf-popular top-k queries, optionally mixed with
// Insert/Delete writes) is issued by one driver against one target at a
// time, and every comparison the README makes is a table of arms — rows that
// differ in the target they open and the way the stream is issued, never in
// how they are timed, counted, printed or written (BENCH.json is the
// committed report). The figure tables (figures.go) are the paper's
// evaluation: their arms are Phase-2 computations over generated data, one
// row per arm and sweep value (FIGURES.json).
package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	gir "github.com/girlib/gir"
	"github.com/girlib/gir/internal/datagen"
	"github.com/girlib/gir/internal/engine"
	girint "github.com/girlib/gir/internal/gir"
	"github.com/girlib/gir/internal/pager"
)

// What CI, the README and the tests only ever ran at one value is a
// constant of the suite, recorded in every report's config block.
const (
	suiteD          = 4
	suiteZipfS      = 1.3   // Zipf skew of query popularity
	suiteJitter     = 0.001 // gaussian nudge: near-repeats that land inside a cached region
	suiteInflight   = 64    // concurrent callers of an in-flight arm = queries per BatchTopK call
	suiteWriteMix   = 0.05  // share of operations that are writes in the churn and wal streams
	suiteWALGroup   = 32    // group-commit interval of the third wal arm
	suiteWriteRate  = 200   // the stall mutator's durable writes per second
	suiteFsyncDelay = 2 * time.Millisecond
	suiteKMin       = 5
	suiteKMax       = 20
)

// suiteConfig is what the command line chooses, plus the constants of the
// group being run (above, and in figures.go) as the report records them.
type suiteConfig struct {
	N    int   `json:"n"`
	D    int   `json:"d"` // the serving dimensionality, and the figures' default d
	Seed int64 `json:"seed"`

	Stream       int     `json:"stream,omitempty"`
	Distinct     int     `json:"distinct,omitempty"`
	Space        string  `json:"space,omitempty"`
	ZipfS        float64 `json:"zipf_s,omitempty"`
	Jitter       float64 `json:"jitter,omitempty"`
	Inflight     int     `json:"inflight,omitempty"`
	WriteMix     float64 `json:"write_mix,omitempty"`
	WALGroup     int     `json:"wal_group,omitempty"`
	WriteRate    int     `json:"write_rate,omitempty"`
	FsyncDelayMS float64 `json:"fsync_delay_ms,omitempty"`
	GOMAXPROCS   int     `json:"gomaxprocs,omitempty"` // serving only: no figure column depends on it

	Queries     int     `json:"queries,omitempty"` // per figure cell
	K           int     `json:"k,omitempty"`       // the figures' default k
	RealN       int     `json:"realn,omitempty"`   // cap on the HOUSE/HOTEL surrogates; 0 = the paper's sizes
	Dims        []int   `json:"dims,omitempty"`
	Ks          []int   `json:"ks,omitempty"`
	NSweep      []int   `json:"nsweep,omitempty"`
	SkylineCap  int     `json:"skyline_cap,omitempty"`
	FacetBudget int     `json:"facet_budget,omitempty"`
	ReadLatUS   float64 `json:"read_latency_us,omitempty"`
}

// Where an arm's stream goes.
const (
	same    = iota // the previous arm's target again: the warm pass of a cold one
	bare           // a Dataset: every query traverses
	engined        // an Engine over a Dataset: cache, single-flight, drain
)

// arm is one row of a table: a target and a way of issuing the stream —
// by default one caller, one operation a call, in stream order.
type arm struct {
	name    string
	on      int
	callers int  // > 1: that many concurrent callers, each operation still one call
	batched bool // reads go in BatchTopK calls of up to suiteInflight consecutive ones
	warm    bool // serve the stream's reads once, untimed, before measuring

	nocache bool // engined: caching off
	flush   bool // engined: clear the whole cache after every write (the flush-the-world baseline the engine has no switch for)
	walSync int  // > 0: log to a temporary directory, fsync every walSync appends; the arm ends with a checkpoint and a recovery
	mutator bool // writes come from a paced concurrent goroutine, and every fsync takes suiteFsyncDelay longer (a spinning disk)
}

// table is one comparison: its arms over one stream, or — a figure table —
// its kinds × cells over one sweep. The same value is the definition and,
// once run, the result (Rows).
type table struct {
	Name     string  `json:"name"`
	Figure   int     `json:"figure,omitempty"`
	Compares string  `json:"compares"`
	WriteMix float64 `json:"write_mix,omitempty"`
	Sweep    string  `json:"sweep,omitempty"` // d, n or k: the variable a figure row's `at` is a value of
	Rows     []row   `json:"rows"`
	arms     []arm

	kinds   []datagen.Kind
	cells   []cellArm
	queries int  // queries per cell where not -queries: Figures 6 and 8 plot one query's counts
	volume  bool // also measure each region's volume ratio
}

var suiteTables = []table{
	{Name: "serve", Compares: "a traversal per query vs the engine without and with the GIR cache, cold then warm", arms: []arm{
		{name: "sequential no-cache", on: bare},
		{name: "engine no-cache", on: engined, nocache: true, callers: suiteInflight},
		{name: "engine cache (cold)", on: engined, callers: suiteInflight},
		{name: "engine cache (warm)", on: same, callers: suiteInflight},
	}},
	{Name: "fuse", Compares: "per-query calls vs BatchTopK (in-batch dedupe, angularly similar misses sharing one traversal)", arms: []arm{
		{name: "unfused no-cache", on: engined, nocache: true, callers: suiteInflight},
		{name: "fused no-cache", on: engined, nocache: true, batched: true},
		{name: "fused cache (cold)", on: engined, batched: true},
		{name: "fused cache (warm)", on: same, batched: true},
	}},
	{Name: "churn", Compares: "what a warm cache keeps under writes: evict what a write can perturb vs flush everything", WriteMix: suiteWriteMix, arms: []arm{
		{name: "fine-grained", on: engined, warm: true},
		{name: "global flush", on: engined, flush: true, warm: true},
	}},
	{Name: "wal", Compares: "what durability costs a write: no log vs an fsync per append vs group commit", WriteMix: suiteWriteMix, arms: []arm{
		{name: "no-wal", on: bare},
		{name: "wal (sync every 1)", on: bare, walSync: 1},
		{name: fmt.Sprintf("wal (sync every %d)", suiteWALGroup), on: bare, walSync: suiteWALGroup},
	}},
	{Name: "stall", Compares: "read tail latency alone vs beside a writer that fsyncs every append: readers pin a snapshot and never wait for it", arms: []arm{
		{name: "read-only", on: bare},
		{name: "syncevery=1 churn", on: bare, walSync: 1, mutator: true},
	}},

	{Name: "fig6", Figure: 6, Sweep: "d", Compares: "what SP and CP keep of D\\R: |SL| (the SP rows) and |SL∩CH| (the CP rows) vs d, one query", queries: 1,
		kinds: synthetic, cells: []cellArm{{method: girint.SP}, {method: girint.CP}}},
	{Name: "fig8", Figure: 8, Sweep: "d", Compares: "facets of the full hull CH′ of {p_k} ∪ D\\R vs the facets incident to p_k that FP builds, and its critical records, one query", queries: 1,
		kinds: synthetic, cells: []cellArm{{full: true}, {method: girint.FP}}},
	{Name: "fig14a", Figure: 14, Sweep: "d", Compares: "log10 of the GIR's share of the query space vs d, synthetic data", volume: true,
		kinds: synthetic, cells: []cellArm{{method: girint.FP}}},
	{Name: "fig14b", Figure: 14, Sweep: "k", Compares: "log10 of the GIR's share of the query space vs k, the HOTEL and HOUSE surrogates", volume: true,
		kinds: surrogate, cells: []cellArm{{method: girint.FP}}},
	{Name: "fig15", Figure: 15, Sweep: "d", Compares: "Phase-2 CPU time and page reads of CP, SP and FP vs d", kinds: synthetic, cells: cpSpFp},
	{Name: "fig16", Figure: 16, Sweep: "n", Compares: "Phase-2 CPU time and page reads of CP, SP and FP vs cardinality (the paper sweeps 0.5M–20M)", kinds: synthetic[:1], cells: cpSpFp},
	{Name: "fig17", Figure: 17, Sweep: "k", Compares: "Phase-2 CPU time and page reads of CP, SP and FP vs k, the HOTEL and HOUSE surrogates", kinds: surrogate, cells: cpSpFp},
	{Name: "fig18", Figure: 18, Sweep: "n", Compares: "the order-insensitive GIR* vs cardinality: fig16's cells, with the constraints of the |R⁻| removable result records", kinds: synthetic[:1],
		cells: []cellArm{{method: girint.CP, star: true}, {method: girint.SP, star: true}, {method: girint.FP, star: true}}},
	{Name: "fig19", Figure: 19, Sweep: "k", Compares: "SP, the one method that needs no linearity, under non-linear monotone scoring functions (Section 7.2) vs k on HOTEL", kinds: surrogate[:1],
		cells: []cellArm{{method: girint.SP, fn: "Polynomial"}, {method: girint.SP, fn: "Mixed"}, {method: girint.SP, fn: "Linear"}}},
}

// row is one measured arm. Counters are deltas over the timed pass (a warm
// pass, or the cold arm before a warm one, is not in them); columns that do
// not apply to an arm are zero and left out of the file. A read sample is
// one TopK call or one BatchTopK call; a write sample one Insert or Delete.
// A figure row is one cell: its Phase-2 page reads summed over its queries,
// and the columns from `at` down.
type row struct {
	Name      string  `json:"name"`
	Timed     bool    `json:"timing_dependent,omitempty"` // concurrent callers or the stall mutator interleave with the stream: its counts, not only its clocks, differ between runs
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
	QPS       float64 `json:"qps,omitempty"`         // queries / elapsed
	OpsPerSec float64 `json:"ops_per_sec,omitempty"` // (queries + writes) / elapsed, on rows with writes
	Queries   int     `json:"queries"`
	Writes    int     `json:"writes,omitempty"` // Inserts and Deletes applied during the pass, in-stream or by the mutator
	Hits      int64   `json:"hits,omitempty"`
	Partial   int64   `json:"partial,omitempty"`
	Misses    int64   `json:"misses,omitempty"`
	HitRate   float64 `json:"hit_rate,omitempty"`
	PageReads int64   `json:"page_reads"`
	latSummary
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`

	Deduped      int64 `json:"deduped,omitempty"`
	Recomputes   int64 `json:"recomputes,omitempty"`
	RefusedFills int64 `json:"refused_fills,omitempty"` // recomputed regions the cache turned away: a write drained after their traversal
	Affected     int64 `json:"affected,omitempty"`      // = invalidated
	Invalidated  int64 `json:"invalidated,omitempty"`

	PageReadsPerQuery float64 `json:"page_reads_per_query,omitempty"`
	FusedGroups       int64   `json:"fused_groups,omitempty"`
	FusedQueries      int64   `json:"fused_queries,omitempty"`
	SharedPageReads   int64   `json:"shared_page_reads,omitempty"`

	WriteP50US  float64 `json:"write_p50_us,omitempty"`
	WriteP99US  float64 `json:"write_p99_us,omitempty"`
	WriteMeanUS float64 `json:"write_mean_us,omitempty"`
	PageWrites  int64   `json:"page_writes,omitempty"`
	SyncEvery   int     `json:"sync_every,omitempty"`
	WALRecords  int64   `json:"wal_records,omitempty"` // the log at the end of the pass, before its checkpoint
	WALBytes    int64   `json:"wal_bytes,omitempty"`
	Recovered   bool    `json:"recovered,omitempty"` // checkpoint + Recover gave back the live cardinality

	At           int     `json:"at,omitempty"`     // the table's sweep variable in this cell
	CPUMS        float64 `json:"cpu_ms,omitempty"` // mean Phase-2 time per query: the one clock of a figure row, recorded and never asserted
	IOMS         float64 `json:"io_ms,omitempty"`  // mean Phase-2 page reads per query, rounded, × the config's read latency
	girint.Stats         // of the cell's first query
	HullFacets   int     `json:"hull_facets,omitempty"`  // facets of CH′, the full hull of {p_k} ∪ D\R
	Log10Volume  float64 `json:"log10_volume,omitempty"` // mean log10 of the region's share of the query space
	Skipped      string  `json:"skipped,omitempty"`      // why the cell was not measured: a cap it would outgrow, or the error
}

// report is the -json file.
type report struct {
	Benchmark string      `json:"benchmark"`
	Config    suiteConfig `json:"config"`
	Tables    []table     `json:"tables"`
}

// counters is what a target has done so far; a row holds the difference of
// two reads.
type counters struct {
	gir.EngineStats
	gir.IOStats
}

// target is what a stream is issued against.
type target interface {
	TopK(q []float64, k int) error
	BatchTopK(qs []gir.Query) error
	Insert(id int64, p []float64) error
	Delete(id int64, p []float64) error
	Counters() counters
	// Finish adds what only this kind of target knows to its row, after
	// the pass: the log and its recovery check.
	Finish(r *row) error
	Close()
}

// bareTarget is a Dataset on its own, with or without a log.
type bareTarget struct {
	ds      *gir.Dataset
	walDir  string
	walSync int
}

func (t *bareTarget) TopK(q []float64, k int) error { _, err := t.ds.TopK(q, k); return err }

// BatchTopK on a target with no batch entry point is its queries in order.
func (t *bareTarget) BatchTopK(qs []gir.Query) error {
	for _, q := range qs {
		if err := t.TopK(q.Vector, q.K); err != nil {
			return err
		}
	}
	return nil
}
func (t *bareTarget) Insert(id int64, p []float64) error { return t.ds.Insert(id, p) }
func (t *bareTarget) Delete(id int64, p []float64) error { _, err := t.ds.Delete(id, p); return err }
func (t *bareTarget) Counters() counters                 { return counters{IOStats: t.ds.IOStats()} }

// Finish on a logged dataset checkpoints, recovers the directory into a
// second dataset and requires the same cardinality: a suite that prices a
// broken durability path is worse than no number.
func (t *bareTarget) Finish(r *row) error {
	if t.walDir == "" {
		return nil
	}
	st := t.ds.WALStats()
	r.SyncEvery, r.WALRecords, r.WALBytes = t.walSync, st.Records, st.Bytes
	if err := t.ds.Checkpoint(t.walDir); err != nil {
		return err
	}
	rec, err := gir.Recover(t.walDir, gir.WALOptions{SyncEvery: t.walSync})
	if err != nil {
		return fmt.Errorf("recovery after the pass: %w", err)
	}
	defer rec.Close()
	if rec.Len() != t.ds.Len() {
		return fmt.Errorf("recovery holds %d points, the live dataset %d", rec.Len(), t.ds.Len())
	}
	r.Recovered = true
	return nil
}

func (t *bareTarget) Close() {
	t.ds.Close()
	if t.walDir != "" {
		os.RemoveAll(t.walDir)
	}
}

// engineTarget reads through an Engine and writes to the Dataset under it.
type engineTarget struct {
	*bareTarget
	e       *gir.Engine
	flush   bool
	flushed int64 // entries the flush arm dropped, on top of the engine's own evictions
}

func (t *engineTarget) TopK(q []float64, k int) error { return t.e.TopK(q, k).Err }
func (t *engineTarget) BatchTopK(qs []gir.Query) error {
	for _, res := range t.e.BatchTopK(qs) {
		if res.Err != nil {
			return res.Err
		}
	}
	return nil
}
func (t *engineTarget) Insert(id int64, p []float64) error {
	return t.wrote(t.bareTarget.Insert(id, p))
}
func (t *engineTarget) Delete(id int64, p []float64) error {
	return t.wrote(t.bareTarget.Delete(id, p))
}
func (t *engineTarget) wrote(err error) error {
	if t.flush && err == nil {
		t.flushed += int64(t.e.Cache().Len())
		t.e.Cache().Clear()
	}
	return err
}
func (t *engineTarget) Counters() counters {
	c := t.bareTarget.Counters()
	c.EngineStats = t.e.Stats()
	c.Affected += t.flushed
	c.Invalidated += t.flushed
	return c
}
func (t *engineTarget) Close() { t.e.Close(); t.bareTarget.Close() }

// suite is one run: the configuration, the points every serving arm shares
// and the index consecutive figure cells share.
type suite struct {
	cfg   suiteConfig
	space gir.Space
	raw   [][]float64
	idx   index
}

// runSuite runs one group of tables — the paper's figures, or the serving
// tables — narrowed by only to one figure's tables or one serving table
// (the whole group for ""), prints each as it completes and, with jsonPath,
// writes the report.
func runSuite(cfg suiteConfig, figures bool, only, jsonPath string, w io.Writer) error {
	s := &suite{}
	run, group, flagName := s.runTable, "serve", "table"
	var header string
	if figures {
		run, group, flagName = s.runFigure, "figures", "fig"
		cfg.D, cfg.K, cfg.FacetBudget = suiteD, figK, figFacetBudget
		cfg.SkylineCap = cmp.Or(cfg.SkylineCap, figSkylineCap) // a test lowers it; the command line cannot
		cfg.ReadLatUS = float64(pager.DefaultCostModel.ReadLatency.Microseconds())
		header = fmt.Sprintf("figures: -n %d -queries %d -seed %d -realn %d -dims %s -ks %s -nsweep %s; default d=%d k=%d (paper scale: -n 1000000 -queries 100)",
			cfg.N, cfg.Queries, cfg.Seed, cfg.RealN, joinInts(cfg.Dims), joinInts(cfg.Ks), joinInts(cfg.NSweep), cfg.D, cfg.K)
	} else {
		var err error
		if s.space, err = gir.ParseSpace(cfg.Space); err != nil {
			return fmt.Errorf("bad -space: %w", err)
		}
		cfg.D, cfg.ZipfS, cfg.Jitter, cfg.Inflight = suiteD, suiteZipfS, suiteJitter, suiteInflight
		cfg.WriteMix, cfg.WALGroup, cfg.WriteRate = suiteWriteMix, suiteWALGroup, suiteWriteRate
		cfg.FsyncDelayMS, cfg.GOMAXPROCS = float64(suiteFsyncDelay.Microseconds())/1e3, runtime.GOMAXPROCS(0)
		header = fmt.Sprintf("serving suite: n=%d d=%d space=%v seed=%d, %d operations over %d distinct vectors (zipf s=%.2f, jitter %.3g), GOMAXPROCS=%d",
			cfg.N, cfg.D, s.space, cfg.Seed, cfg.Stream, cfg.Distinct, cfg.ZipfS, cfg.Jitter, cfg.GOMAXPROCS)
	}
	s.cfg = cfg

	var names []string
	rep := report{Benchmark: "girbench-" + group, Config: cfg}
	for _, tb := range suiteTables {
		if (tb.Figure != 0) != figures {
			continue
		}
		name := tb.Name
		if figures {
			name = strconv.Itoa(tb.Figure)
		}
		names = append(names, name)
		if only == "" || only == name {
			rep.Tables = append(rep.Tables, tb)
		}
	}
	if len(rep.Tables) == 0 {
		return fmt.Errorf("bad -%s %q (have %s)", flagName, only, strings.Join(slices.Compact(names), ", "))
	}
	if err := checkSizes(&cfg, rep.Tables); err != nil {
		return err
	}

	fmt.Fprintln(w, header)
	if !figures {
		for _, p := range datagen.Independent(cfg.N, cfg.D, cfg.Seed) {
			s.raw = append(s.raw, p)
		}
	}
	for i := range rep.Tables {
		tb := &rep.Tables[i]
		if err := run(tb); err != nil {
			return fmt.Errorf("table %s: %w", tb.Name, err)
		}
		printTable(w, tb)
	}
	if jsonPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nwrote %s\n", jsonPath)
	return nil
}

// checkSizes refuses, before anything is built, what no row could be
// measured at: a stream nothing can be drawn from, a cell that asks an
// index for more records than it holds, a sweep with nothing in it.
func checkSizes(cfg *suiteConfig, tables []table) error {
	for i := range tables {
		tb := &tables[i]
		if tb.Figure == 0 {
			if cfg.N < suiteKMax || cfg.Distinct < 1 || cfg.Stream < 1 {
				return fmt.Errorf("bad size: -n %d (need ≥ %d), -distinct %d (need ≥ 1), -stream %d (need ≥ 1)", cfg.N, suiteKMax, cfg.Distinct, cfg.Stream)
			}
			continue
		}
		cells := tb.figCells(cfg)
		if cfg.Queries < 1 || len(cells) == 0 {
			return fmt.Errorf("bad size: -queries %d (need ≥ 1); %s has %d cells along %s (need ≥ 1)", cfg.Queries, tb.Name, len(cells), tb.Sweep)
		}
		for _, c := range cells {
			if c.k < 1 || c.n < c.k || c.d < 2 {
				return fmt.Errorf("bad size: %s builds %s at n=%d, d=%d and asks it for k=%d (need n ≥ k ≥ 1 and d ≥ 2)", tb.Name, c.kind, c.n, c.d, c.k)
			}
		}
	}
	return nil
}

// runTable measures a table's arms in order over the stream of its mix;
// mix 0 is the read-only stream (the same draws as NewStreamIn's).
func (s *suite) runTable(tb *table) error {
	ops, _, _ := engine.NewChurnWorkloadIn(s.cfg.Seed+1, s.cfg.D, s.cfg.Distinct, s.cfg.ZipfS, s.cfg.Jitter,
		s.cfg.Stream, tb.WriteMix, suiteKMin, suiteKMax, s.space == gir.SpaceSimplex)
	var t target
	for _, a := range tb.arms {
		if a.on != same {
			var err error
			if t, err = s.open(a); err != nil {
				return err
			}
			defer t.Close() // a table has at most four arms; their targets go together when it ends
		}
		r, err := s.run(t, ops, a)
		if err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
		tb.Rows = append(tb.Rows, r)
	}
	return nil
}

// open builds an arm's target over a fresh copy of the suite's points.
func (s *suite) open(a arm) (target, error) {
	eopts := gir.EngineOptions{CacheCapacity: 2 * s.cfg.Distinct}
	if a.nocache {
		eopts.CacheCapacity = -1
	}
	ds, err := gir.NewDatasetInSpace(s.raw, s.space)
	if err != nil {
		return nil, err
	}
	bt := &bareTarget{ds: ds, walSync: a.walSync}
	if a.walSync > 0 {
		if bt.walDir, err = os.MkdirTemp("", "girbench-wal-*"); err != nil {
			return nil, err
		}
		wopts := gir.WALOptions{SyncEvery: a.walSync}
		if a.mutator {
			wopts.SyncHook = func() { time.Sleep(suiteFsyncDelay) }
		}
		if err := ds.EnableWAL(bt.walDir, wopts); err != nil {
			bt.Close()
			return nil, err
		}
	}
	if a.on == bare {
		return bt, nil
	}
	return &engineTarget{bareTarget: bt, e: gir.NewEngine(ds, eopts), flush: a.flush}, nil
}

// run issues ops against t the arm's way and returns the measured row.
func (s *suite) run(t target, ops []engine.ChurnOp, a arm) (row, error) {
	// A call is one op, or — batched — a run of consecutive reads.
	type call struct {
		op    *engine.ChurnOp
		batch []gir.Query
	}
	calls := make([]call, 0, len(ops))
	queries := 0
	for i := range ops {
		op := &ops[i]
		if n := len(calls); op.Write || !a.batched {
			calls = append(calls, call{op: op})
		} else if q := (gir.Query{Vector: op.Query, K: op.K}); n > 0 && calls[n-1].batch != nil && len(calls[n-1].batch) < suiteInflight {
			calls[n-1].batch = append(calls[n-1].batch, q)
		} else {
			calls = append(calls, call{batch: []gir.Query{q}})
		}
		if op.Write {
			continue
		}
		queries++
		if a.warm { // the untimed pass: the stream's reads, once, in order
			if err := t.TopK(op.Query, op.K); err != nil {
				return row{}, err
			}
		}
	}

	// The one timed call: every read and every write of every arm, the
	// mutator's included, goes through here.
	reads, writes := newLatRecorder(len(calls)), newLatRecorder(len(calls))
	do := func(c call) error {
		var err error
		rec := reads
		start := time.Now()
		switch {
		case c.batch != nil:
			err = t.BatchTopK(c.batch)
		case !c.op.Write:
			err = t.TopK(c.op.Query, c.op.K)
		case c.op.Insert:
			rec, err = writes, t.Insert(c.op.ID, c.op.Point)
		default:
			rec, err = writes, t.Delete(c.op.ID, c.op.Point)
		}
		rec.add(time.Since(start))
		return err
	}

	before := t.Counters()
	stop, mutated := make(chan struct{}), make(chan error, 1)
	if a.mutator {
		go func() {
			mutated <- s.mutate(stop, func(op *engine.ChurnOp) error { return do(call{op: op}) })
		}()
		runtime.Gosched() // on one core the mutator otherwise first runs at the reader's first preemption, 10 ms in
	} else {
		mutated <- nil
	}
	errs := make([]error, len(calls))
	var mem [2]runtime.MemStats
	runtime.ReadMemStats(&mem[0])
	start := time.Now()
	engine.Fan(len(calls), max(1, a.callers), func(i int) { errs[i] = do(calls[i]) })
	elapsed := time.Since(start)
	runtime.ReadMemStats(&mem[1])
	close(stop)
	if err := errors.Join(append(errs, <-mutated)...); err != nil {
		return row{}, err
	}
	after := t.Counters()

	nWrites, wlat := writes.summarize()
	r := row{
		Name:      a.name,
		Timed:     a.callers > 1 || a.mutator,
		ElapsedMS: float64(elapsed.Microseconds()) / 1e3,
		QPS:       float64(queries) / elapsed.Seconds(),
		Queries:   queries,
		Writes:    nWrites,
		Hits:      after.CacheHits - before.CacheHits,
		Partial:   after.PartialHits - before.PartialHits,
		Misses:    after.Misses - before.Misses,
		PageReads: after.PageReads - before.PageReads,
		// Mallocs and TotalAlloc are cumulative, so the difference is exact
		// whatever the collector did during the pass.
		AllocsPerOp: float64(mem[1].Mallocs-mem[0].Mallocs) / float64(len(ops)),
		BytesPerOp:  float64(mem[1].TotalAlloc-mem[0].TotalAlloc) / float64(len(ops)),

		Deduped:         after.Deduped - before.Deduped,
		Recomputes:      after.Computed - before.Computed,
		RefusedFills:    after.RefusedFills - before.RefusedFills,
		Affected:        after.Affected - before.Affected,
		Invalidated:     after.Invalidated - before.Invalidated,
		FusedGroups:     after.FusedGroups - before.FusedGroups,
		FusedQueries:    after.FusedQueries - before.FusedQueries,
		SharedPageReads: after.SharedPageReads - before.SharedPageReads,
		WriteP50US:      wlat.P50US,
		WriteP99US:      wlat.P99US,
		WriteMeanUS:     wlat.MeanUS,
		PageWrites:      after.PageWrites - before.PageWrites,
	}
	_, r.latSummary = reads.summarize()
	r.PageReadsPerQuery = float64(r.PageReads) / float64(max(1, queries))
	if nWrites > 0 {
		r.OpsPerSec = float64(queries+nWrites) / elapsed.Seconds()
	}
	if lookups := r.Hits + r.Partial + r.Misses; lookups > 0 {
		r.HitRate = float64(r.Hits) / float64(lookups)
	}
	err := t.Finish(&r)
	return r, err
}

// mutate is the stall table's writer: it alternates inserting a fresh
// record and deleting it — cardinality stays put while every operation pays
// the full append + fsync — at suiteWriteRate, until stop closes.
func (s *suite) mutate(stop <-chan struct{}, write func(*engine.ChurnOp) error) error {
	rng := rand.New(rand.NewSource(s.cfg.Seed + 2))
	op := engine.ChurnOp{Write: true, ID: int64(s.cfg.N), Point: make([]float64, s.cfg.D)}
	// Catch-up pacing: a sleep can wake a scheduler tick late, so a sleep
	// per write would undershoot the rate. Following the schedule and
	// working off the backlog on each wake-up holds it, the way a real
	// writer drains its queue.
	for next := time.Now(); ; next = next.Add(time.Second / suiteWriteRate) {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		select {
		case <-stop:
			return nil
		default:
		}
		if op.Insert = !op.Insert; op.Insert {
			for i := range op.Point {
				op.Point[i] = rng.Float64()
			}
		}
		if err := write(&op); err != nil {
			return err
		}
		if !op.Insert {
			op.ID++
		}
	}
}

// columns is every column a table can print, in print order; a table shows
// the ones some row of it has a value in.
var columns = []struct {
	head, verb string
	val        func(r *row) float64
}{
	{"|SL|", "%.0f", func(r *row) float64 { return float64(r.SkylineSize) }},
	{"|SL∩CH|", "%.0f", func(r *row) float64 { return float64(r.HullVertices) }},
	{"CH′ facets", "%.0f", func(r *row) float64 { return float64(r.HullFacets) }},
	{"star facets", "%.0f", func(r *row) float64 { return float64(r.StarFacets) }},
	{"critical", "%.0f", func(r *row) float64 { return float64(r.Critical) }},
	{"|R⁻|", "%.0f", func(r *row) float64 { return float64(r.RMinus) }},
	{"nodes read", "%.0f", func(r *row) float64 { return float64(r.NodesRead) }},
	{"pruned", "%.0f", func(r *row) float64 { return float64(r.NodesPruned) }},
	{"raw cons", "%.0f", func(r *row) float64 { return float64(r.RawConstraints) }},
	{"cons", "%.0f", func(r *row) float64 { return float64(r.Constraints) }},
	{"log10 vol", "%.2f", func(r *row) float64 { return r.Log10Volume }},
	{"cpu ms", "%.2f", func(r *row) float64 { return r.CPUMS }},
	{"io ms", "%.2f", func(r *row) float64 { return r.IOMS }},
	{"elapsed", "%.0fms", func(r *row) float64 { return r.ElapsedMS }},
	{"queries/s", "%.0f", func(r *row) float64 { return r.QPS }},
	{"ops/s", "%.0f", func(r *row) float64 { return r.OpsPerSec }},
	{"writes", "%.0f", func(r *row) float64 { return float64(r.Writes) }},
	{"hits", "%.0f", func(r *row) float64 { return float64(r.Hits) }},
	{"partial", "%.0f", func(r *row) float64 { return float64(r.Partial) }},
	{"misses", "%.0f", func(r *row) float64 { return float64(r.Misses) }},
	{"hit%", "%.1f", func(r *row) float64 { return 100 * r.HitRate }},
	{"deduped", "%.0f", func(r *row) float64 { return float64(r.Deduped) }},
	{"recomputes", "%.0f", func(r *row) float64 { return float64(r.Recomputes) }},
	{"refused", "%.0f", func(r *row) float64 { return float64(r.RefusedFills) }},
	{"evicted", "%.0f", func(r *row) float64 { return float64(r.Invalidated) }},
	{"page reads", "%.0f", func(r *row) float64 { return float64(r.PageReads) }},
	{"page writes", "%.0f", func(r *row) float64 { return float64(r.PageWrites) }},
	{"reads/query", "%.1f", func(r *row) float64 { return r.PageReadsPerQuery }},
	{"groups", "%.0f", func(r *row) float64 { return float64(r.FusedGroups) }},
	{"fusedq", "%.0f", func(r *row) float64 { return float64(r.FusedQueries) }},
	{"shared reads", "%.0f", func(r *row) float64 { return float64(r.SharedPageReads) }},
	{"allocs/op", "%.1f", func(r *row) float64 { return r.AllocsPerOp }},
	{"B/op", "%.0f", func(r *row) float64 { return r.BytesPerOp }},
	{"p50", "%.0fµ", func(r *row) float64 { return r.P50US }},
	{"p99", "%.0fµ", func(r *row) float64 { return r.P99US }},
	{"p99.9", "%.0fµ", func(r *row) float64 { return r.P999US }},
	{"max", "%.0fµ", func(r *row) float64 { return r.MaxUS }},
	{"write p50", "%.0fµ", func(r *row) float64 { return r.WriteP50US }},
	{"write p99", "%.0fµ", func(r *row) float64 { return r.WriteP99US }},
	{"wal bytes", "%.0f", func(r *row) float64 { return float64(r.WALBytes) }},
}

func printTable(w io.Writer, tb *table) {
	fmt.Fprintf(w, "\n%s — %s\n%-26s", tb.Name, tb.Compares, "arm")
	var shown []int
	for i, c := range columns {
		for j := range tb.Rows {
			if c.val(&tb.Rows[j]) != 0 {
				shown = append(shown, i)
				fmt.Fprintf(w, " %*s", max(9, len(c.head)), c.head)
				break
			}
		}
	}
	timed := false
	for j := range tb.Rows {
		name := tb.Rows[j].Name
		if tb.Rows[j].Timed {
			name, timed = name+" †", true
		}
		fmt.Fprintf(w, "\n%-26s", name)
		if why := tb.Rows[j].Skipped; why != "" {
			fmt.Fprintf(w, " skipped: %s", why)
			continue
		}
		for _, i := range shown {
			c := columns[i]
			text := "-" // zero: the column does not apply to this arm, or nothing happened
			if v := c.val(&tb.Rows[j]); v != 0 {
				text = fmt.Sprintf(c.verb, v)
			}
			fmt.Fprintf(w, " %*s", max(9, len(c.head)), text)
		}
	}
	if timed {
		fmt.Fprint(w, "\n† concurrent callers or the paced writer interleave with the stream: the row's counts differ between runs")
	}
	fmt.Fprintln(w)
}
