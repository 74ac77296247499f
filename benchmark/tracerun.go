package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	gir "github.com/girlib/gir"
	"github.com/girlib/gir/internal/cache"
	"github.com/girlib/gir/internal/geom"
	girint "github.com/girlib/gir/internal/gir"
	"github.com/girlib/gir/internal/maintain"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/skyline"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
	"github.com/girlib/gir/internal/viz"
)

// traced is one traced run of one workload: every per-layer metric.
type traced struct {
	workload          string
	attempted, failed int
	vals              map[string]float64
	layers            []layerTime
	spans             int
	file              string
}

// tracedPasses is how many passes after the warm one the traced run keeps
// spans and counters for.
const tracedPasses = 2

// traceRun is the separate traced run: the warm pass and tracedPasses passes
// with an outer span around every engine call; then a sample of the last
// pass's ops replayed through the benchmark's own stack, layer by layer,
// with nested spans; then the workload-independent probes. End-to-end
// metrics never come from here.
func traceRun(e *env, w workload) (*traced, error) {
	t := &traced{workload: w.name(), vals: map[string]float64{}}
	for _, m := range perLayer {
		t.vals[m.name] = 0 // a metric the selected workload has nothing to say about reads 0
	}
	tr := newTracer()
	tr.spans = make([]span, 0, 1<<16)
	rec := newRecorder(tr)
	if err := w.setup(rec); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name(), err)
	}
	t.attempted, t.failed = rec.ops, rec.failed

	rec.reset()
	firstSpan := len(tr.spans)
	var lastPassOp int
	var m0, m1 runtime.MemStats
	before := w.engine().Stats()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for range tracedPasses {
		lastPassOp = tr.op + 1
		w.pass(rec)
	}
	passTime := time.Since(t0)
	runtime.ReadMemStats(&m1)
	after := w.engine().Stats()
	t.attempted += rec.ops
	t.failed += rec.failed
	outer := tr.spans[firstSpan:]

	t.engineCounts(before, after, rec)
	t.timeShares(outer)
	ops := float64(rec.ops)
	t.vals["go.allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / ops
	t.vals["go.alloc_kb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / ops
	t.vals["go.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	t.vals["go.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	t.vals["trace.overhead_pct"] = 100 * float64(len(outer)) * float64(spanCost()) / float64(passTime)
	sort.Float64s(rec.reads)
	t.vals["engine.lat_p50_us"] = quantile(rec.reads, 0.50) / 1e3
	t.vals["engine.lat_p95_us"] = quantile(rec.reads, 0.95) / 1e3
	if len(rec.writes) > 0 {
		sort.Float64s(rec.writes)
		t.vals["dataset.write_p50_us"] = quantile(rec.writes, 0.50) / 1e3
		t.vals["dataset.write_p95_us"] = quantile(rec.writes, 0.95) / 1e3
	}

	st, err := newStack(e, t.vals)
	if err != nil {
		return nil, err
	}
	if err := st.probeAll(t.vals); err != nil {
		return nil, err
	}
	st.replay(tr, w, lastPassOp)
	t.vals["engine.miss_overhead_us"] = missOverhead(tr.spans)
	st.probeTreeWrites(t.vals)
	if cd, ok := w.(*churnDurable); ok {
		t.vals["engine.fence_veto_share"] = cd.fenceVetoShare()
	}

	t.layers = selfTimes(tr.spans)
	t.spans = len(tr.spans)
	t.file = filepath.Join(e.outDir, "trace-"+w.name()+".jsonl")
	if err := tr.write(t.file); err != nil {
		return nil, err
	}
	if err := st.close(); err != nil {
		return nil, err
	}
	return t, w.close()
}

// spanCost measures what recording one outer span costs: the loop already
// holds both timestamps, so a span is one append.
func spanCost() time.Duration {
	const n = 1 << 16
	tr := newTracer()
	tr.spans = make([]span, 0, n)
	now := time.Now()
	return perCall(n, func(int) { tr.add(0, tr.nextOp(), "engine.topk.hit", now, now) })
}

// engineCounts derives the exact engine metrics from its own counters over
// the traced passes.
func (t *traced) engineCounts(a, b gir.EngineStats, rec *recorder) {
	ops := float64(rec.ops)
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	t.vals["engine.hit_ratio"] = hitRatio(a, b)
	t.vals["engine.computed_per_op"] = float64(b.Computed-a.Computed) / ops
	t.vals["engine.repaired_share"] = ratio(b.Repaired-a.Repaired, b.Affected-a.Affected)
	t.vals["engine.invalidated_per_write"] = ratio(b.Invalidated-a.Invalidated, int64(len(rec.writes)))
	t.vals["engine.fused_share"] = ratio(b.FusedQueries-a.FusedQueries, b.Computed-a.Computed)
	t.vals["engine.shared_reads_per_op"] = float64(b.SharedPageReads-a.SharedPageReads) / ops
}

// timeShares splits the traced passes' time over the classes of outer span.
func (t *traced) timeShares(outer []span) {
	class := func(name string) string {
		switch {
		case strings.HasSuffix(name, ".miss"), name == "engine.batch_topk":
			return "miss"
		case strings.HasPrefix(name, "engine.topk"):
			return "hit"
		case strings.HasPrefix(name, "dataset."):
			return "write"
		}
		return strings.TrimPrefix(name, "engine.") // quiesce, checkpoint
	}
	var total float64
	sum := map[string]float64{}
	var quiesce, quiesces float64
	for _, s := range outer {
		d := float64(s.End - s.Start)
		sum[class(s.Name)] += d
		total += d
		if s.Name == "engine.quiesce" {
			quiesce += d
			quiesces++
		}
	}
	for c, d := range sum {
		t.vals["engine.time_share."+c] = d / total
	}
	if quiesces > 0 {
		t.vals["engine.quiesce_us"] = quiesce / quiesces / 1e3
	}
}

// engineFillMethod is the region algorithm an engine built with the
// benchmark's options fills with: every workload leaves
// EngineOptions.CacheMethod at its zero value, and the replay follows it.
func engineFillMethod() girint.Method {
	switch (gir.EngineOptions{}).CacheMethod {
	case gir.SP:
		return girint.SP
	case gir.CP:
		return girint.CP
	}
	return girint.FP
}

// replay runs the first ops of the last traced pass through the stack. A
// replayed op carries the op id of its engine-side outer span, so one op's
// spans — the engine call and its layer-by-layer replay — share it.
func (st *stack) replay(tr *tracer, w workload, firstOp int) {
	engineSide := map[int]string{}
	for _, s := range tr.spans {
		if _, seen := engineSide[s.Op]; !seen {
			engineSide[s.Op] = s.Name
		}
	}
	c := st.hotCache
	switch w.name() {
	case "fill_cold":
		c = cache.NewSharded(st.e.sz.coldCap, 1)
	case "churn_durable":
		c = st.churnCache
	}
	for i, op := range w.lastOps(st.e.sz.replayOps) {
		id := firstOp + i
		switch {
		case op.write != nil:
			st.replayWrite(tr, id, op.write)
		case op.batch:
			st.replayBatch(tr, id, op.reads)
		default:
			root := tr.open(0, id, "replay.read")
			for _, qu := range op.reads {
				st.replayRead(tr, root, id, c, qu, strings.HasSuffix(engineSide[id], ".miss"))
			}
			tr.close(root)
		}
	}
}

func (st *stack) replayRead(tr *tracer, root, op int, c *cache.Cache, qu query, miss bool) {
	s := tr.open(root, op, "cache.lookup")
	e, ok := c.Lookup(qu.q, qu.k)
	tr.close(s)
	if !miss {
		if ok {
			s = tr.open(root, op, "score.rescore")
			for _, r := range e.Records[:min(qu.k, e.K)] {
				sink += score.Linear{}.Score(r.Point, qu.q)
			}
			tr.close(s)
		}
		return
	}
	s = tr.open(root, op, "topk.brs")
	res := topk.BRS(st.tree, score.Linear{}, qu.q, qu.k)
	tr.close(s)
	cand, bounds, complete := retain(res)
	recs := res.Records
	g := tr.open(root, op, "gir.compute")
	reg := st.replayCompute(tr, g, op, res)
	tr.close(g)
	if reg == nil {
		return
	}
	s = tr.open(root, op, "cache.put")
	lo, hi := viz.MAH(reg, reg.Query)
	c.PutWithBox(reg, recs, lo, hi, cand, bounds, complete, 0)
	tr.close(s)
}

// sink keeps replayed arithmetic from being optimised away.
var sink float64

// replayCompute is the region build stage by stage, through the stages' own
// entry points: for SP the skyline of the non-result set, then the pairwise
// constraints (the span's self time), then the reduction, which is the LP
// layer's cone-membership problems. Another fill method runs its first two
// phases as one child.
func (st *stack) replayCompute(tr *tracer, parent, op int, res *topk.Result) *girint.Region {
	var cons []girint.Constraint
	query := res.Query.Clone()
	if method := engineFillMethod(); method == girint.SP {
		for i := 0; i+1 < len(res.Records); i++ {
			a, b := res.Records[i], res.Records[i+1]
			cons = append(cons, girint.Constraint{Normal: vec.Sub(a.Point, b.Point), Kind: girint.Reorder, A: a.ID, B: b.ID})
		}
		kth := res.Kth()
		s := tr.open(parent, op, "skyline.of_nonresult")
		sl := skyline.OfNonResult(st.tree, res)
		tr.close(s)
		for _, p := range sl.Records {
			cons = append(cons, girint.Constraint{Normal: vec.Sub(kth.Point, p.Point), Kind: girint.Replace, A: kth.ID, B: p.ID})
		}
	} else {
		s := tr.open(parent, op, "gir.phases")
		raw, _, err := girint.Compute(st.tree, res, girint.Options{Method: method, SkipReduce: true})
		tr.close(s)
		if err != nil {
			return nil
		}
		cons = raw.Constraints
	}
	normals := make([]vec.Vector, len(cons))
	for i, c := range cons {
		normals[i] = c.Normal
	}
	s := tr.open(parent, op, "lp.reduce_cone")
	keep := geom.ReduceCone(normals, 1e-12)
	tr.close(s)
	reg := &girint.Region{Dim: dim, Query: query, OrderSensitive: true}
	for _, i := range keep {
		reg.Constraints = append(reg.Constraints, cons[i])
	}
	return reg
}

// dedupe keeps the first of each (vector, k), as BatchTopK does in a batch.
func dedupe(qs []query) []query {
	type key struct {
		q [dim]float64
		k int
	}
	seen := map[key]bool{}
	var owners []query
	for _, qu := range qs {
		if k := (key{[dim]float64(qu.q), qu.k}); !seen[k] {
			seen[k] = true
			owners = append(owners, qu)
		}
	}
	return owners
}

// replayBatch is BatchTopK's no-cache path on the stack: in-batch dedupe,
// angular grouping, one fused traversal per group.
func (st *stack) replayBatch(tr *tracer, op int, qs []query) {
	root := tr.open(0, op, "replay.batch")
	vs, ks := vectors(dedupe(qs))
	s := tr.open(root, op, "topk.fuse_groups")
	groups := topk.FuseGroups(vs, 8)
	tr.close(s)
	for _, g := range groups {
		gvs := make([]vec.Vector, len(g))
		gks := make([]int, len(g))
		for j, i := range g {
			gvs[j], gks[j] = vs[i], ks[i]
		}
		s = tr.open(root, op, "topk.brs_group")
		gs := topk.AcquireGroupScratch(st.tree)
		topk.BRSGroup(gs, st.tree, score.Linear{}, gvs, gks)
		gs.Release()
		tr.close(s)
	}
	tr.close(root)
}

// replayWrite is a write's path under the engine: log append, copy-on-write
// index update, one maintenance pass over the cache.
func (st *stack) replayWrite(tr *tracer, op int, w *churnStep) {
	root := tr.open(0, op, "replay.write")
	insert := w.kind == stepInsert
	st.version++
	s := tr.open(root, op, "pager.wal_append")
	err := st.wal.Append(walPayload(st.version, insert, w.id, w.p))
	tr.close(s)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: replayed log append:", err)
	}
	if insert {
		s = tr.open(root, op, "rtree.insert")
		st.tree.BeginCOW()
		st.tree.Insert(w.id, w.p)
	} else {
		s = tr.open(root, op, "rtree.delete")
		st.tree.BeginCOW()
		st.tree.Delete(w.id, w.p)
	}
	st.tree.CommitCOW()
	tr.close(s)
	s = tr.open(root, op, "maintain.drain")
	st.planner.Drain(st.churnCache, []maintain.Mutation{{Version: st.version, Insert: insert, ID: w.id, Point: w.p}})
	tr.close(s)
	tr.close(root)
}

// missOverhead is, over the replayed ops the engine answered with a miss,
// the median of the engine call's time minus the replayed stages' — what the
// engine adds around them: validation, single-flight, the snapshot pin,
// putIfCurrent's lock. It is a difference of two ~25 ms measurements taken
// seconds apart, so read it against its own run-to-run spread.
func missOverhead(spans []span) float64 {
	engine := map[int]int64{}
	replayed := map[int]int64{}
	for _, s := range spans {
		switch {
		case s.Name == "engine.topk.miss":
			engine[s.Op] = s.End - s.Start
		case s.Parent != 0 && spans[s.Parent-1].Name == "replay.read":
			replayed[s.Op] += s.End - s.Start
		}
	}
	var diffs []float64
	for op, d := range replayed {
		if e, ok := engine[op]; ok {
			diffs = append(diffs, float64(e-d)/1e3)
		}
	}
	if len(diffs) == 0 {
		return 0
	}
	return median(diffs)
}

// fenceVetoShare replays one segment without quiescing: reads race the
// drainer, so some candidate hits meet the generation fence. The share of
// lookups it vetoes depends on timing and is never exact.
func (w *churnDurable) fenceVetoShare() float64 {
	before := w.eng.Stats()
	seg := &w.script.segs[0]
	for i := range seg.steps {
		switch st := &seg.steps[i]; st.kind {
		case stepRead:
			w.eng.TopK(seg.reads[st.read].q, seg.reads[st.read].k)
		case stepInsert:
			_ = w.ds.Insert(st.id, st.p) // a failed write only lowers the share
		default:
			_, _ = w.ds.Delete(st.id, st.p)
		}
	}
	w.eng.Quiesce()
	after := w.eng.Stats()
	lookups := (after.CacheHits - before.CacheHits) + (after.PartialHits - before.PartialHits) + (after.Misses - before.Misses)
	return float64(after.Fenced-before.Fenced) / float64(max(lookups, 1))
}

func (t *traced) contract() contractLine {
	line := contractLine{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]contractMetric{}}
	for _, m := range perLayer {
		line.Metrics[m.name] = contractMetric{Value: t.vals[m.name], Unit: m.unit}
	}
	return line
}

func (t *traced) print(out io.Writer) {
	fmt.Fprintf(out, "\n%s traced: attempted %d, failed %d; %d spans in %s\n", t.workload, t.attempted, t.failed, t.spans, t.file)
	fmt.Fprintln(out, "  durability latencies are this sandbox's page cache, not a device's")
	for _, m := range perLayer {
		mark := " "
		if m.exact {
			mark = "x"
		}
		fmt.Fprintf(out, "  %-38s %16.4f %-5s [%s] -> %s\n", m.name, t.vals[m.name], m.unit, mark, m.moves)
	}
	fmt.Fprintln(out, "  span                        count     total_ms      self_ms")
	for _, l := range t.layers {
		fmt.Fprintf(out, "  %-26s %6d %12.3f %12.3f\n", l.name, l.count, us(l.total)/1e3, us(l.self)/1e3)
	}
}

// runCheckExact runs the traced run of every selected workload twice in
// process and requires every exact count to repeat.
func runCheckExact(o options) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	var diffs []string
	for _, name := range o.workloads() {
		var runs [2]*traced
		for i := range runs {
			e := newEnv(o.sz, o.seed, o.outDir)
			w, err := newWorkload(e, name)
			if err != nil {
				return err
			}
			if runs[i], err = traceRun(e, w); err != nil {
				return err
			}
		}
		for _, m := range perLayer {
			a, b := runs[0].vals[m.name], runs[1].vals[m.name]
			if m.exact && math.Abs(a-b) > m.slack*math.Max(math.Abs(a), math.Abs(b)) {
				diffs = append(diffs, fmt.Sprintf("%s %s: %v then %v", name, m.name, a, b))
			}
		}
		fmt.Printf("%s: exact counts compared over two runs, failed ops %d and %d\n", name, runs[0].failed, runs[1].failed)
		if runs[0].failed+runs[1].failed > 0 {
			diffs = append(diffs, name+": failed ops")
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("exact counts did not repeat:\n  %s", strings.Join(diffs, "\n  "))
	}
	fmt.Println("every exact count repeated bit for bit (allocation counts within 1%)")
	return nil
}
