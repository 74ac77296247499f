package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	gir "github.com/girlib/gir"
)

// sizes fixes every workload dimension. full is the benchmark; tiny is the
// tier-1 smoke test's scale (same code, seconds instead of minutes).
type sizes struct {
	n      int // records
	rounds int

	hotPool, hotVariants, hotCalls, hotCap int
	coldQueries, coldPass, coldCap         int
	batchPool, batchCalls, batchSize       int
	churnPool, churnReads, churnCap        int
	churnSegments                          int

	setupReps      int // most set-ups one run times
	recoverQueries int // oracle queries after churn_durable's restart
	probeQueries   int // fill_cold queries the gir/skyline/hull/lp probes use
	probeWrites    int // records the write probes insert and delete
	replayOps      int // script ops per traced run replayed through the layers
}

var (
	full = sizes{
		n: 200_000, rounds: 10,
		hotPool: 256, hotVariants: 8192, hotCalls: 16 * 8192, hotCap: 4096,
		coldQueries: 640, coldPass: 16, coldCap: 64,
		batchPool: 512, batchCalls: 64, batchSize: 64,
		churnPool: 128, churnReads: 100, churnCap: 1024, churnSegments: 8,
		setupReps: 5, recoverQueries: 32, probeQueries: 64, probeWrites: 200, replayOps: 32,
	}
	tiny = sizes{
		n: 2_000, rounds: 1,
		hotPool: 16, hotVariants: 256, hotCalls: 2 * 256, hotCap: 4096,
		coldQueries: 24, coldPass: 12, coldCap: 8,
		batchPool: 32, batchCalls: 4, batchSize: 64,
		churnPool: 16, churnReads: 100, churnCap: 1024, churnSegments: 2,
		setupReps: 1, recoverQueries: 8, probeQueries: 4, probeWrites: 16, replayOps: 8,
	}
)

// hotBlock is how many consecutive serve_hot calls one latency sample
// averages. A warm hit is ~0.5 µs, at the timer's own cost when timed singly,
// so calls are timed in blocks; but the hypervisor takes the CPU away some
// thousand times a second for ~0.1 ms, and the share of blocks one of those
// gaps lands in grows with the block: at 32 calls (~50 µs) and 15% stolen
// time it passed 5% and lat_p95_us read the gaps, not the library. Eight
// calls keep the two timer reads under 1% of a sample and the gaps in p99.
const hotBlock = 8

// Churn script shape: a burst of churnBurst writes before every
// churnEvery-th read; every churnHotEvery-th insert lands in the top corner
// so it displaces cached results; a delete removes the oldest live insert
// once more than churnLive are alive, so each insert is read against for
// about two bursts before it goes.
const (
	churnEvery    = 20
	churnBurst    = 4
	churnHotEvery = 8
	churnLive     = 4
	walSyncEvery  = 8 // the flush policy: one fsync per 8 appended records
)

// env is what a run generates before any timer starts.
//
// Two streams drive it. The constant dataSeed draws what stands still in a
// deployment: the records, the pools of popular query vectors, and the plan
// of the churn script (genChurn). seed (the -seed flag) draws the traffic:
// which pool vector is asked when and with what jitter, fill_cold's
// never-repeated vectors, the inserted records. A run cannot average over
// what dataSeed draws — every query reads the same few hundred records in
// the top corner, and under Zipf(1.3) three pool vectors are half the
// traffic — so re-drawing them per seed moved fill_cold's ops_per_s between
// 38 and 62 and serve_hot's by +-14% across six seeds, far past any bound
// worth gating on. What seed draws, a run sums over thousands of times.
type env struct {
	sz     sizes
	seed   int64
	points [][]float64
	sh     *shadow
	outDir string
}

func newEnv(sz sizes, seed int64, outDir string) *env {
	pts := genPoints(sz.n)
	return &env{sz: sz, seed: seed, points: pts, sh: newShadow(pts), outDir: outDir}
}

// pool draws a workload's standing pool of popular vectors.
func (e *env) pool(stream uint64, size int) []query {
	return genPool(newRNG(dataSeed, stream), size)
}

// recorder receives what a pass measures. Samples are nanoseconds.
type recorder struct {
	reads, writes []float64
	ops, failed   int
	tr            *tracer // nil in the untraced run
}

// newRecorder sizes the sample buffers for a round several times today's
// busiest (serve_hot, ~115k samples), so they are part of the heap baseline
// and never grow under live_heap_mb or go.allocs_per_op.
func newRecorder(tr *tracer) *recorder {
	return &recorder{reads: make([]float64, 0, 1<<20), writes: make([]float64, 0, 1<<14), tr: tr}
}

func (r *recorder) reset() {
	r.reads, r.writes = r.reads[:0], r.writes[:0]
	r.ops, r.failed = 0, 0
}

// done counts n completed ops, bad of them failed.
func (r *recorder) done(n, bad int) {
	r.ops += n
	r.failed += bad
}

// span records the outer span of a new script op from timestamps the loop
// already took; spanMore adds another outer span to the same op.
func (r *recorder) span(name string, t0, t1 time.Time) {
	if r.tr != nil {
		r.tr.add(0, r.tr.nextOp(), name, t0, t1)
	}
}

func (r *recorder) spanMore(name string, t0, t1 time.Time) {
	if r.tr != nil {
		r.tr.add(0, r.tr.op, name, t0, t1)
	}
}

// readName classifies a read's outer span by what the engine reported.
func readName(res gir.EngineResult) string {
	if res.CacheHit {
		return "engine.topk.hit"
	}
	return "engine.topk.miss"
}

// workload is one closed-loop script driven by the single client goroutine.
type workload interface {
	name() string
	// setup constructs the library objects and runs one warm pass into rec:
	// the interval reported as setup_s.
	setup(rec *recorder) error
	// pass runs the fixed script once, whole.
	pass(rec *recorder)
	// lastOps returns the first n ops of the most recent pass, in the order
	// the pass ran them (and opened their outer spans).
	lastOps(n int) []replayOp
	// engine exposes the counters the exact per-layer metrics derive from.
	engine() *gir.Engine
	// close releases everything setup built.
	close() error
}

// served is the dataset and engine a set-up builds; the workloads embed it.
type served struct {
	ds  *gir.Dataset
	eng *gir.Engine
}

func (s *served) engine() *gir.Engine { return s.eng }

// open bulk-loads the records and starts an engine over them.
func (s *served) open(e *env, opts gir.EngineOptions) error {
	ds, err := gir.NewDataset(e.points)
	if err != nil {
		return err
	}
	s.ds, s.eng = ds, gir.NewEngine(ds, opts)
	return nil
}

func (s *served) close() error {
	s.eng.Close()
	s.ds, s.eng = nil, nil
	return nil
}

// timedRead sends one read, records its sample and outer span, and checks
// the answer after the timer stopped.
func (s *served) timedRead(rec *recorder, qu *query) {
	t0 := time.Now()
	res := s.eng.TopK(qu.q, qu.k)
	t1 := time.Now()
	rec.reads = append(rec.reads, float64(t1.Sub(t0)))
	rec.span(readName(res), t0, t1)
	rec.done(1, btoi(res.Err != nil || !qu.exp.matches(res.Records)))
}

// checker is a workload with an invariant of its own to hold once the last
// round is over, beyond every op matching the oracle.
type checker interface {
	check(hitRatio float64) (attempted, failed int, err error)
}

// replayOp is one script op in the form the traced run's layer-by-layer
// replay needs: a read (serve_hot: a block of hotBlock reads), a batch call,
// or a churn write.
type replayOp struct {
	reads []query
	batch bool
	write *churnStep
}

// ---- serve_hot ----

type serveHot struct {
	served
	env      *env
	pool     []query // in popularity order, most asked first
	variants []query
	dst      [hotBlock][]gir.Record
	res      [hotBlock]gir.EngineResult
}

func genHot(e *env) []query {
	return drawVariants(newRNG(e.seed, streamHot), e.pool(streamHot, e.sz.hotPool), e.sz.hotVariants)
}

func newServeHot(e *env) *serveHot {
	w := &serveHot{env: e, pool: e.pool(streamHot, e.sz.hotPool), variants: genHot(e)}
	e.sh.fillExpected(w.pool)
	e.sh.fillExpected(w.variants)
	for i := range w.dst {
		w.dst[i] = make([]gir.Record, kMax)
	}
	return w
}

func (w *serveHot) name() string { return "serve_hot" }

func (w *serveHot) setup(rec *recorder) error {
	if err := w.open(w.env, gir.EngineOptions{CacheCapacity: w.env.sz.hotCap, CacheShards: 1}); err != nil {
		return err
	}
	// The warm pass asks the pool's vectors, most popular first, then every
	// variant once. The cache scans its entries in the order they were put,
	// so where the few vectors that are most of the traffic sit in that order
	// sets what a hit costs; left to the order a seed's draws first mention
	// them, ten seeds read 507k-596k ops/s with nothing stolen.
	w.run(rec, w.pool, len(w.pool))
	w.run(rec, w.variants, len(w.variants))
	return nil
}

// check holds serve_hot to its premise: the working set fits and the warm
// pass covered it, so every measured call was a complete hit.
func (w *serveHot) check(hitRatio float64) (int, int, error) {
	if hitRatio != 1 {
		return 0, 0, fmt.Errorf("measured hit ratio %.6f, want exactly 1: the warm pass did not cover the working set", hitRatio)
	}
	return 0, 0, nil
}

func (w *serveHot) pass(rec *recorder) { w.run(rec, w.variants, w.env.sz.hotCalls) }

// run sends calls queries, walking qs in a circle.
func (w *serveHot) run(rec *recorder, qs []query, calls int) {
	nv := len(qs)
	for base := 0; base < calls; base += hotBlock {
		t0 := time.Now()
		for j := 0; j < hotBlock; j++ {
			v := &qs[(base+j)%nv]
			w.res[j] = w.eng.TopKBuf(w.dst[j], v.q, v.k)
		}
		t1 := time.Now()
		rec.reads = append(rec.reads, float64(t1.Sub(t0))/hotBlock)
		rec.span("engine.topk_buf.x8", t0, t1)
		bad := 0
		for j := 0; j < hotBlock; j++ {
			if r := &w.res[j]; r.Err != nil || !qs[(base+j)%nv].exp.matches(r.Records) {
				bad++
			}
		}
		rec.done(hotBlock, bad)
	}
}

func (w *serveHot) lastOps(n int) []replayOp {
	ops := make([]replayOp, n)
	for b := range ops {
		for j := 0; j < hotBlock; j++ {
			ops[b].reads = append(ops[b].reads, w.variants[(b*hotBlock+j)%len(w.variants)])
		}
	}
	return ops
}

// ---- fill_cold ----

type fillCold struct {
	served
	env     *env
	queries []query
	next    int // where the next pass starts in queries
}

func genCold(e *env) []query { return genPool(newRNG(e.seed, streamCold), e.sz.coldQueries) }

func newFillCold(e *env) *fillCold {
	w := &fillCold{env: e, queries: genCold(e)}
	e.sh.fillExpected(w.queries)
	return w
}

func (w *fillCold) name() string { return "fill_cold" }

// setup's warm pass runs passes until the cache has evicted at least once,
// so every measured put pays the eviction scan.
func (w *fillCold) setup(rec *recorder) error {
	if err := w.open(w.env, gir.EngineOptions{CacheCapacity: w.env.sz.coldCap, CacheShards: 1}); err != nil {
		return err
	}
	w.next = 0
	for w.next <= w.env.sz.coldCap {
		w.pass(rec)
	}
	return nil
}

// pass sends the script's next coldPass vectors. The script is one long list
// of distinct vectors walked in a circle: by the time one comes round again
// its entry was evicted coldQueries-coldCap puts ago, so nothing repeats
// within the cache's memory and every op is a fill.
func (w *fillCold) pass(rec *recorder) {
	for range w.env.sz.coldPass {
		w.timedRead(rec, &w.queries[w.next%len(w.queries)])
		w.next++
	}
}

func (w *fillCold) lastOps(n int) []replayOp {
	n = min(n, w.env.sz.coldPass)
	ops := make([]replayOp, n)
	for i := range ops {
		at := (w.next - w.env.sz.coldPass + i) % len(w.queries)
		ops[i].reads = w.queries[at : at+1]
	}
	return ops
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ---- batch_scan ----

type batchScan struct {
	served
	env     *env
	queries []query
	batches [][]gir.Query
}

func genBatch(e *env) []query {
	return drawVariants(newRNG(e.seed, streamBatch), e.pool(streamBatch, e.sz.batchPool), e.sz.batchCalls*e.sz.batchSize)
}

func toBatches(qs []query, size int) [][]gir.Query {
	out := make([][]gir.Query, 0, len(qs)/size)
	for lo := 0; lo < len(qs); lo += size {
		b := make([]gir.Query, size)
		for i := range b {
			b[i] = gir.Query{Vector: qs[lo+i].q, K: qs[lo+i].k}
		}
		out = append(out, b)
	}
	return out
}

func newBatchScan(e *env) *batchScan {
	w := &batchScan{env: e, queries: genBatch(e)}
	e.sh.fillExpected(w.queries)
	w.batches = toBatches(w.queries, e.sz.batchSize)
	return w
}

func (w *batchScan) name() string { return "batch_scan" }

func (w *batchScan) setup(rec *recorder) error {
	if err := w.open(w.env, gir.EngineOptions{CacheCapacity: -1, Workers: 2}); err != nil {
		return err
	}
	w.pass(rec)
	return nil
}

func (w *batchScan) pass(rec *recorder) {
	size := w.env.sz.batchSize
	for b, batch := range w.batches {
		t0 := time.Now()
		out := w.eng.BatchTopK(batch)
		t1 := time.Now()
		rec.reads = append(rec.reads, float64(t1.Sub(t0)))
		rec.span("engine.batch_topk", t0, t1)
		bad := 0
		for i := range out {
			if out[i].Err != nil || !w.queries[b*size+i].exp.matches(out[i].Records) {
				bad++
			}
		}
		rec.done(size, bad)
	}
}

func (w *batchScan) lastOps(n int) []replayOp {
	size := w.env.sz.batchSize
	ops := make([]replayOp, min(n, len(w.batches)))
	for i := range ops {
		ops[i] = replayOp{reads: w.queries[i*size : (i+1)*size], batch: true}
	}
	return ops
}

// ---- churn_durable ----

type stepKind int8

const (
	stepRead stepKind = iota
	stepInsert
	stepDelete
)

// churnStep is one op of the churn script. A write with quiesce set is the
// last of its burst: Engine.Quiesce runs inside its timed interval, so the
// drain is on the clock and every later read sees a reconciled cache.
type churnStep struct {
	kind    stepKind
	read    int // index into reads (stepRead)
	id      int64
	p       []float64
	quiesce bool
}

// churnScript is one pass: its segments in a row over one query pool, a
// checkpoint after each. Every segment ends by deleting its remaining
// inserts, so each segment, and each pass, starts from the same logical
// dataset.
type churnScript struct {
	pool []query // exp holds the truth on the bulk-loaded records
	segs []churnSegment
	// The restart check replays segs[0].steps[:stopAt] (mid-pass, so the log
	// holds writes no checkpoint covers), recovers, and expects liveAtStop
	// extra records and recoverExp[i] for segs[0].reads[i].
	stopAt     int
	liveAtStop int
	recoverExp []expect
}

// head is the part of the script the probes fill their cache from and take
// their writes from: four segments, 400 reads and ~100 writes at full scale.
func (sc *churnScript) head() []churnSegment { return sc.segs[:min(4, len(sc.segs))] }

type churnSegment struct {
	reads []query // exp holds the truth at the read's own step
	steps []churnStep
}

type liveRec struct {
	id int64
	p  []float64
}

// Displacing inserts are drawn from [0.9,0.999]^dim until the number of
// cached results they are expected to displace and see asked again while
// they live is between hotLo and hotHi: the sum, over the pool vectors whose
// result the record enters, of the chance that the vector is drawn in the
// hotLife reads between the insert and its delete. Unconstrained draws from
// that box beat nothing or everything, and a band on the count of vectors
// entered still let one seed displace the most popular vector (a third of
// the traffic) where another displaced ten that are hardly ever asked: a
// pass's refill count - half of what churn_durable's time is made of - swung
// sevenfold between seeds under the first and 285-516 ops/s under the second.
const (
	hotLo   = 1.0
	hotHi   = 1.5
	hotLife = 2 * churnEvery
)

// genChurn draws the script and advances the shadow through every segment
// step by step: the single client quiesces after each burst, so each read's
// dataset version — hence its truth — is known exactly.
//
// Like the dataset and the pools (see env), the script's plan stands still
// whatever the seed: which pool vectors are asked between two bursts, and
// the displacing records. A pass holds some fifty refills, which are half of
// its time, and a dozen displacing inserts that cause most of them; with
// both drawn by the seed, seven seeds' refills per 4000 reads read 236-281,
// a tenth of the rate apart, and no run is long enough to average that out. The
// seed draws the order of the reads between two bursts, their jitter, and
// every other inserted record; across eleven seeds a pass's refills then
// read 47-52.
func genChurn(e *env) *churnScript {
	plan := newRNG(dataSeed, streamChurnPlan)
	r := newRNG(e.seed, streamChurn)
	pool := e.pool(streamChurn, e.sz.churnPool)
	kth := make([]float64, len(pool)) // each pool vector's k-th base score
	for i, best := range e.sh.tops(pool) {
		kth[i] = best[pool[i].k-1].s
	}
	asked := make([]float64, len(pool)) // the chance a pool vector is drawn within hotLife reads
	for i, z := 0, newZipf(len(pool), zipfS); i < len(pool); i++ {
		pmf := z.cdf[i]
		if i > 0 {
			pmf -= z.cdf[i-1]
		}
		asked[i] = 1 - math.Pow(1-pmf, hotLife)
	}
	displaces := func(p []float64) float64 {
		sum := 0.0
		for i, qu := range pool {
			if dot(qu.q, p) > kth[i] {
				sum += asked[i]
			}
		}
		return sum
	}

	e.sh.fillExpected(pool)
	sc := &churnScript{pool: pool, segs: make([]churnSegment, e.sz.churnSegments)}
	var all []query
	z := newZipf(len(pool), zipfS)
	asks := make([]int, e.sz.churnReads)
	for s := range sc.segs {
		for i := range asks {
			asks[i] = z.draw(plan)
		}
		for lo := 0; lo < len(asks); {
			hi := min(len(asks), lo+churnEvery-(lo+1)%churnEvery) // the read the next burst precedes
			shuffle(r, asks[lo:hi])
			lo = hi
		}
		sc.segs[s].reads = make([]query, len(asks))
		for i, a := range asks {
			sc.segs[s].reads[i] = jittered(r, pool[a])
		}
		all = append(all, sc.segs[s].reads...)
	}
	baseTop := e.sh.tops(all)

	for s := range sc.segs {
		seg := &sc.segs[s]
		base := baseTop[s*e.sz.churnReads:]
		truth := func(i int, live []liveRec) expect {
			qu := seg.reads[i]
			cand := append([]scored(nil), base[i]...)
			for _, l := range live {
				cand = append(cand, scored{id: l.id, s: dot(qu.q, l.p)})
			}
			sort.Slice(cand, func(a, b int) bool { return better(cand[a], cand[b]) })
			return newExpect(cand[:kMax+tieSlack], qu.k)
		}

		var live []liveRec
		inserts := 0
		write := func(pos int) {
			if pos%2 == 1 && len(live) > churnLive {
				old := live[0]
				live = live[1:]
				seg.steps = append(seg.steps, churnStep{kind: stepDelete, id: old.id, p: old.p})
				return
			}
			p := make([]float64, dim)
			if inserts%churnHotEvery == churnHotEvery-1 {
				for try := 0; try < 10_000; try++ {
					for j := range p {
						p[j] = plan.between(0.9, 0.999)
					}
					if n := displaces(p); n >= hotLo && n <= hotHi {
						break
					}
				}
			} else {
				for j := range p {
					p[j] = r.float()
				}
			}
			rec := liveRec{id: freshIDBase + int64(inserts), p: p}
			inserts++
			live = append(live, rec)
			seg.steps = append(seg.steps, churnStep{kind: stepInsert, id: rec.id, p: p})
		}
		bursts := len(seg.reads) / churnEvery
		for i := range seg.reads {
			if i%churnEvery == churnEvery-1 {
				for pos := 0; pos < churnBurst; pos++ {
					write(pos)
				}
				seg.steps[len(seg.steps)-1].quiesce = true
				if s == 0 && (i+1)/churnEvery == (bursts+1)/2 {
					sc.stopAt, sc.liveAtStop = len(seg.steps), len(live)
					sc.recoverExp = make([]expect, min(e.sz.recoverQueries, len(seg.reads)))
					for j := range sc.recoverExp {
						sc.recoverExp[j] = truth(j, live)
					}
				}
			}
			seg.reads[i].exp = truth(i, live)
			seg.steps = append(seg.steps, churnStep{kind: stepRead, read: i})
		}
		for _, l := range live {
			seg.steps = append(seg.steps, churnStep{kind: stepDelete, id: l.id, p: l.p})
		}
		seg.steps[len(seg.steps)-1].quiesce = true
	}
	return sc
}

type churnDurable struct {
	served
	env    *env
	script *churnScript
	dir    string
}

func newChurnDurable(e *env) *churnDurable {
	return &churnDurable{env: e, script: genChurn(e)}
}

func (w *churnDurable) name() string { return "churn_durable" }

func (w *churnDurable) engineOptions() gir.EngineOptions {
	return gir.EngineOptions{RepairMode: true, CacheCapacity: w.env.sz.churnCap, CacheShards: 1}
}

func (w *churnDurable) setup(rec *recorder) error {
	dir, err := os.MkdirTemp(w.env.outDir, "churn-")
	if err != nil {
		return err
	}
	w.dir = dir
	ds, err := gir.NewDataset(w.env.points)
	if err != nil {
		return err
	}
	if err := ds.EnableWAL(dir, gir.WALOptions{SyncEvery: walSyncEvery}); err != nil {
		return err
	}
	w.ds = ds
	w.eng = gir.NewEngine(ds, w.engineOptions())
	// The warm pass asks every pool vector once, so the drains run against a
	// cache that holds the whole pool and not only what the script asks, then
	// runs the script once: the first time round every jittered read that
	// lands outside its vector's region is a fill and the tree splits for the
	// inserted records (a first lap of 4000 reads had 236 refills and 3.3 s of
	// writes, the laps after it 214 and 2.4 s); from the second pass on every
	// pass does the same work.
	for i := range w.script.pool {
		w.timedRead(rec, &w.script.pool[i])
	}
	w.pass(rec)
	return nil
}

func (w *churnDurable) pass(rec *recorder) {
	for s := range w.script.segs {
		seg := &w.script.segs[s]
		w.runSteps(rec, seg, seg.steps)
		t0 := time.Now()
		err := w.eng.Checkpoint(w.dir)
		t1 := time.Now()
		rec.span("engine.checkpoint", t0, t1)
		rec.failed += btoi(err != nil)
	}
}

func (w *churnDurable) runSteps(rec *recorder, seg *churnSegment, steps []churnStep) {
	for i := range steps {
		st := &steps[i]
		if st.kind == stepRead {
			w.timedRead(rec, &seg.reads[st.read])
			continue
		}
		var err error
		ok := true
		name := "dataset.insert"
		t0 := time.Now()
		if st.kind == stepInsert {
			err = w.ds.Insert(st.id, st.p)
		} else {
			name = "dataset.delete"
			ok, err = w.ds.Delete(st.id, st.p)
		}
		t1 := time.Now()
		rec.span(name, t0, t1)
		if st.quiesce {
			w.eng.Quiesce()
			t2 := time.Now()
			rec.spanMore("engine.quiesce", t1, t2)
			t1 = t2
		}
		rec.writes = append(rec.writes, float64(t1.Sub(t0)))
		rec.done(1, btoi(err != nil || !ok))
	}
}

func (w *churnDurable) lastOps(n int) []replayOp {
	seg := &w.script.segs[0]
	ops := make([]replayOp, min(n, len(seg.steps)))
	for i := range ops {
		if st := &seg.steps[i]; st.kind == stepRead {
			ops[i].reads = seg.reads[st.read : st.read+1]
		} else {
			ops[i].write = st
		}
	}
	return ops
}

// check is the durability check after the last round: it replays the script
// to mid-pass so the log holds acknowledged writes no checkpoint covers,
// closes, recovers from the directory alone, and requires the record count
// and the oracle's answers at that step.
func (w *churnDurable) check(float64) (attempted, bad int, err error) {
	var rec recorder
	seg := &w.script.segs[0]
	w.runSteps(&rec, seg, seg.steps[:w.script.stopAt])
	attempted, bad = rec.ops, rec.failed
	w.eng.Close()
	if err := w.ds.Close(); err != nil {
		return attempted, bad, fmt.Errorf("restart check: close: %w", err)
	}
	ds, eng, err := gir.RecoverEngine(w.dir, gir.WALOptions{SyncEvery: walSyncEvery}, w.engineOptions())
	if err != nil {
		return attempted, bad, fmt.Errorf("restart check: recover: %w", err)
	}
	w.ds, w.eng = ds, eng
	if got, want := ds.Len(), w.env.sz.n+w.script.liveAtStop; got != want {
		return attempted, bad, fmt.Errorf("restart check: recovered dataset holds %d records, want %d", got, want)
	}
	for i := range w.script.recoverExp {
		qu := seg.reads[i]
		res := eng.TopK(qu.q, qu.k)
		attempted++
		bad += btoi(res.Err != nil || !w.script.recoverExp[i].matches(res.Records))
	}
	return attempted, bad, nil
}

func (w *churnDurable) close() error {
	w.eng.Close()
	err := w.ds.Close()
	if rmErr := os.RemoveAll(w.dir); err == nil {
		err = rmErr
	}
	w.eng, w.ds = nil, nil
	return err
}

// workloadNames is the fixed order the suite runs in.
var workloadNames = []string{"serve_hot", "fill_cold", "batch_scan", "churn_durable"}

// newWorkload generates the named workload's inputs and expectations.
func newWorkload(e *env, name string) (workload, error) {
	switch name {
	case "serve_hot":
		return newServeHot(e), nil
	case "fill_cold":
		return newFillCold(e), nil
	case "batch_scan":
		return newBatchScan(e), nil
	case "churn_durable":
		return newChurnDurable(e), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}
