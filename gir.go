// Package gir is a Go implementation of Global Immutable Region (GIR)
// computation for top-k queries, reproducing Zhang, Mouratidis & Pang,
// "Global Immutable Region Computation", SIGMOD 2014.
//
// A top-k query scores every record of a dataset with a weighted sum
// S(p,q) = Σ w_i·p_i and returns the k best. The GIR is the maximal region
// of weight vectors q' for which the current top-k result — composition
// and order — stays exactly the same. It is a convex polytope (an
// intersection of half-spaces through the origin, clipped to the query
// space) and supports three applications: guiding weight readjustment,
// quantifying result robustness, and caching results.
//
// Basic use:
//
//	ds, _ := gir.NewDataset(points)          // bulk-loads an R*-tree
//	res, _ := ds.TopK(q, 10)                 // BRS top-k
//	g, _ := ds.ComputeGIR(res, gir.FP)       // facet-pruning GIR
//	g.Contains(q2)                           // would q2 change the result?
//	g.LIRs()                                 // per-weight validity ranges
//	g.VolumeRatio(...)                       // robustness measure
//
// The heavy lifting lives in internal packages: an R*-tree over a
// simulated paged disk, the BRS top-k and BBS skyline algorithms, a
// d-dimensional convex-hull kernel (including the star-only incremental
// hull that powers FP), a simplex LP solver for minimal H-representations,
// and Monte-Carlo volume estimation.
package gir

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/girlib/gir/internal/domain"
	girint "github.com/girlib/gir/internal/gir"
	"github.com/girlib/gir/internal/maintain"
	"github.com/girlib/gir/internal/pager"
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

// Space selects the query-space domain GIRs are computed over — the body
// the region's cone is clipped to, sampled from, and reported against.
type Space int8

// Query spaces.
const (
	// SpaceBox is the unit hyper-cube [0,1]^d: every weight moves
	// independently. This library's historical default.
	SpaceBox Space = iota
	// SpaceSimplex is the sum-normalized space {w : Σ w_i = 1, w ≥ 0} —
	// the paper's convention. Preferences are relative, regions lose one
	// dimension, and volume ratios match the paper's sensitivity figures
	// at higher d. Queries must be normalized (see Space.Normalize);
	// linear ranking is scale-invariant, so any nonnegative preference
	// vector has an equivalent simplex query.
	SpaceSimplex
)

func (s Space) String() string {
	switch s {
	case SpaceBox:
		return "box"
	case SpaceSimplex:
		return "simplex"
	}
	return fmt.Sprintf("gir.Space(%d)", int8(s))
}

// ParseSpace resolves the CLI spelling of a query space ("box",
// "simplex"; the empty string means box).
func ParseSpace(name string) (Space, error) {
	switch name {
	case "box", "":
		return SpaceBox, nil
	case "simplex":
		return SpaceSimplex, nil
	}
	return 0, fmt.Errorf("gir: unknown query space %q (want box or simplex)", name)
}

// domain resolves the space to its internal Domain for dimension d.
func (s Space) domain(d int) domain.Domain {
	if s == SpaceSimplex {
		return domain.Simplex(d)
	}
	return domain.UnitBox(d)
}

// Normalize maps a nonnegative preference vector into the space: the box
// clamps weights to [0,1]; the simplex divides by the sum (an all-zero
// vector maps to uniform weights). The returned vector is a fresh slice.
func (s Space) Normalize(q []float64) []float64 {
	return s.domain(len(q)).Normalize(vec.Vector(q))
}

// spaceOfKind maps a persisted domain kind back to the Space enum.
func spaceOfKind(k domain.Kind) Space {
	if k == domain.KindSimplex {
		return SpaceSimplex
	}
	return SpaceBox
}

// Method selects the Phase-2 GIR algorithm. The zero value is FP, so an
// unset Method field (EngineOptions.CacheMethod in particular) means the
// paper's headline algorithm, not the slowest one.
type Method = girint.Method

// Phase-2 algorithms (the paper's Sections 5–6, implemented in
// internal/gir). All produce the same region for linear scoring; they
// differ in cost.
const (
	// FP computes only the hull facets incident to the k-th result record
	// — the paper's fastest and most scalable algorithm, and the zero
	// value. Linear only.
	FP = girint.FP
	// SP prunes candidate records to the skyline of the non-result set.
	// Works for every monotone scoring function.
	SP = girint.SP
	// CP prunes further, to skyline records on the skyline's convex hull.
	// Linear scoring only.
	CP = girint.CP
	// Exhaustive derives one half-space per non-result record (the
	// Section 3.3 baseline). Use only on small datasets, e.g. to validate.
	Exhaustive = girint.Exhaustive
)

// Scoring identifies a scoring function family for TopKFunc.
type Scoring int

// Scoring function families (Section 7.2 of the paper).
const (
	// Linear is S(p,q) = Σ w_i·p_i (the default).
	Linear Scoring = iota
	// Polynomial is S(p,q) = Σ w_i·p_i^(d−i), monotone non-linear.
	Polynomial
	// Mixed cycles x², eˣ, log(1+x), √x across dimensions.
	Mixed
)

func (s Scoring) function(d int) score.Function {
	switch s {
	case Linear:
		return score.Linear{}
	case Polynomial:
		return score.NewPolynomial(d)
	case Mixed:
		return score.Mixed{}
	}
	panic(fmt.Sprintf("gir: unknown scoring %d", int(s)))
}

// Record is one dataset record in a top-k result.
type Record struct {
	ID    int64
	Attrs []float64
	Score float64
}

// IOStats reports simulated disk activity.
type IOStats struct {
	PageReads  int64
	PageWrites int64
	// IOTime is PageReads × the simulated per-read latency (100 µs,
	// pager.DefaultCostModel).
	IOTime time.Duration
}

// Dataset is an indexed collection of records in [0,1]^d, stored in an
// R*-tree over simulated 4 KiB disk pages.
//
// A Dataset is safe for concurrent use, and reads never block on writes:
// every query pins an immutable snapshot of the index (published by the
// last mutation with an atomic pointer swap) and traverses it without
// taking any lock, so a writer parked in a WAL fsync — or mid-insert —
// never stalls a reader. Insert and Delete serialize with each other on a
// writer mutex and pay the copy-on-write page relocations. A TopKResult
// powers a ComputeGIR only against the dataset version it was computed
// at; after an intervening mutation ComputeGIR returns an error — rerun
// TopK.
type Dataset struct {
	mu     sync.RWMutex // serializes writers and configuration; readers do not take it
	tree   *rtree.Tree  // the writer's mutable handle; readers use ds.snap
	store  pager.Store
	wal    *pager.WAL // non-nil once EnableWAL/Recover attached a log
	walDir string     // the durable directory the WAL lives in
	space  Space      // the query-space domain (data space is [0,1]^d regardless)

	// Checkpoint state of walDir (see checkpointLocked): base identifies its
	// dataset.snap, delta describes the dataset.delta that extends it, and
	// dirty holds the pages written since the last checkpoint — non-nil
	// exactly while the directory is attached, replay included.
	base  pager.BaseID
	delta pager.DeltaStats
	dirty map[pager.PageID]struct{}

	// snap is the current published index version — the tree state, the
	// query space and the mutation version, swapped in together by
	// publishSnapLocked, the one place any of them becomes visible. Readers
	// pin it with pinSnap. retired holds superseded snapshots, oldest
	// first, whose freed pages wait for the last pinned reader before
	// returning to the store's freelist (reclaimLocked, under mu).
	snap    atomic.Pointer[treeSnap]
	retired []*treeSnap

	subID int64                             // next subscriber handle
	subs  map[int64]func(maintain.Mutation) // mutation listeners (Engines), under mu
}

// treeSnap is one immutable published version of the index: a read-only
// tree view over the shared store plus the version and query space it was
// published with. Snapshot pages are never overwritten (mutations are
// copy-on-write), so any number of readers traverse a pinned snapshot
// with no lock at all.
type treeSnap struct {
	tree    *rtree.Tree
	version int64
	space   Space
	refs    atomic.Int64 // pinned readers
	// freed is set at retirement: the pages the superseding mutation
	// relocated or discarded. They may back this and any earlier version,
	// so reclamation frees retired snapshots strictly oldest-first.
	freed []pager.PageID
}

// pinSnap acquires the current snapshot for reading. The increment is
// published before re-checking currency: if the snapshot pointer still
// matches, the snapshot was current — hence not retired, hence not
// reclaimed — at a moment after the pin count became visible, so its
// pages cannot be freed until release. On a lost race (a writer swapped
// in between) it backs off and retries; no path blocks.
func (ds *Dataset) pinSnap() *treeSnap {
	for {
		s := ds.snap.Load()
		s.refs.Add(1)
		if ds.snap.Load() == s {
			return s
		}
		s.refs.Add(-1)
	}
}

// release drops a pin taken by pinSnap. Freed pages of a drained snapshot
// are returned to the store by the next mutation's reclaim pass.
func (s *treeSnap) release() { s.refs.Add(-1) }

// validate checks a query vector and k against this snapshot.
func (s *treeSnap) validate(q []float64, k int) error {
	if len(q) != s.tree.Dim() {
		return fmt.Errorf("gir: query has dimension %d, want %d", len(q), s.tree.Dim())
	}
	sum := 0.0
	for _, w := range q {
		if w < 0 {
			return errors.New("gir: query weights must be nonnegative")
		}
		sum += w
	}
	// One compare per query rejects NaN and +Inf weights: either poisons
	// the sum, and neither fails w < 0 or the simplex test below.
	if !(sum <= math.MaxFloat64) {
		return errors.New("gir: query weights must be finite")
	}
	if s.space == SpaceSimplex && math.Abs(sum-1) > domain.EqTol {
		return fmt.Errorf("gir: query weights sum to %v; the simplex query space needs Σw = 1 (normalize with gir.SpaceSimplex.Normalize)", sum)
	}
	if k <= 0 || k > s.tree.Len() {
		return fmt.Errorf("gir: k = %d out of range (dataset has %d records)", k, s.tree.Len())
	}
	return nil
}

// topK validates and answers a query against this snapshot on a scratch
// borrowed from the package pool for just this call.
func (s *treeSnap) topK(q []float64, k int, sc Scoring) (*topk.Result, error) {
	if err := s.validate(q, k); err != nil {
		return nil, err
	}
	return topk.BRS(s.tree, sc.function(s.tree.Dim()), vec.Vector(q), k), nil
}

// subscribe registers fn to observe every future mutation and returns an
// unsubscribe function. fn is invoked while the exclusive mutation lock is
// held and BEFORE the new dataset version becomes visible, so a reader
// that observes version v is guaranteed the events for every mutation up
// to v have already been delivered. fn must therefore be fast and must
// never block (the Engine just appends to an in-memory queue).
func (ds *Dataset) subscribe(fn func(maintain.Mutation)) (unsubscribe func()) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.subs == nil {
		ds.subs = make(map[int64]func(maintain.Mutation))
	}
	id := ds.subID
	ds.subID++
	ds.subs[id] = fn
	return func() {
		ds.mu.Lock()
		defer ds.mu.Unlock()
		delete(ds.subs, id)
	}
}

// applyLocked is the one mutation path: Insert and Delete reach it with
// their log append as log, replay reaches it with nil. It applies m to the
// writer tree copy-on-write, delivers the event to subscribers and then
// publishes the new snapshot; the caller holds ds.mu exclusively. Delivery
// strictly precedes visibility — the snapshot swap is the visibility point
// — so a reader that pins version v is guaranteed the events for every
// mutation up to v were already handed to subscribers. log runs before any
// page is written: ahead of an insert, and for a delete once the tree's walk
// has found the record, so one walk both probes and deletes and a miss is
// never logged. It reports false, with nothing published, for a delete of a
// record the index does not hold or a failed log (whose error it returns):
// nothing was written, so the commit supersedes no pages. While a durable
// directory is attached, the pages the mutation wrote join the dirty set the
// next checkpoint persists.
func (ds *Dataset) applyLocked(m maintain.Mutation, log func() error) (bool, error) {
	ds.tree.BeginCOW()
	var ok bool
	var err error
	if m.Insert {
		if log != nil {
			err = log()
		}
		if ok = err == nil; ok {
			ds.tree.Insert(m.ID, m.Point)
		}
	} else {
		ok, err = ds.tree.DeleteWith(m.ID, m.Point, log)
	}
	freed, fresh := ds.tree.CommitCOW()
	if !ok {
		return false, err
	}
	if ds.dirty != nil {
		for id := range fresh {
			ds.dirty[id] = struct{}{}
		}
	}
	for _, fn := range ds.subs {
		fn(m)
	}
	ds.publishSnapLocked(m.Version, freed)
	return true, nil
}

// logStep is m's write-ahead append for applyLocked, or nil when no log is
// attached.
func (ds *Dataset) logStep(m maintain.Mutation) func() error {
	if ds.wal == nil {
		return nil
	}
	return func() error { return ds.wal.Append(walEncode(m)) }
}

// nextMutationLocked stamps a mutation the caller is about to log and
// apply with the version it will produce; the point is copied, so the
// event subscribers keep does not alias the caller's slice.
func (ds *Dataset) nextMutationLocked(insert bool, id int64, p []float64) maintain.Mutation {
	return maintain.Mutation{
		Version: ds.Version() + 1,
		Insert:  insert,
		ID:      id,
		Point:   append(vec.Vector(nil), p...),
	}
}

// publishSnapLocked swaps in a fresh snapshot of the writer tree's state
// at the given version and retires the previous one, attaching the pages
// this mutation superseded. It is the only place a dataset version (or
// tree state, or query space) becomes visible; the caller holds ds.mu
// exclusively, or is a constructor whose dataset nobody else can see yet.
// Retired snapshots are reclaimed oldest-first as their pins drain.
func (ds *Dataset) publishSnapLocked(version int64, freed []pager.PageID) {
	root, height, size := ds.tree.Meta()
	next := &treeSnap{
		tree:    rtree.Attach(ds.store, ds.tree.Dim(), root, height, size),
		version: version,
		space:   ds.space,
	}
	prev := ds.snap.Load()
	ds.snap.Store(next)
	if prev != nil {
		prev.freed = freed
		ds.retired = append(ds.retired, prev)
		ds.reclaimLocked()
	}
}

// reclaimLocked frees the longest unpinned prefix of retired snapshots.
// Strictly a prefix: a page freed at version v may back any snapshot up
// to v, so it returns to the store only once every snapshot ≤ v has
// drained. Stops at the first pinned snapshot; a snapshot whose last pin
// is released later is collected by the next mutation's pass.
func (ds *Dataset) reclaimLocked() {
	n := 0
	for _, s := range ds.retired {
		if s.refs.Load() != 0 {
			break
		}
		for _, id := range s.freed {
			ds.store.Free(id)
		}
		n++
	}
	if n > 0 {
		ds.retired = append(ds.retired[:0], ds.retired[n:]...)
	}
}

// NewDatasetInSpace is NewDataset with an explicit query-space domain.
// The DATA space is [0,1]^d either way — only query vectors, regions and
// volume measures live in the chosen space.
func NewDatasetInSpace(points [][]float64, space Space) (*Dataset, error) {
	return buildDataset(nil, points, space)
}

// Space returns the dataset's active query-space domain.
func (ds *Dataset) Space() Space {
	return ds.snap.Load().space
}

// NewDataset bulk-loads (STR) an R*-tree over the given points; record ids
// are the point indices. Every point must have the same dimension d ≥ 2
// and coordinates in [0,1]. The query space defaults to the unit box;
// see NewDatasetInSpace for the paper's Σw=1 simplex.
func NewDataset(points [][]float64) (*Dataset, error) {
	return buildDataset(nil, points, SpaceBox)
}

// NewDatasetWithIDs is NewDatasetInSpace with explicit record ids:
// points[i] is stored under ids[i] instead of its index. It is the
// constructor a partitioned tier builds shards with — each partition
// holds a subset of a global dataset and must keep the GLOBAL ids, so
// results merged across partitions agree record-for-record with a single
// dataset over the union. ids must be pairwise distinct and match points
// in length.
func NewDatasetWithIDs(ids []int64, points [][]float64, space Space) (*Dataset, error) {
	if len(ids) != len(points) {
		return nil, fmt.Errorf("gir: %d ids for %d points", len(ids), len(points))
	}
	seen := make(map[int64]struct{}, len(ids))
	for _, id := range ids {
		if _, dup := seen[id]; dup {
			return nil, fmt.Errorf("gir: duplicate record id %d", id)
		}
		seen[id] = struct{}{}
	}
	return buildDataset(ids, points, space)
}

// buildDataset validates the points and bulk-loads them into an in-memory
// tree at version 0; nil ids means the point indices.
func buildDataset(ids []int64, points [][]float64, space Space) (*Dataset, error) {
	if len(points) == 0 {
		return nil, errors.New("gir: empty dataset")
	}
	d := len(points[0])
	if d < 2 {
		return nil, fmt.Errorf("gir: dimension %d not supported (need ≥ 2)", d)
	}
	pts := make([]vec.Vector, len(points))
	for i, p := range points {
		if len(p) != d {
			return nil, fmt.Errorf("gir: point %d has dimension %d, want %d", i, len(p), d)
		}
		if err := checkUnitRange(p); err != nil {
			return nil, fmt.Errorf("gir: point %d %v", i, err)
		}
		pts[i] = vec.Vector(p)
	}
	store := pager.NewMemStore()
	tree := rtree.BulkLoad(store, d, pts, ids)
	store.ResetStats()
	ds := &Dataset{tree: tree, store: store, space: space}
	ds.publishSnapLocked(0, nil)
	return ds, nil
}

// checkUnitRange reports the first coordinate outside the [0,1] data
// space. The test is written so that NaN fails it (x < 0 || x > 1 is false
// for NaN).
func checkUnitRange(p []float64) error {
	for j, x := range p {
		if !(x >= 0 && x <= 1) {
			return fmt.Errorf("coordinate %d = %v outside [0,1]", j, x)
		}
	}
	return nil
}

// Insert adds a record dynamically (R* insertion with forced reinsert).
// The point must have the dataset's dimension and coordinates in [0,1],
// like the constructor's; one that does not is refused before anything is
// logged or applied. It serializes with other writers but never blocks or excludes readers:
// the insert builds new index pages copy-on-write and publishes them as a
// new snapshot once complete, so in-flight queries keep traversing the
// old version throughout. With a write-ahead log attached (EnableWAL),
// the mutation is logged — and, per WALOptions.SyncEvery, fsynced —
// before it is applied, so a crash after Insert returns never loses it; a
// failed append aborts the insert. The fsync happens while only the
// writer mutex is held — readers are never behind it.
func (ds *Dataset) Insert(id int64, p []float64) error {
	if len(p) != ds.tree.Dim() {
		return fmt.Errorf("gir: dimension mismatch")
	}
	if err := checkUnitRange(p); err != nil {
		return fmt.Errorf("gir: insert %d: %v", id, err)
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	m := ds.nextMutationLocked(true, id, p)
	if _, err := ds.applyLocked(m, ds.logStep(m)); err != nil {
		return fmt.Errorf("gir: insert aborted, write-ahead append failed: %w", err)
	}
	return nil
}

// Delete removes the record with the given id and coordinates; it reports
// whether the record was found. Like Insert, it never blocks readers
// (copy-on-write, snapshot publication on completion) and follows the
// log-before-visibility discipline: with a write-ahead log
// attached, the deletion is appended — and, per WALOptions.SyncEvery,
// fsynced — before the tree sheds the record, so a failed append aborts
// the delete with the dataset untouched and the record still served.
// (The append runs once the tree's walk has found the record, so a miss
// never logs a record replay would reject.) A point of another dimension
// is refused before anything is logged or applied.
func (ds *Dataset) Delete(id int64, p []float64) (bool, error) {
	if len(p) != ds.tree.Dim() {
		return false, fmt.Errorf("gir: delete %d: point has dimension %d, want %d", id, len(p), ds.tree.Dim())
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	m := ds.nextMutationLocked(false, id, p)
	ok, err := ds.applyLocked(m, ds.logStep(m))
	if err != nil {
		return false, fmt.Errorf("gir: delete aborted, write-ahead append failed: %w", err)
	}
	return ok, nil
}

// Len returns the number of records (of the currently published version;
// no lock is taken).
func (ds *Dataset) Len() int {
	return ds.snap.Load().tree.Len()
}

// Version returns the dataset's mutation version: 0 at construction,
// advanced by one per applied Insert/Delete. It is the coordinate a
// sharded serving tier's version vector is built from — an Engine over
// this dataset serves results at or past the version read here (its
// generation fence vetoes cache hits that any not-yet-reconciled
// mutation could perturb). The version is read off the published
// snapshot, so it can never lag or lead the data a query sees.
func (ds *Dataset) Version() int64 { return ds.snap.Load().version }

// Dim returns the data dimensionality.
func (ds *Dataset) Dim() int { return ds.tree.Dim() }

// IOStats returns the cumulative simulated I/O counters.
func (ds *Dataset) IOStats() IOStats {
	s := ds.store.Stats()
	return IOStats{PageReads: s.Reads, PageWrites: s.Writes, IOTime: pager.DefaultCostModel.IOTime(s)}
}

// ResetIOStats zeroes the I/O counters (typically before a measurement).
func (ds *Dataset) ResetIOStats() { ds.store.ResetStats() }

// TopKResult is a top-k answer plus the retained traversal state the GIR
// algorithms resume from. A result can power exactly one GIR computation
// (the retained search heap is consumed); run TopK again for another.
type TopKResult struct {
	Records []Record
	K       int

	inner    *topk.Result
	consumed bool
	version  int64 // the dataset version the traversal ran against
}

// TopK answers a top-k query with linear scoring. The query vector must
// have the dataset's dimension and nonnegative weights.
func (ds *Dataset) TopK(q []float64, k int) (*TopKResult, error) {
	return ds.TopKFunc(q, k, Linear)
}

// TopKFunc answers a top-k query under the given scoring family. The
// traversal runs against a pinned snapshot: it never blocks on writers.
func (ds *Dataset) TopKFunc(q []float64, k int, s Scoring) (*TopKResult, error) {
	sn := ds.pinSnap()
	res, err := sn.topK(q, k, s)
	sn.release()
	return wrapTopK(res, err, k, sn.version)
}

// wrapTopK builds the public result from a BRS answer.
func wrapTopK(res *topk.Result, err error, k int, version int64) (*TopKResult, error) {
	if err != nil {
		return nil, err
	}
	out := &TopKResult{K: k, inner: res, version: version}
	for _, r := range res.Records {
		out.Records = append(out.Records, Record{ID: r.ID, Attrs: r.Point, Score: r.Score})
	}
	return out, nil
}

// take marks the result consumed, returning an error on reuse.
func (r *TopKResult) take() (*topk.Result, error) {
	if r.consumed || r.inner == nil {
		return nil, errors.New("gir: this TopKResult cannot power a GIR computation (already used, or a records-only copy); run TopK again")
	}
	r.consumed = true
	return r.inner, nil
}
