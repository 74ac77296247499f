// Microbenchmarks of the hot path (BRS, a cache fill, a checkpoint, a fused
// batch, a records-only group) and ablation benchmarks for the design
// decisions the package comments record. The paper's figures are not here:
// `girbench -fig N` measures them, FIGURES.json holds their rows and
// cmd/girbench's TestFigureClaims their orderings.
package gir

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/girlib/gir/internal/datagen"
	"github.com/girlib/gir/internal/domain"
	engineint "github.com/girlib/gir/internal/engine"
	"github.com/girlib/gir/internal/geom"
	girint "github.com/girlib/gir/internal/gir"
	"github.com/girlib/gir/internal/hull"
	"github.com/girlib/gir/internal/invalidate"
	"github.com/girlib/gir/internal/pager"
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
	"github.com/girlib/gir/internal/volume"
)

const (
	benchN = 20000
	benchK = 20
)

type benchEnv struct {
	tree  *rtree.Tree
	store *pager.MemStore
	q     vec.Vector
}

func setupBench(b *testing.B, kind datagen.Kind, n, d int) *benchEnv {
	b.Helper()
	pts, err := datagen.Generate(kind, n, d, 1)
	if err != nil {
		b.Fatal(err)
	}
	store := pager.NewMemStore()
	tree := rtree.BulkLoad(store, d, pts, nil)
	store.ResetStats()
	return &benchEnv{tree: tree, store: store, q: datagen.Query(d, 7)}
}

// BenchmarkBRS isolates the top-k substrate all experiments share.
func BenchmarkBRS(b *testing.B) {
	env := setupBench(b, datagen.IND, 100000, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topk.BRS(env.tree, score.Linear{}, env.q, benchK)
	}
}

// BenchmarkFill is one cache fill per iteration — probe miss, BRS, FP
// region, its rays, put, eviction — on BenchmarkBRS's tree: 640
// distinct vectors walked in a circle through a 64-entry cache, so no
// vector finds its own entry again (fills/op reports how many did miss).
// It runs three shapes: k = 20 at d = 4, and the two where FP's star
// once dominated a fill, k = 5 at d = 4 (a wide Phase-1 cone, many leaves
// read) and k = 20 at d = 6 (IND at n = 100 000 too).
func BenchmarkFill(b *testing.B) {
	for _, shape := range []struct{ d, k int }{{4, benchK}, {4, 5}, {6, benchK}} {
		b.Run(fmt.Sprintf("d=%d/k=%d", shape.d, shape.k), func(b *testing.B) {
			ds := allocDataset(b, 100000, shape.d)
			e := NewEngine(ds, EngineOptions{Workers: 1, CacheCapacity: 64})
			defer e.Close()
			qs := make([][]float64, 640)
			for i := range qs {
				qs[i] = datagen.Query(shape.d, int64(1000+i))
			}
			for _, q := range qs[:128] { // past capacity: every timed put evicts
				e.TopK(q, shape.k)
			}
			before := e.Stats().Computed
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := e.TopK(qs[(128+i)%len(qs)], shape.k); res.Err != nil {
					b.Fatal(res.Err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(e.Stats().Computed-before)/float64(b.N), "fills/op")
		})
	}
}

// BenchmarkWarmHit is one complete cache hit per iteration, TopKBuf into a
// reused buffer, on a cache of about 300 regions filled from a Zipf-drawn
// pool of jittered vectors (n = 20 000, d = 4): the probe's containment
// scan, the rescore and the copy-out. The hits are the stream's own warm-up
// hits, replayed in order. probes/hit counts the entries the scan looked at
// past the dim and domain checks, cone_tests/hit the ones whose ray box
// held the query, so that their cone was tested.
func BenchmarkWarmHit(b *testing.B) {
	ds := allocDataset(b, 20000, 4)
	e := NewEngine(ds, EngineOptions{Workers: 1, CacheCapacity: 512})
	defer e.Close()
	st := engineint.NewStreamIn(41, 4, 2000, 1.3, 5, 20, 0.004, false)
	var hits []Query
	for e.Cache().Len() < 300 {
		q, k := st.Next()
		res := e.TopK(q, k)
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		if res.CacheHit {
			hits = append(hits, Query{Vector: q, K: k})
		}
	}
	dst := make([]Record, 20)
	hit := func(i int) {
		q := hits[i%len(hits)]
		if res := e.TopKBuf(dst, q.Vector, q.K); !res.CacheHit {
			b.Fatalf("query %v at k = %d missed a warm cache", q.Vector, q.K)
		}
	}
	for i := range hits { // every hit is a hit again, and the view has settled
		hit(i)
	}
	before := e.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit(i)
	}
	b.StopTimer()
	after := e.Stats()
	b.ReportMetric(float64(after.CacheProbes-before.CacheProbes)/float64(b.N), "probes/hit")
	b.ReportMetric(float64(after.CacheConeTests-before.CacheConeTests)/float64(b.N), "cone_tests/hit")
}

// BenchmarkInsertAffectsKeep is one uniform insert classified against
// every entry of a 32-entry cache per iteration — the drain pass's inner
// loop, the entry's test on its rays, where all but a fraction of a
// percent of the verdicts are "keep" (affected/op reports the rest).
func BenchmarkInsertAffectsKeep(b *testing.B) {
	_, entries := warmCache(b, 32, benchK)
	r := rand.New(rand.NewSource(3))
	pts := make([]vec.Vector, 1024)
	for i := range pts {
		pts[i] = vec.Vector{r.Float64(), r.Float64(), r.Float64(), r.Float64()}
	}
	affected := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range entries {
			if invalidate.InsertAffectsRays(e.Box(), e.Rays, e.Records, math.MaxInt64, pts[i%len(pts)]) {
				affected++
			}
		}
	}
	b.ReportMetric(float64(affected)/float64(b.N), "affected/op")
}

// BenchmarkCheckpoint is one Engine.Checkpoint per iteration on
// BenchmarkBRS's tree with its log on and a warm cache of 300 entries; 24 balanced writes (off the clock, reconciled) separate two
// checkpoints (12 on the first). KB/op is what the checkpoint wrote, from the files' sizes:
// the cache snapshot, plus the dataset file's growth — or the whole file when
// the checkpoint rewrote it.
func BenchmarkCheckpoint(b *testing.B) {
	ds, e, dir := warmDurable(b)
	defer ds.Close()
	defer e.Close()
	size := func(name string) (int64, os.FileInfo) {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			return 0, nil
		}
		return fi.Size(), fi
	}
	r := rand.New(rand.NewSource(5))
	snapSize, snap := size("dataset.snap")
	var written int64
	var live [][]float64 // the last iteration's inserts, ids nextID-12..nextID-1
	nextID := int64(1 << 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j, p := range live { // 12 deletes + 12 inserts: the tree's size holds
			if ok, err := ds.Delete(nextID-12+int64(j), p); err != nil || !ok {
				b.Fatal(ok, err)
			}
		}
		live = live[:0]
		for j := 0; j < 12; j++ {
			live = append(live, []float64{r.Float64(), r.Float64(), r.Float64(), r.Float64()})
			if err := ds.Insert(nextID+int64(j), live[j]); err != nil {
				b.Fatal(err)
			}
		}
		nextID += 12
		b.StartTimer()
		if err := e.Checkpoint(dir); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		cache, _ := size("cache.snap")
		nowSize, now := size("dataset.snap")
		if os.SameFile(snap, now) {
			written += cache + nowSize - snapSize
		} else {
			written += cache + nowSize
		}
		snapSize, snap = nowSize, now
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(written)/1024/float64(b.N), "KB/op")
}

// warmDurableOpts is the engine warmDurable builds and
// BenchmarkRecoverEngine recovers.
var warmDurableOpts = EngineOptions{Workers: 1, CacheCapacity: 300}

// warmDurable is the checkpoint benchmarks' fixture: BenchmarkBRS's tree
// with its log on in a fresh directory, and a warm engine filled from 300
// distinct vectors.
func warmDurable(b *testing.B) (*Dataset, *Engine, string) {
	ds := allocDataset(b, 100000, 4)
	dir := b.TempDir()
	if err := ds.EnableWAL(dir, WALOptions{SyncEvery: 8}); err != nil {
		b.Fatal(err)
	}
	e := NewEngine(ds, warmDurableOpts)
	for i := 0; i < 300; i++ {
		e.TopK(datagen.Query(4, int64(1000+i)), benchK)
	}
	return ds, e, dir
}

// BenchmarkRecoverEngine is one RecoverEngine per iteration from the
// directory one checkpoint of warmDurable's engine leaves, no log tail:
// the dataset file's load and the warm cache's decode, which reads no
// page.
func BenchmarkRecoverEngine(b *testing.B) {
	ds, e, dir := warmDurable(b)
	if err := e.Checkpoint(dir); err != nil {
		b.Fatal(err)
	}
	entries := e.Cache().Len()
	e.Close()
	if err := ds.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rds, re, err := RecoverEngine(dir, WALOptions{}, warmDurableOpts)
		if err != nil {
			b.Fatal(err)
		}
		if n := re.Cache().Len(); n != entries {
			b.Fatalf("recovered %d entries, checkpointed %d", n, entries)
		}
		re.Close()
		if err := rds.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchBRS measures the fused multi-query traversal against a
// serving-shaped batch (jittered repeats of a few centers, the workload
// girbench -serve -table fuse runs at scale). One iteration answers the
// whole batch; pages/query counts the store reads fusion actually paid.
func BenchmarkBatchBRS(b *testing.B) {
	env := setupBench(b, datagen.IND, 100000, 4)
	const centers, per = 8, 8
	qs := make([]vec.Vector, 0, centers*per)
	ks := make([]int, 0, centers*per)
	for c := 0; c < centers; c++ {
		center := datagen.Query(4, int64(100+c))
		for i := 0; i < per; i++ {
			q := center.Clone()
			q[i%4] += 0.001 * float64(i+1)
			qs = append(qs, q)
			ks = append(ks, benchK)
		}
	}
	env.store.ResetStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topk.BatchBRS(env.tree, score.Linear{}, qs, ks, 8)
	}
	b.StopTimer()
	reads := float64(env.store.Stats().Reads)
	b.ReportMetric(reads/float64(b.N*len(qs)), "pages/query")
}

// BenchmarkRecordsGroup is the records-only traversal an uncached miss
// runs (topk.RecordsGroup): one group of 8 jittered queries per
// iteration, at n = 20 000, d = 4, k = 20. BenchmarkBatchBRS times the
// retaining tail of the same traversal.
func BenchmarkRecordsGroup(b *testing.B) {
	env := setupBench(b, datagen.IND, benchN, 4)
	const size = 8
	qs := make([]vec.Vector, size)
	ks := make([]int, size)
	for i := range qs {
		qs[i] = env.q.Clone()
		qs[i][i%4] += 0.001 * float64(i+1)
		ks[i] = benchK
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gs := topk.AcquireGroupScratch(env.tree)
		topk.RecordsGroup(gs, env.tree, score.Linear{}, qs, ks)
		gs.Release()
	}
	b.StopTimer()
	reads := float64(env.store.Stats().Reads)
	b.ReportMetric(reads/float64(b.N*size), "pages/query")
}

// --- Ablations for the design decisions the package comments record ------

// BenchmarkAblationReduce isolates the redundancy elimination (geom.ReduceCone):
// GIR computation with and without the reduction step.
func BenchmarkAblationReduce(b *testing.B) {
	for _, skip := range []bool{false, true} {
		name := "with-reduce"
		if skip {
			name = "skip-reduce"
		}
		b.Run(name, func(b *testing.B) {
			env := setupBench(b, datagen.IND, benchN, 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := topk.BRS(env.tree, score.Linear{}, env.q, benchK)
				if _, _, err := girint.Compute(env.tree, res, girint.Options{Method: girint.SP, SkipReduce: skip}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationStarVsFullHull quantifies FP's core idea: cutting the
// Phase-1 cone on the orthant, pinned to p_k, into the region by every
// record of D\R (geom.Cone.Cut keeps only the records that cut it), versus
// building the full hull of {p_k} ∪ D\R.
func BenchmarkAblationStarVsFullHull(b *testing.B) {
	env := setupBench(b, datagen.IND, 5000, 4)
	res := topk.BRS(env.tree, score.Linear{}, env.q, benchK)
	inResult := map[int64]bool{}
	for _, r := range res.Records {
		inResult[r.ID] = true
	}
	var pts []vec.Vector
	var walk func(id pager.PageID)
	walk = func(id pager.PageID) {
		n := env.tree.ReadNode(id)
		for _, e := range n.Entries {
			if n.Leaf {
				if !inResult[e.RecID] {
					pts = append(pts, e.Point())
				}
			} else {
				walk(e.Child)
			}
		}
	}
	walk(env.tree.Root())
	apex := vec.Vector(res.Kth().Point)

	b.Run("cone", func(b *testing.B) {
		var phase1, cuts []vec.Vector
		for i := 0; i+1 < len(res.Records); i++ {
			phase1 = append(phase1, vec.Sub(res.Records[i].Point, res.Records[i+1].Point))
		}
		for _, x := range pts {
			cuts = append(cuts, vec.Sub(apex, x))
		}
		var c geom.Cone
		for i := 0; i < b.N; i++ {
			c.Reset(len(apex), phase1, apex)
			for _, row := range cuts {
				c.Cut(row)
			}
		}
	})
	b.Run("full-hull", func(b *testing.B) {
		all := append([]vec.Vector{apex}, pts...)
		for i := 0; i < b.N; i++ {
			if _, err := hull.Build(all); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationVolume compares the exact ratio (vertex enumeration and
// facet recursion) against naive uniform sampling at a thousand samples
// per half-space, which resolves only ratios above about 1e-3.
func BenchmarkAblationVolume(b *testing.B) {
	env := setupBench(b, datagen.IND, benchN, 4)
	res := topk.BRS(env.tree, score.Linear{}, env.q, benchK)
	reg, _, err := girint.Compute(env.tree, res, girint.Options{Method: girint.FP})
	if err != nil {
		b.Fatal(err)
	}
	hs := reg.Halfspaces()
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := volume.RatioIn(domain.UnitBox(4), hs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			volume.DomainRatio(domain.UnitBox(4), hs, 1000*len(hs), int64(i+1))
		}
	})
}

// BenchmarkAblationBulkVsInsert compares STR bulk loading with one-at-a-
// time R* insertion for index construction.
func BenchmarkAblationBulkVsInsert(b *testing.B) {
	pts, _ := datagen.Generate(datagen.IND, 5000, 4, 1)
	b.Run("str-bulkload", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rtree.BulkLoad(pager.NewMemStore(), 4, pts, nil)
		}
	})
	b.Run("rstar-insert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t := rtree.New(pager.NewMemStore(), 4)
			for j, p := range pts {
				t.Insert(int64(j), p)
			}
		}
	})
}
