package gir

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	cacheint "github.com/girlib/gir/internal/cache"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

// TestWarmCacheRoundTrip pins the warm-cache persistence contract: a
// restarted engine that loads a saved cache serves its first lookups as
// warm hits, with entries byte-equal to the saved ones (regions, records,
// candidate sets, bounds, stamps) — including the retained repair state,
// proven by a post-restart delete being repaired in place.
func TestWarmCacheRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(88))
	const n, d, k = 2000, 3, 8
	points := make([][]float64, n)
	for i := range points {
		points[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
	}
	ds1, err := NewDataset(points)
	if err != nil {
		t.Fatal(err)
	}
	e1 := NewEngine(ds1, EngineOptions{RepairMode: true})

	pool := make([][]float64, 16)
	for i := range pool {
		pool[i] = []float64{0.15 + 0.7*r.Float64(), 0.15 + 0.7*r.Float64(), 0.15 + 0.7*r.Float64()}
	}
	saved := make([][]Record, len(pool))
	for i, q := range pool {
		res := e1.TopK(q, k)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		saved[i] = res.Records
	}

	path := filepath.Join(t.TempDir(), "warm.gircache")
	if err := e1.SaveCache(path); err != nil {
		t.Fatal(err)
	}
	before := cacheFingerprints(e1.Cache())
	if len(before) == 0 {
		t.Fatal("nothing cached — round trip is vacuous")
	}
	e1.Close()

	// "Restart": a fresh dataset over the same points (the production shape
	// is Dataset.Save + Open alongside SaveCache/LoadCache) and a fresh
	// engine that loads the warm cache before serving.
	ds2, err := NewDataset(points)
	if err != nil {
		t.Fatal(err)
	}
	e2 := NewEngine(ds2, EngineOptions{RepairMode: true})
	defer e2.Close()
	if err := e2.LoadCache(path); err != nil {
		t.Fatal(err)
	}
	after := cacheFingerprints(e2.Cache())
	if len(after) != len(before) {
		t.Fatalf("loaded %d entries, saved %d", len(after), len(before))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("entry state changed across the round trip:\nsaved:\n%s\nloaded:\n%s", before[i], after[i])
		}
	}

	// First lookups on the restarted engine are warm hits, byte-equal to
	// the pre-restart answers.
	for i, q := range pool {
		res := e2.TopK(q, k)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if !res.CacheHit {
			t.Fatalf("query %d missed on the restarted engine", i)
		}
		for j := range res.Records {
			if res.Records[j].ID != saved[i][j].ID || res.Records[j].Score != saved[i][j].Score {
				t.Fatalf("query %d rank %d differs after restart: %+v vs %+v", i, j, res.Records[j], saved[i][j])
			}
		}
	}
	st := e2.Stats()
	if st.Misses != 0 || st.Computed != 0 {
		t.Fatalf("restarted engine recomputed: %d misses, %d computations — cache did not restore warm", st.Misses, st.Computed)
	}
	if st.CacheHits != int64(len(pool)) {
		t.Fatalf("restarted engine served %d hits, want %d", st.CacheHits, len(pool))
	}

	// The retained repair state survived: deleting a cached result record
	// must be repairable in place (candidate promotion), not just evicted,
	// and the repaired entry must serve the true post-delete result.
	victim := saved[0][k-1]
	if ok, err := ds2.Delete(victim.ID, victim.Attrs); err != nil || !ok {
		t.Fatalf("victim record missing from the restarted dataset: %v, %v", ok, err)
	}
	e2.Quiesce()
	if got := e2.Stats().Repaired; got < 1 {
		t.Fatalf("post-restart delete was not repaired (repaired=%d) — retained repair state was lost", got)
	}
	res := e2.TopK(pool[0], k)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	fresh, err := ds2.TopK(pool[0], k)
	if err != nil {
		t.Fatal(err)
	}
	for j := range fresh.Records {
		if res.Records[j].ID != fresh.Records[j].ID || res.Records[j].Score != fresh.Records[j].Score {
			t.Fatalf("post-restart repair serves %v at rank %d, fresh top-k has %v",
				res.Records[j], j, fresh.Records[j])
		}
	}
}

// TestSaveCacheDuringWrites pins that SaveCache is safe to call while
// mutations keep arriving: the snapshot is taken in a quiesced critical
// section (no drain pass in flight, publishing blocked), so the encoder
// never races the drainer's candidate-set absorbs. Run under -race this
// is the regression test for exactly that race; the saved file must also
// always load cleanly.
func TestSaveCacheDuringWrites(t *testing.T) {
	r := rand.New(rand.NewSource(90))
	const n, d, k = 800, 3, 6
	points := make([][]float64, n)
	for i := range points {
		points[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
	}
	ds, err := NewDataset(points)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(ds, EngineOptions{RepairMode: true})
	defer e.Close()
	for i := 0; i < 12; i++ {
		q := []float64{0.15 + 0.7*r.Float64(), 0.15 + 0.7*r.Float64(), 0.15 + 0.7*r.Float64()}
		if res := e.TopK(q, k); res.Err != nil {
			t.Fatal(res.Err)
		}
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		wr := rand.New(rand.NewSource(91))
		id := int64(1 << 41)
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Background inserts: mostly unaffecting, so the drainer's absorb
			// path — the one that mutates entry candidate sets in place — runs
			// continuously while snapshots are taken.
			p := []float64{wr.Float64(), wr.Float64(), wr.Float64()}
			if err := ds.Insert(id, p); err != nil {
				t.Error(err)
				return
			}
			id++
		}
	}()

	dir := t.TempDir()
	for i := 0; i < 8; i++ {
		path := filepath.Join(dir, "warm.gircache")
		if err := e.SaveCache(path); err != nil {
			t.Fatal(err)
		}
		ds2, err := NewDataset(points)
		if err != nil {
			t.Fatal(err)
		}
		e2 := NewEngine(ds2, EngineOptions{})
		if err := e2.LoadCache(path); err != nil {
			t.Fatalf("snapshot %d did not load: %v", i, err)
		}
		e2.Close()
	}
	close(stop)
	<-done
}

// TestLoadCacheRejectsGarbage pins the failure modes: wrong magic, wrong
// dimension, truncation.
func TestLoadCacheRejectsGarbage(t *testing.T) {
	r := rand.New(rand.NewSource(89))
	points := make([][]float64, 200)
	for i := range points {
		points[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
	}
	ds, err := NewDataset(points)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(ds, EngineOptions{})
	defer e.Close()
	if res := e.TopK([]float64{0.5, 0.6, 0.7}, 5); res.Err != nil {
		t.Fatal(res.Err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "warm.gircache")
	if err := e.SaveCache(path); err != nil {
		t.Fatal(err)
	}

	if err := e.LoadCache(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file accepted")
	}

	// A 2-d dataset must reject the 3-d snapshot.
	pts2 := make([][]float64, 100)
	for i := range pts2 {
		pts2[i] = []float64{r.Float64(), r.Float64()}
	}
	ds2, err := NewDataset(pts2)
	if err != nil {
		t.Fatal(err)
	}
	e2 := NewEngine(ds2, EngineOptions{})
	defer e2.Close()
	if err := e2.LoadCache(path); err == nil {
		t.Error("dimension mismatch accepted")
	}

	// Truncated snapshot must error, not panic or half-load silently.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.gircache")
	if err := os.WriteFile(trunc, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadCache(trunc); err == nil {
		t.Error("truncated snapshot accepted")
	}

	// Any flipped bit fails the whole-file checksum, even where the
	// structural guards below could not see it.
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-3] ^= 0x10
	flipPath := filepath.Join(dir, "flip.gircache")
	if err := os.WriteFile(flipPath, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadCache(flipPath); err == nil {
		t.Error("bit-flipped snapshot accepted")
	} else if !strings.Contains(err.Error(), "checksum") {
		t.Errorf("corruption should fail the checksum, got: %v", err)
	}

	// The decoder's own guards stay live behind the checksum (a bug in the
	// writer would produce a valid CRC over bad structure): corrupt the
	// bytes, then recompute the CRC so the decoder actually sees them.
	// A corrupt vector-length prefix must fail the load, not restore an
	// entry whose first lookup panics on a mismatched dot product. The
	// first entry's query-vector length lives right after the 29-byte
	// header (magic 8 + crc 4 + dim 4 + space 1 + version 8 + count 4).
	corrupt := append([]byte(nil), data...)
	corrupt[29] = 200
	refreshCacheCRC(corrupt)
	bad := filepath.Join(dir, "bad.gircache")
	if err := os.WriteFile(bad, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadCache(bad); err == nil {
		t.Error("snapshot with corrupted vector dimension accepted")
	}

	// An unknown query-space byte must be rejected up front.
	badSpace := append([]byte(nil), data...)
	badSpace[16] = 9 // the space byte follows magic (8) + crc (4) + dim (4)
	refreshCacheCRC(badSpace)
	badPath := filepath.Join(dir, "badspace.gircache")
	if err := os.WriteFile(badPath, badSpace, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadCache(badPath); err == nil {
		t.Error("snapshot with unknown query space accepted")
	}

	// A file headed GIRWARM2 — a format no build since the checksummed one
	// writes — is outside input like any other unknown magic.
	old := append([]byte(nil), data...)
	old[7] = '2'
	oldPath := filepath.Join(dir, "v2.gircache")
	if err := os.WriteFile(oldPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadCache(oldPath); err == nil {
		t.Error("a GIRWARM2-headed file accepted")
	} else if !strings.Contains(err.Error(), "not a warm-cache snapshot") {
		t.Errorf("a GIRWARM2-headed file should be refused by its magic, got: %v", err)
	}

	// GIRWARM3 — the format that still carried the repair state — is refused
	// by its magic too, and the error names it.
	old[7] = '3'
	if err := os.WriteFile(oldPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadCache(oldPath); err == nil {
		t.Error("a GIRWARM3-headed file accepted")
	} else if !strings.Contains(err.Error(), "GIRWARM3") {
		t.Errorf("a GIRWARM3-headed file should be refused by name, got: %v", err)
	}
}

// refreshCacheCRC recomputes a warm-cache snapshot's whole-file checksum
// in place, so tests can corrupt the payload and still reach the decoder.
func refreshCacheCRC(data []byte) {
	binary.LittleEndian.PutUint32(data[8:], crc32.Checksum(data[12:], cacheCRC))
}

// TestSaveCacheAfterCloseWithPending pins the snapshotCacheQuiesced
// contract: an engine Closed while mutations were still queued has lost
// its drainer — the cache can never be reconciled — so SaveCache must
// refuse with an error naming the backlog instead of persisting stale
// entries. The state is staged directly (closed flag + queued mutations)
// because losing that race to a real Close is timing-dependent.
func TestSaveCacheAfterCloseWithPending(t *testing.T) {
	r := rand.New(rand.NewSource(93))
	points := make([][]float64, 300)
	for i := range points {
		points[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
	}
	ds, err := NewDataset(points)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(ds, EngineOptions{})
	if res := e.TopK([]float64{0.4, 0.5, 0.6}, 4); res.Err != nil {
		t.Fatal(res.Err)
	}
	e.Close()
	e.invMu.Lock()
	e.pending = append(e.pending, CacheMutation{Version: ds.Version() + 1, Insert: true, ID: 999, Point: []float64{0.1, 0.2, 0.3}})
	e.invMu.Unlock()

	path := filepath.Join(t.TempDir(), "stale.gircache")
	err = e.SaveCache(path)
	if err == nil {
		t.Fatal("SaveCache persisted a cache with unreconciled mutations")
	}
	if !strings.Contains(err.Error(), "1 mutation") {
		t.Errorf("error should name the unreconciled backlog, got: %v", err)
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Error("a stale cache snapshot was written despite the error")
	}
}

// TestWarmCacheRefusesCrossDomainLoad pins the query-space compatibility
// rule: a warm cache saved by a simplex-space engine must refuse to load
// into a box-space engine over the same data (and vice versa) — a region
// clipped to one domain is not a validity certificate over the other.
// The matching-space round trip must keep working, including the region's
// domain itself (a restored simplex entry must reject non-normalized
// lookups exactly like the original).
func TestWarmCacheRefusesCrossDomainLoad(t *testing.T) {
	r := rand.New(rand.NewSource(92))
	const n, k = 1000, 5
	points := make([][]float64, n)
	for i := range points {
		points[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
	}
	ds, err := NewDatasetInSpace(points, SpaceSimplex)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(ds, EngineOptions{})
	q := SpaceSimplex.Normalize([]float64{0.5, 0.6, 0.7})
	if res := e.TopK(q, k); res.Err != nil {
		t.Fatal(res.Err)
	}
	path := filepath.Join(t.TempDir(), "simplex.gircache")
	if err := e.SaveCache(path); err != nil {
		t.Fatal(err)
	}
	e.Close()

	boxDS, err := NewDataset(points)
	if err != nil {
		t.Fatal(err)
	}
	boxEngine := NewEngine(boxDS, EngineOptions{})
	defer boxEngine.Close()
	if err := boxEngine.LoadCache(path); err == nil {
		t.Fatal("box-space engine accepted a simplex-space warm cache")
	}

	simplexDS, err := NewDatasetInSpace(points, SpaceSimplex)
	if err != nil {
		t.Fatal(err)
	}
	simplexEngine := NewEngine(simplexDS, EngineOptions{})
	defer simplexEngine.Close()
	if err := simplexEngine.LoadCache(path); err != nil {
		t.Fatalf("matching-space load failed: %v", err)
	}
	res := simplexEngine.TopK(q, k)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.CacheHit {
		t.Error("restored simplex entry did not serve a warm hit")
	}
	// The restored region carries the simplex domain: the unnormalized
	// image of the same preference vector is not a member (the engine
	// would reject it at validation anyway; this pins the region itself).
	if hit, ok := simplexEngine.Cache().Lookup([]float64{0.5, 0.6, 0.7}, k); ok {
		t.Errorf("restored simplex region accepted a non-normalized vector: %+v", hit)
	}
}

// refCacheEncoder is the per-field warm-cache encoder the streamed one
// replaced — every field through its own little write into one payload
// buffer, checksummed whole — kept here as the reference the GIRWARM4 bytes
// are compared against: per entry query, order flag, constraints, records,
// inscribed box and stamp, and no repair state.
type refCacheEncoder struct{ buf bytes.Buffer }

func (e *refCacheEncoder) u32(v uint32) { binary.Write(&e.buf, binary.LittleEndian, v) }
func (e *refCacheEncoder) i64(v int64)  { binary.Write(&e.buf, binary.LittleEndian, v) }
func (e *refCacheEncoder) f64(v float64) {
	e.i64(int64(math.Float64bits(v)))
}

func (e *refCacheEncoder) vec(v []float64) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.f64(x)
	}
}

func (e *refCacheEncoder) rec(r topk.Record) {
	e.i64(r.ID)
	e.vec(r.Point)
	e.f64(r.Score)
}

func (e *refCacheEncoder) bool(v bool) {
	if v {
		e.buf.WriteByte(1)
	} else {
		e.buf.WriteByte(0)
	}
}

func (e *refCacheEncoder) entry(s cacheint.Snapshot) {
	e.vec(s.Region.Query)
	e.bool(s.Region.OrderSensitive)
	e.u32(uint32(len(s.Region.Constraints)))
	for _, c := range s.Region.Constraints {
		e.vec(c.Normal)
		e.buf.WriteByte(byte(c.Kind))
		e.i64(c.A)
		e.i64(c.B)
	}
	e.u32(uint32(len(s.Records)))
	for _, r := range s.Records {
		e.rec(r)
	}
	e.vec(s.InnerLo)
	e.vec(s.InnerHi)
	e.i64(s.Version)
}

// TestWarmCacheBytesMatchReference pins the file format across the encoder
// rewrite: for a cache with regions, records and stamps moved by real
// mutations (repairs included), the streamed writer's file — several chunks
// long — is byte-identical to the reference encoder's.
func TestWarmCacheBytesMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(93))
	const n, d, k = 3000, 4, 10
	points := make([][]float64, n)
	for i := range points {
		points[i] = []float64{r.Float64(), r.Float64(), r.Float64(), r.Float64()}
	}
	ds, err := NewDatasetInSpace(points, SpaceSimplex)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(ds, EngineOptions{RepairMode: true})
	defer e.Close()
	for i := 0; i < 128; i++ { // enough entries to span several chunks without their repair state
		q := SpaceSimplex.Normalize([]float64{0.1 + r.Float64(), 0.1 + r.Float64(), 0.1 + r.Float64(), 0.1 + r.Float64()})
		if res := e.TopK(q, k); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	for _, m := range genChurn(r, points, 40, d) {
		applyMut(t, ds, m)
	}
	snaps, version, err := e.snapshotCacheQuiesced()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 16 {
		t.Fatalf("only %d entries survived the churn — fixture too thin", len(snaps))
	}

	var ref refCacheEncoder
	ref.u32(d)
	ref.buf.WriteByte(byte(SpaceSimplex))
	ref.i64(version)
	ref.u32(uint32(len(snaps)))
	for _, s := range snaps {
		ref.entry(s)
	}
	want := append([]byte(nil), warmCacheMagic[:]...)
	want = binary.LittleEndian.AppendUint32(want, crc32.Checksum(ref.buf.Bytes(), cacheCRC))
	want = append(want, ref.buf.Bytes()...)

	path := filepath.Join(t.TempDir(), "warm.gircache")
	if err := writeCacheSnapshot(path, d, SpaceSimplex, version, snaps); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < 3*(32<<10) {
		t.Fatalf("file is %d bytes — the fixture must span several encoder chunks", len(got))
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("streamed warm-cache file (%d bytes) differs from the reference encoding (%d bytes)", len(got), len(want))
	}
	if err := e.LoadCache(path); err != nil {
		t.Fatalf("the engine cannot load what it wrote: %v", err)
	}
}

// TestRecoverEngineRebuildsRepairState pins what GIRWARM4 leaves to the
// loader: the repair state a checkpoint no longer writes is rebuilt whole.
// After churn (absorbed inserts and deletes, in-place repairs), a checkpoint
// and a logged tail, every entry RecoverEngine restores covers the recovered
// dataset with Records ∪ Cand ∪ Bounds, its Cand holds no result id, and
// deleting cached k-th records repairs in place and serves brute force's
// answers. The tie subtest restores an entry whose k-th record is the twin
// of a duplicate point the rebuilding traversal does not report.
func TestRecoverEngineRebuildsRepairState(t *testing.T) {
	for _, space := range []Space{SpaceBox, SpaceSimplex} {
		t.Run(space.String(), func(t *testing.T) { testRecoverRebuild(t, space) })
	}
	t.Run("tie", testRecoverRebuildTie)
}

// repairFixture is a durable dataset under churn with its shadow contents.
type repairFixture struct {
	t      *testing.T
	r      *rand.Rand
	mirror map[int64][]float64
	live   []int64
	nextID int64
}

func newRepairFixture(t *testing.T, seed int64, points [][]float64) *repairFixture {
	f := &repairFixture{t: t, r: rand.New(rand.NewSource(seed)), mirror: make(map[int64][]float64), nextID: 1 << 20}
	for i, p := range points {
		f.mirror[int64(i)] = p
		f.live = append(f.live, int64(i))
	}
	return f
}

func (f *repairFixture) del(ds *Dataset, id int64) {
	applyMut(f.t, ds, churnMut{id: id, point: f.mirror[id]})
	delete(f.mirror, id)
	f.live = slices.DeleteFunc(f.live, func(x int64) bool { return x == id })
}

// churn applies steps random writes, about half inserts of fresh records and
// half deletes of live ones.
func (f *repairFixture) churn(ds *Dataset, steps int) {
	for ; steps > 0; steps-- {
		if f.r.Float64() < 0.5 {
			p := []float64{f.r.Float64(), f.r.Float64(), f.r.Float64()}
			applyMut(f.t, ds, churnMut{insert: true, id: f.nextID, point: p})
			f.mirror[f.nextID] = p
			f.live = append(f.live, f.nextID)
			f.nextID++
			continue
		}
		f.del(ds, f.live[f.r.Intn(len(f.live))])
	}
}

// deleteKth deletes the k-th record of up to n cached entries (a record
// shared by two entries is deleted once) and reports how many repairs the
// engine credited for them.
func (f *repairFixture) deleteKth(e *Engine, ds *Dataset, n int) int64 {
	e.Quiesce()
	before := e.Stats().Repaired
	for _, ent := range e.cache.inner.Entries()[:min(n, e.cache.Len())] {
		if id := ent.Records[ent.K-1].ID; f.mirror[id] != nil {
			f.del(ds, id)
		}
	}
	e.Quiesce()
	return e.Stats().Repaired - before
}

// checkCoverage asserts the repair-state invariant on every cached entry:
// complete, no result id among the candidates, and every other record of
// the dataset a candidate or componentwise under a bound corner.
func (f *repairFixture) checkCoverage(e *Engine) {
	entries := e.cache.inner.Entries()
	if len(entries) == 0 {
		f.t.Fatal("nothing restored — the coverage check is vacuous")
	}
	for _, ent := range entries {
		if !ent.CandComplete() {
			f.t.Fatalf("entry at %v restored without repair state", ent.Region.Query)
		}
		covered := make(map[int64]bool, len(ent.Records)+len(ent.Cand))
		for _, r := range ent.Records {
			covered[r.ID] = true
		}
		for _, c := range ent.Cand {
			if slices.ContainsFunc(ent.Records, func(r topk.Record) bool { return r.ID == c.ID }) {
				f.t.Fatalf("entry at %v holds result record %d as a candidate", ent.Region.Query, c.ID)
			}
			covered[c.ID] = true
		}
		for id, p := range f.mirror {
			under := func(hi vec.Vector) bool {
				for j := range p {
					if p[j] > hi[j] {
						return false
					}
				}
				return true
			}
			if !covered[id] && !slices.ContainsFunc(ent.Bounds, under) {
				f.t.Fatalf("entry at %v: record %d %v is no result, no candidate and under no bound corner", ent.Region.Query, id, p)
			}
		}
	}
}

// checkAnswers asserts every pool query's served ids equal brute force's.
func (f *repairFixture) checkAnswers(e *Engine, pool [][]float64, k int) {
	for i, q := range pool {
		res := e.TopK(q, k)
		if res.Err != nil {
			f.t.Fatal(res.Err)
		}
		want := bruteTopK(f.mirror, q, k)
		for j, r := range res.Records {
			if r.ID != want[j] {
				f.t.Fatalf("query %d rank %d serves %d, brute force %d", i, j, r.ID, want[j])
			}
		}
	}
}

func testRecoverRebuild(t *testing.T, space Space) {
	const n, k = 1500, 6
	r := rand.New(rand.NewSource(171))
	points := make([][]float64, n)
	for i := range points {
		points[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
	}
	pool := make([][]float64, 24)
	for i := range pool {
		pool[i] = space.Normalize([]float64{0.2 + 0.6*r.Float64(), 0.2 + 0.6*r.Float64(), 0.2 + 0.6*r.Float64()})
	}
	f := newRepairFixture(t, 172, points)
	dir := t.TempDir()
	ds, err := NewDatasetInSpace(points, space)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.EnableWAL(dir, WALOptions{SyncEvery: 16}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(ds, EngineOptions{RepairMode: true})
	f.checkAnswers(e, pool, k)
	f.churn(ds, 150)
	if f.deleteKth(e, ds, 4) == 0 {
		t.Fatal("no in-place repair before the checkpoint — the saved entries are all fresh fills")
	}
	f.checkAnswers(e, pool, k) // refills what the churn evicted
	if err := e.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	f.churn(ds, 100) // the logged tail RecoverEngine replays through the restored cache
	e.Quiesce()
	e.Close()
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	ds2, e2, err := RecoverEngine(dir, WALOptions{}, EngineOptions{RepairMode: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	defer e2.Close()
	if e2.Stats().Computed != 0 {
		t.Fatal("recovery computed fills")
	}
	f.checkCoverage(e2)
	if f.deleteKth(e2, ds2, 8) == 0 {
		t.Fatal("no delete of a restored entry's k-th record was repaired in place")
	}
	f.checkCoverage(e2)
	f.checkAnswers(e2, pool, k)
}

func testRecoverRebuildTie(t *testing.T) {
	const n, k = 400, 5
	r := rand.New(rand.NewSource(173))
	points := make([][]float64, n)
	for i := range points {
		points[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
	}
	q := []float64{0.5, 0.3, 0.6}
	f := newRepairFixture(t, 174, points)
	kth := bruteTopK(f.mirror, q, k)[k-1]
	points = append(points, slices.Clone(points[kth])) // id n: the k-th record's twin
	f.mirror[n] = points[n]
	dir := t.TempDir()
	ds, err := NewDataset(points)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.EnableWAL(dir, WALOptions{}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(ds, EngineOptions{RepairMode: true})
	if res := e.TopK(q, k); res.Err != nil {
		t.Fatal(res.Err)
	}
	if err := e.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	// Rewrite the checkpoint's cache with the entry holding the twin the
	// traversal did not report — what a repair that promoted it leaves.
	snaps, version, err := e.snapshotCacheQuiesced()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("the tie fill cached %d entries, want 1", len(snaps))
	}
	recs := slices.Clone(snaps[0].Records)
	reported, other := recs[k-1].ID, kth
	if reported == kth {
		other = n
	} else if reported != n {
		t.Fatalf("fixture: the fill's k-th record is %d, neither twin (%d, %d)", reported, kth, n)
	}
	recs[k-1].ID = other
	snaps[0].Records = recs
	if err := writeCacheSnapshot(filepath.Join(dir, cacheSnapName), ds.Dim(), SpaceBox, version, snaps); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	ds2, e2, err := RecoverEngine(dir, WALOptions{}, EngineOptions{RepairMode: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	defer e2.Close()
	f.checkCoverage(e2)
	ent := e2.cache.inner.Entries()[0]
	if !slices.ContainsFunc(ent.Cand, func(c topk.Record) bool { return c.ID == reported }) {
		t.Fatalf("the twin the traversal reports (%d) is not a candidate of the entry holding %d", reported, recs[k-1].ID)
	}
	if f.deleteKth(e2, ds2, 1) == 0 {
		t.Fatal("deleting the entry's twin was not repaired in place")
	}
	f.checkAnswers(e2, [][]float64{q}, k)
}

// TestRecoverEngineColdBesideEarlierCacheFormat pins the upgrade path: a
// durable directory whose cache.snap is GIRWARM3 — written by the build
// before the format dropped the repair state — recovers cold (no entries,
// correct answers) like a torn pair, instead of failing: its dataset files
// did not change.
func TestRecoverEngineColdBesideEarlierCacheFormat(t *testing.T) {
	r := rand.New(rand.NewSource(175))
	const n, k = 600, 5
	points := make([][]float64, n)
	for i := range points {
		points[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
	}
	q := []float64{0.4, 0.7, 0.2}
	dir := t.TempDir()
	ds, err := NewDataset(points)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.EnableWAL(dir, WALOptions{}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(ds, EngineOptions{RepairMode: true})
	if res := e.TopK(q, k); res.Err != nil {
		t.Fatal(res.Err)
	}
	if err := e.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	applyMut(t, ds, churnMut{insert: true, id: 1 << 20, point: []float64{0.9, 0.9, 0.9}})
	want := topkFingerprint(t, ds, q, k)
	e.Close()
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, cacheSnapName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[7] = '3'
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	ds2, e2, err := RecoverEngine(dir, WALOptions{}, EngineOptions{RepairMode: true})
	if err != nil {
		t.Fatalf("a GIRWARM3 cache beside intact dataset files should cost the warm start, not fail: %v", err)
	}
	defer ds2.Close()
	defer e2.Close()
	if got := e2.Cache().Len(); got != 0 {
		t.Fatalf("restored %d entries from a GIRWARM3 file", got)
	}
	if got := topkFingerprint(t, ds2, q, k); got != want {
		t.Fatalf("recovered dataset answers %s, want %s", got, want)
	}
	res := e2.TopK(q, k)
	if res.Err != nil || res.CacheHit {
		t.Fatalf("cold engine: err %v, hit %v", res.Err, res.CacheHit)
	}
}
