package gir

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	cacheint "github.com/girlib/gir/internal/cache"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

// TestWarmCacheRoundTrip pins the warm-cache persistence contract: an
// engine recovered from the directory Engine.Checkpoint wrote serves its
// first lookups as warm hits, with entries byte-equal to the checkpointed
// ones (regions, records, and the rays the load enumerates again), and the
// restored entries are maintained like fresh fills: a post-restart delete
// of a cached record evicts its entry, and the next query serves the
// post-delete answer.
func TestWarmCacheRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(88))
	const n, d, k = 2000, 3, 8
	points := make([][]float64, n)
	for i := range points {
		points[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
	}
	dir := t.TempDir()
	ds1, err := NewDataset(points)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds1.EnableWAL(dir, WALOptions{}); err != nil {
		t.Fatal(err)
	}
	e1 := NewEngine(ds1, EngineOptions{})

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

	if err := e1.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	before := cacheFingerprints(e1.Cache())
	if len(before) == 0 {
		t.Fatal("nothing cached — round trip is vacuous")
	}
	e1.Close()
	if err := ds1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the engine RecoverEngine returns has loaded the warm cache
	// before serving.
	ds2, e2, err := RecoverEngine(dir, WALOptions{}, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	defer e2.Close()
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

	// A restored entry is maintained like a fresh fill: deleting one of its
	// result records evicts it, and the next query serves the true
	// post-delete result.
	victim := saved[0][k-1]
	if ok, err := ds2.Delete(victim.ID, victim.Attrs); err != nil || !ok {
		t.Fatalf("victim record missing from the restarted dataset: %v, %v", ok, err)
	}
	if got := e2.Stats().Invalidated; got < 1 {
		t.Fatalf("post-restart delete of a cached record evicted nothing (invalidated=%d)", got)
	}
	res := e2.TopK(pool[0], k)
	if res.Err != nil || res.CacheHit {
		t.Fatalf("the query of the evicted entry: err %v, hit %v", res.Err, res.CacheHit)
	}
	fresh, err := ds2.TopK(pool[0], k)
	if err != nil {
		t.Fatal(err)
	}
	for j := range fresh.Records {
		if res.Records[j].ID != fresh.Records[j].ID || res.Records[j].Score != fresh.Records[j].Score {
			t.Fatalf("after the post-restart delete the engine serves %v at rank %d, fresh top-k has %v",
				res.Records[j], j, fresh.Records[j])
		}
	}
}

// cacheSnapCount reads the entry count a warm-cache snapshot's header
// records: after magic (8), checksum (4), dimension (4), query space (1)
// and dataset version (8).
func cacheSnapCount(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return int(binary.LittleEndian.Uint32(data[25:]))
}

// TestCheckpointCacheDuringWrites pins that Engine.Checkpoint is safe to
// call while mutations keep arriving: the cache is snapshotted under the
// dataset's writer lock (no drain pass in flight, publishing blocked), so
// the encoder never races a write's drain. Run under -race this is the
// regression test for exactly that race. Every pair the
// checkpoint writes must also recover warm: the cache file records the
// dataset file's version, so RecoverEngine restores every entry it holds.
func TestCheckpointCacheDuringWrites(t *testing.T) {
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
	e := NewEngine(ds, EngineOptions{})
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
			// Background inserts: mostly unaffecting, so the drain keeps
			// most entries and runs continuously while snapshots are taken.
			p := []float64{wr.Float64(), wr.Float64(), wr.Float64()}
			if err := ds.Insert(id, p); err != nil {
				t.Error(err)
				return
			}
			id++
		}
	}()

	dir := t.TempDir()
	restored := 0
	for i := 0; i < 8; i++ {
		if err := e.Checkpoint(dir); err != nil {
			t.Fatal(err)
		}
		want := cacheSnapCount(t, filepath.Join(dir, cacheSnapName))
		ds2, e2, err := RecoverEngine(dir, WALOptions{}, EngineOptions{})
		if err != nil {
			t.Fatalf("checkpoint %d did not recover: %v", i, err)
		}
		got := e2.Cache().Len()
		e2.Close()
		if err := ds2.Close(); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("checkpoint %d recovered %d of the %d cached entries it wrote", i, got, want)
		}
		restored += got
	}
	close(stop)
	<-done
	if restored == 0 {
		t.Fatal("no checkpoint held a cached entry — the warm check is vacuous")
	}
}

// recoverWithCache recovers a copy of the durable directory base with
// cache as its cache.snap (none when nil), closes what it opened, and
// reports how many entries the engine restored or why it refused.
func recoverWithCache(t *testing.T, base string, cache []byte) (int, error) {
	t.Helper()
	dir := t.TempDir()
	copyFileTo(t, filepath.Join(dir, datasetSnapName), filepath.Join(base, datasetSnapName), -1)
	if cache != nil {
		if err := os.WriteFile(filepath.Join(dir, cacheSnapName), cache, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ds, e, err := RecoverEngine(dir, WALOptions{}, EngineOptions{})
	if err != nil {
		return 0, err
	}
	n := e.Cache().Len()
	e.Close()
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	return n, nil
}

// TestRecoverEngineRejectsCorruptCache pins the warm-cache loader's failure
// modes, end to end through RecoverEngine: a file that is no warm-cache
// snapshot, a truncated or bit-flipped one, one saved at another dimension,
// and one whose structure or query-space byte is bad behind a valid
// checksum are all refused. A missing cache file or one of an earlier
// format costs the warm start and nothing else.
func TestRecoverEngineRejectsCorruptCache(t *testing.T) {
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
	if err := e.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, cacheSnapName))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := recoverWithCache(t, dir, data); err != nil || n != 1 {
		t.Fatalf("the intact pair recovered %d entries (%v), want 1", n, err)
	}
	if n, err := recoverWithCache(t, dir, nil); err != nil || n != 0 {
		t.Errorf("a directory without a cache file recovered %d entries (%v), want a cold start", n, err)
	}
	if _, err := recoverWithCache(t, dir, []byte("not a warm-cache snapshot at all")); err == nil {
		t.Error("garbage cache file accepted")
	} else if !strings.Contains(err.Error(), "not a warm-cache snapshot") {
		t.Errorf("garbage should be refused by its magic, got: %v", err)
	}

	// A 2-d dataset at the same version must reject the 3-d snapshot.
	pts2 := make([][]float64, 100)
	for i := range pts2 {
		pts2[i] = []float64{r.Float64(), r.Float64()}
	}
	ds2, err := NewDataset(pts2)
	if err != nil {
		t.Fatal(err)
	}
	dir2 := t.TempDir()
	if err := ds2.Checkpoint(dir2); err != nil {
		t.Fatal(err)
	}
	if _, err := recoverWithCache(t, dir2, data); err == nil {
		t.Error("dimension mismatch accepted")
	}

	// Truncated snapshot must error, not panic or half-load silently.
	if _, err := recoverWithCache(t, dir, data[:len(data)/2]); err == nil {
		t.Error("truncated snapshot accepted")
	}

	// Any flipped bit fails the whole-file checksum, even where the
	// structural guards below could not see it.
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-3] ^= 0x10
	if _, err := recoverWithCache(t, dir, flipped); err == nil {
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
	if _, err := recoverWithCache(t, dir, corrupt); err == nil {
		t.Error("snapshot with corrupted vector dimension accepted")
	}

	// An unknown query-space byte must be rejected up front.
	badSpace := append([]byte(nil), data...)
	badSpace[16] = 9 // the space byte follows magic (8) + crc (4) + dim (4)
	refreshCacheCRC(badSpace)
	if _, err := recoverWithCache(t, dir, badSpace); err == nil {
		t.Error("snapshot with unknown query space accepted")
	}

	// A file headed GIRWARM2 — a format no build since the checksummed one
	// writes — is an earlier format like GIRWARM3: the warm start is
	// skipped, nothing else.
	old := append([]byte(nil), data...)
	old[7] = '2'
	if n, err := recoverWithCache(t, dir, old); err != nil || n != 0 {
		t.Errorf("a GIRWARM2-headed file recovered %d entries (%v), want a cold start", n, err)
	}
}

// refreshCacheCRC recomputes a warm-cache snapshot's whole-file checksum
// in place, so tests can corrupt the payload and still reach the decoder.
func refreshCacheCRC(data []byte) {
	binary.LittleEndian.PutUint32(data[8:], crc32.Checksum(data[12:], cacheCRC))
}

// TestCheckpointAfterCloseThenWriteRefused: a Closed engine no longer
// follows its dataset, so after Close and a write its cache is behind the
// dataset. Engine.Checkpoint must refuse rather than save entries stamped
// with a version they do not hold, and write neither file of the pair; a
// recovery of the dataset alone then serves the write, cold. A Close with
// no later write still checkpoints, and its cache recovers warm.
func TestCheckpointAfterCloseThenWriteRefused(t *testing.T) {
	r := rand.New(rand.NewSource(93))
	points := make([][]float64, 300)
	for i := range points {
		points[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
	}
	q := []float64{0.4, 0.5, 0.6}
	fresh := func() (*Dataset, *Engine) {
		ds, err := NewDataset(points)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(ds, EngineOptions{})
		if res := e.TopK(q, 4); res.Err != nil {
			t.Fatal(res.Err)
		}
		e.Close()
		return ds, e
	}
	recovered := func(dir string) EngineResult {
		ds, e, err := RecoverEngine(dir, WALOptions{}, EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		defer e.Close()
		return e.TopK(q, 4)
	}

	ds, e := fresh()
	dir := t.TempDir()
	if err := e.Checkpoint(dir); err != nil {
		t.Fatalf("a Close with no later write must still checkpoint: %v", err)
	}
	if res := recovered(dir); !res.CacheHit {
		t.Error("the checkpointed cache did not recover warm")
	}

	ds, e = fresh()
	const top = 999 // outranks every record for q
	if err := ds.Insert(top, []float64{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	err := e.Checkpoint(dir)
	if err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("Checkpoint after Close and a write: got %v, want a refusal naming the stale cache", err)
	}
	for _, name := range []string{cacheSnapName, datasetSnapName} {
		if _, statErr := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(statErr) {
			t.Errorf("%s was written despite the error", name)
		}
	}
	if err := ds.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	if res := recovered(dir); res.Err != nil || res.CacheHit || res.Records[0].ID != top {
		t.Errorf("recovered TopK: hit %v, ids %v (%v); want a miss led by %d", res.CacheHit, idsOf(res.Records), res.Err, top)
	}
}

// TestWarmCacheRefusesCrossDomainLoad pins the query-space compatibility
// rule: a warm cache checkpointed by a simplex-space engine must refuse to
// load beside a box-space dataset over the same data — a region clipped to
// one domain is not a validity certificate over the other. The
// matching-space round trip must keep working, including the region's
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
	simplexDir := t.TempDir()
	if err := e.Checkpoint(simplexDir); err != nil {
		t.Fatal(err)
	}
	e.Close()
	cache, err := os.ReadFile(filepath.Join(simplexDir, cacheSnapName))
	if err != nil {
		t.Fatal(err)
	}

	boxDS, err := NewDataset(points)
	if err != nil {
		t.Fatal(err)
	}
	boxDir := t.TempDir()
	if err := boxDS.Checkpoint(boxDir); err != nil {
		t.Fatal(err)
	}
	if _, err := recoverWithCache(t, boxDir, cache); err == nil {
		t.Fatal("a box-space dataset recovered beside a simplex-space warm cache")
	}

	simplexDS, simplexEngine, err := RecoverEngine(simplexDir, WALOptions{}, EngineOptions{})
	if err != nil {
		t.Fatalf("matching-space recovery failed: %v", err)
	}
	defer simplexDS.Close()
	defer simplexEngine.Close()
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
	if hit, ok := simplexEngine.cache.inner.Lookup(vec.Vector{0.5, 0.6, 0.7}, k); ok {
		t.Errorf("restored simplex region accepted a non-normalized vector: %+v", hit)
	}
}

// refCacheEncoder is the per-field warm-cache encoder the streamed one
// replaced — every field through its own little write into one payload
// buffer, checksummed whole — kept here as the reference the GIRWARM5 bytes
// are compared against: per entry query, order flag, constraints, records
// and stamp (the header's version), and neither repair state nor an
// inscribed box.
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

func (e *refCacheEncoder) entry(s cacheint.Snapshot, version int64) {
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
	e.i64(version)
}

// TestWarmCacheBytesMatchReference pins the file format across the encoder
// rewrite: for a cache that real mutations have drained, the streamed
// writer's file — several chunks long — is byte-identical to the reference
// encoder's.
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
	e := NewEngine(ds, EngineOptions{})
	defer e.Close()
	for i := 0; i < 128; i++ { // enough entries to span several chunks
		q := SpaceSimplex.Normalize([]float64{0.1 + r.Float64(), 0.1 + r.Float64(), 0.1 + r.Float64(), 0.1 + r.Float64()})
		if res := e.TopK(q, k); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	for _, m := range genChurn(r, points, 40, d) {
		applyMut(t, ds, m)
	}
	ds.mu.Lock()
	snaps, version, err := e.snapshotCacheLocked()
	ds.mu.Unlock()
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
		ref.entry(s, version)
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
	if err := e.loadCache(path, version); err != nil {
		t.Fatalf("the engine cannot load what it wrote: %v", err)
	}
	if got := e.Cache().Len(); got != 2*len(snaps) {
		t.Fatalf("loading %d entries beside themselves left %d", len(snaps), got)
	}
}

// TestRecoverEngineColdBesideEarlierCacheFormat pins the upgrade path: a
// durable directory whose cache.snap is GIRWARM3 — written by the build
// before the format dropped the repair state — or GIRWARM4 — written
// before it dropped the inscribed box — recovers cold (no entries, correct
// answers) like a torn pair, instead of failing: its dataset files did not
// change.
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
	e := NewEngine(ds, EngineOptions{})
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
	for _, format := range []byte{'3', '4'} {
		data[7] = format
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ds2, e2, err := RecoverEngine(dir, WALOptions{}, EngineOptions{})
		if err != nil {
			t.Fatalf("a GIRWARM%c cache beside intact dataset files should cost the warm start, not fail: %v", format, err)
		}
		if got := e2.Cache().Len(); got != 0 {
			t.Fatalf("restored %d entries from a GIRWARM%c file", got, format)
		}
		if got := topkFingerprint(t, ds2, q, k); got != want {
			t.Fatalf("GIRWARM%c: recovered dataset answers %s, want %s", format, got, want)
		}
		res := e2.TopK(q, k)
		if res.Err != nil || res.CacheHit {
			t.Fatalf("GIRWARM%c: cold engine: err %v, hit %v", format, res.Err, res.CacheHit)
		}
		e2.Close()
		if err := ds2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
