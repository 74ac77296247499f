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
// buffer, checksummed whole — kept here as the reference the GIRWARM3 bytes
// are compared against.
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
	e.bool(s.CandComplete)
	e.u32(uint32(len(s.Cand)))
	for _, r := range s.Cand {
		e.rec(r)
	}
	e.u32(uint32(len(s.Bounds)))
	for _, b := range s.Bounds {
		e.vec(b)
	}
	e.i64(s.Version)
}

// TestWarmCacheBytesMatchReference pins the file format across the encoder
// rewrite: for a cache with regions, records, retained repair state and
// stamps moved by real mutations, the streamed writer's file — several
// chunks long — is byte-identical to the reference encoder's.
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
	for i := 0; i < 48; i++ {
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
