package gir

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/girlib/gir/internal/pager"
)

// TestTornWriteCorpus is the torn-write fuzz-by-enumeration for every
// durable artifact: a one-segment dataset file and a warm-cache snapshot
// truncated at EVERY byte boundary must fail to load with a clean error
// (never a panic, never a silently garbage dataset), and with one byte
// flipped per page-sized region must fail their checksums; a write-ahead
// log truncated at every byte boundary must recover — without error — to
// exactly the longest intact record prefix; and a dataset file whose last
// appended segment is cut at every byte or has any byte flipped must recover
// to exactly the acknowledged state when the log it would have covered is
// still beside it, and be refused when only a later log is (tornDeltaCorpus).
func TestTornWriteCorpus(t *testing.T) {
	t.Run("delta", tornDeltaCorpus)
	r := rand.New(rand.NewSource(160))
	const n, d, k = 100, 3, 4
	points := make([][]float64, n)
	for i := range points {
		points[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
	}
	dir := t.TempDir()

	// Build the three artifacts from one durable engine.
	ds, err := NewDataset(points)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.EnableWAL(dir, WALOptions{SyncEvery: 8}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(ds, EngineOptions{})
	for i := 0; i < 6; i++ {
		q := []float64{0.2 + 0.6*r.Float64(), 0.2 + 0.6*r.Float64(), 0.2 + 0.6*r.Float64()}
		if res := e.TopK(q, k); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if err := e.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	// 60 logged inserts after the checkpoint give the WAL corpus its
	// records; all inserts, so the expected recovered size is initial +
	// replayed records.
	for i := 0; i < 60; i++ {
		if err := ds.Insert(int64(1<<20+i), []float64{r.Float64(), r.Float64(), r.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	e.Close()

	snapData, err := os.ReadFile(filepath.Join(dir, datasetSnapName))
	if err != nil {
		t.Fatal(err)
	}
	cacheData, err := os.ReadFile(filepath.Join(dir, cacheSnapName))
	if err != nil {
		t.Fatal(err)
	}
	walData, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}

	scratch := t.TempDir()
	loadEngine := func() *Engine {
		eds, err := NewDataset(points)
		if err != nil {
			t.Fatal(err)
		}
		return NewEngine(eds, EngineOptions{})
	}
	le := loadEngine()
	defer le.Close()

	// The dataset file's first segment on its own, a one-segment file:
	// every strict prefix must be rejected.
	oneSeg := snapData[:ds.base]
	snapPath := filepath.Join(scratch, "snap")
	for cut := 0; cut < len(oneSeg); cut++ {
		if err := os.WriteFile(snapPath, oneSeg[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, _, err := pager.LoadSegments(snapPath); err == nil {
			t.Fatalf("dataset file truncated at %d/%d bytes loaded", cut, len(oneSeg))
		}
	}
	// One flipped byte per page-sized region fails the checksum.
	for off := 37; off < len(oneSeg); off += pager.PageSize {
		cor := append([]byte(nil), oneSeg...)
		cor[off] ^= 0x20
		if err := os.WriteFile(snapPath, cor, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, _, err := pager.LoadSegments(snapPath); err == nil {
			t.Fatalf("dataset file with byte %d flipped loaded", off)
		}
	}

	// Warm-cache snapshot: same corpus, through the loader RecoverEngine runs.
	cachePath := filepath.Join(scratch, "cache")
	for cut := 0; cut < len(cacheData); cut++ {
		if err := os.WriteFile(cachePath, cacheData[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := le.loadCache(cachePath, le.ds.Version()); err == nil {
			t.Fatalf("cache snapshot truncated at %d/%d bytes loaded", cut, len(cacheData))
		}
	}
	for off := 13; off < len(cacheData); off += 512 {
		cor := append([]byte(nil), cacheData...)
		cor[off] ^= 0x20
		if err := os.WriteFile(cachePath, cor, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := le.loadCache(cachePath, le.ds.Version()); err == nil {
			t.Fatalf("cache snapshot with byte %d flipped loaded", off)
		}
	}

	// Write-ahead log: every truncation recovers the longest intact
	// prefix, silently. The record boundaries say how many records each
	// cut preserves.
	var boundaries []int64
	if _, _, err := pager.ScanWAL(filepath.Join(dir, walName), func(end int64, _ []byte) error {
		boundaries = append(boundaries, end)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	crashDir := filepath.Join(scratch, "crash")
	if err := os.MkdirAll(crashDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(crashDir, datasetSnapName), snapData, 0o644); err != nil {
		t.Fatal(err)
	}
	base := -1 // Len of the checkpointed snapshot, learned from the first recovery
	for cut := 0; cut <= len(walData); cut++ {
		if err := os.WriteFile(filepath.Join(crashDir, walName), walData[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Recover(crashDir, WALOptions{})
		if err != nil {
			t.Fatalf("recovery with WAL cut at %d/%d bytes failed: %v", cut, len(walData), err)
		}
		if base < 0 {
			base = rec.Len()
		}
		intact := 0
		for _, b := range boundaries {
			if b <= int64(cut) {
				intact++
			}
		}
		if got := rec.Len() - base; got != intact {
			t.Fatalf("WAL cut at %d bytes replayed %d records, want %d", cut, got, intact)
		}
		// The truncation must be REPORTED, not silent: Recover discards
		// exactly the bytes past the last intact record, and — since every
		// cut here lands mid-frame — classifies the loss as the benign
		// short-tail crash signature, never as discarded whole records.
		st := rec.WALStats()
		if st.Records != int64(intact) {
			t.Fatalf("WAL cut at %d bytes reports %d intact records, want %d", cut, st.Records, intact)
		}
		wantTrunc := int64(0)
		if cut >= walMagicLen {
			last := int64(walMagicLen)
			for _, b := range boundaries {
				if b <= int64(cut) {
					last = b
				}
			}
			wantTrunc = int64(cut) - last
		}
		if st.TruncatedBytes != wantTrunc {
			t.Fatalf("WAL cut at %d bytes reports %d truncated bytes, want %d", cut, st.TruncatedBytes, wantTrunc)
		}
		if wantTrunc > 0 {
			if !st.ShortTail || st.TruncatedRecords != 0 || st.CRCFailures != 0 {
				t.Fatalf("WAL cut at %d bytes misclassified its torn tail: %+v", cut, st)
			}
		} else if st.ShortTail || st.TruncatedRecords != 0 || st.CRCFailures != 0 {
			t.Fatalf("WAL cut at a record boundary (%d bytes) reports phantom loss: %+v", cut, st)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Mid-log corruption: flip one payload bit in record j. Replay must
	// stop before the corrupt record (never replay garbage), and the open
	// must report the loss as real — j intact records kept, the corrupt
	// frame counted as a CRC failure, and every well-framed record stranded
	// behind it counted as truncated, with no short-tail signature.
	j := len(boundaries) / 2
	prev := int64(walMagicLen)
	if j > 0 {
		prev = boundaries[j-1]
	}
	cor := append([]byte(nil), walData...)
	cor[prev+8] ^= 0x01 // first payload byte of record j (after the 8-byte frame header)
	if err := os.WriteFile(filepath.Join(crashDir, walName), cor, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(crashDir, WALOptions{})
	if err != nil {
		t.Fatalf("recovery with a corrupt mid-log record failed: %v", err)
	}
	if got := rec.Len() - base; got != j {
		t.Fatalf("corrupt record %d: replayed %d records, want %d", j, got, j)
	}
	st := rec.WALStats()
	if st.Records != int64(j) {
		t.Fatalf("corrupt record %d: reports %d intact records, want %d", j, st.Records, j)
	}
	if st.TruncatedBytes != int64(len(walData))-prev {
		t.Fatalf("corrupt record %d: reports %d truncated bytes, want %d", j, st.TruncatedBytes, int64(len(walData))-prev)
	}
	if st.CRCFailures != 1 {
		t.Fatalf("corrupt record %d: reports %d CRC failures, want 1", j, st.CRCFailures)
	}
	if st.TruncatedRecords != int64(len(boundaries)-j) {
		t.Fatalf("corrupt record %d: reports %d truncated records, want %d", j, st.TruncatedRecords, len(boundaries)-j)
	}
	if st.ShortTail {
		t.Fatalf("corrupt record %d: misreported as a benign short tail: %+v", j, st)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

// tornDeltaCorpus damages the last appended segment of a durable
// directory's dataset file in every way a crash or bit rot can and recovers
// beside two logs. Beside the
// log the checkpoint was about to reset — what a crash mid-append leaves —
// the damaged segment is dropped and the log replays: exactly the
// acknowledged state, the loss reported. Beside the log written AFTER the
// reset — only media damage produces that pair — the records continue past
// a state the directory no longer holds, and recovery must refuse, never
// serve the stale tree.
func tornDeltaCorpus(t *testing.T) {
	r := rand.New(rand.NewSource(162))
	// Big enough that two small segments fit under the base (the
	// compaction rule), small enough to recover tens of thousands of times.
	points := make([][]float64, 600)
	for i := range points {
		points[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
	}
	dir := t.TempDir()
	ds, err := NewDataset(points)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.EnableWAL(dir, WALOptions{}); err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	id := int64(1 << 20)
	insert := func(n int) {
		for ; n > 0; n-- {
			if err := ds.Insert(id, []float64{r.Float64(), r.Float64(), r.Float64()}); err != nil {
				t.Fatal(err)
			}
			id++
		}
	}
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	insert(1)
	if err := ds.Checkpoint(dir); err != nil { // segment 1
		t.Fatal(err)
	}
	firstEnd := ds.base + ds.DeltaStats().Bytes
	insert(1)
	preLog := read(walName) // what the next checkpoint resets
	ackLen, ackVersion := ds.Len(), ds.Version()
	if err := ds.Checkpoint(dir); err != nil { // segment 2: the one damaged below
		t.Fatal(err)
	}
	insert(2)
	postLog := read(walName)
	snapData := read(datasetSnapName)
	if st := ds.DeltaStats(); st.Segments != 2 || ds.base+st.Bytes != int64(len(snapData)) || firstEnd <= ds.base {
		t.Fatalf("fixture: %+v over a %d-byte file, appended segment 1 ends at %d", st, len(snapData), firstEnd)
	}

	crashDir := t.TempDir()
	recoverWith := func(snap, log []byte) (*Dataset, error) {
		if err := os.WriteFile(filepath.Join(crashDir, datasetSnapName), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashDir, walName), log, 0o644); err != nil {
			t.Fatal(err)
		}
		return Recover(crashDir, WALOptions{})
	}
	check := func(what string, snap []byte) {
		rec, err := recoverWith(snap, preLog)
		if err != nil {
			t.Fatalf("%s beside the pre-reset log: %v", what, err)
		}
		st := rec.DeltaStats()
		if rec.Len() != ackLen || rec.Version() != ackVersion || st.Segments != 1 ||
			st.TruncatedBytes != int64(len(snap))-firstEnd {
			t.Fatalf("%s beside the pre-reset log: (len %d, v%d), want (len %d, v%d); delta stats %+v",
				what, rec.Len(), rec.Version(), ackLen, ackVersion, st)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		if rec, err := recoverWith(snap, postLog); err == nil {
			t.Fatalf("%s beside the post-reset log recovered (len %d, v%d): a stale tree was served", what, rec.Len(), rec.Version())
		}
	}
	for cut := int(firstEnd); cut < len(snapData); cut++ {
		check(fmt.Sprintf("last segment cut at %d/%d", cut, len(snapData)), snapData[:cut])
	}
	for off := int(firstEnd); off < len(snapData); off++ {
		cor := append([]byte(nil), snapData...)
		cor[off] ^= 0x20
		check(fmt.Sprintf("last segment with byte %d flipped", off), cor)
	}
	// Intact, both logs recover: the older one is wholly covered by the
	// segments and skipped by version, the newer one replays on top.
	for _, c := range []struct {
		log     []byte
		version int64
	}{{preLog, ackVersion}, {postLog, ds.Version()}} {
		rec, err := recoverWith(snapData, c.log)
		if err != nil {
			t.Fatal(err)
		}
		if st := rec.DeltaStats(); rec.Version() != c.version || st.Segments != 2 || st.TruncatedBytes != 0 {
			t.Fatalf("intact dataset file: recovered v%d, want v%d; delta stats %+v", rec.Version(), c.version, st)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// walMagicLen mirrors the pager's 8-byte "GIRWAL01" header length for
// boundary arithmetic in the torn-write corpus.
const walMagicLen = 8
