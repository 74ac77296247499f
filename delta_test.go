package gir

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/girlib/gir/internal/pager"
)

// copyDir copies every file of a durable directory — dataset file, log and
// whatever else sits there — the way a crash would leave them to a restart.
func copyDir(t *testing.T, dst, src string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		copyFileTo(t, filepath.Join(dst, ent.Name()), filepath.Join(src, ent.Name()), -1)
	}
}

// saveBase writes a one-segment dataset file of ds to path, beside whatever
// durable directory ds logs to — the control an appending directory is
// held against.
func saveBase(t *testing.T, ds *Dataset, path string) {
	t.Helper()
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if _, err := pager.WriteFull(path, ds.metaLocked(), ds.store); err != nil {
		t.Fatal(err)
	}
}

func randPoints(r *rand.Rand, n, d int) [][]float64 {
	points := make([][]float64, n)
	for i := range points {
		points[i] = make([]float64, d)
		for j := range points[i] {
			points[i][j] = r.Float64()
		}
	}
	return points
}

// TestDeltaCheckpointDifferential drives a seeded insert/delete/checkpoint
// script through a durable dataset and, at every checkpoint and at random
// points between, recovers a copy of the directory — full segment +
// appended segments + log — and requires Len, Version and top-k on a fixed
// query set to equal the live dataset's AND those of a control recovered
// from a one-segment file written at the last checkpoint plus the same log.
// The script crosses several compactions, and the bytes it wrote obey the
// rule's bound: bytes written ≤ 2 × the bytes dirtied + one full segment.
func TestDeltaCheckpointDifferential(t *testing.T) {
	t.Run("d=3", func(t *testing.T) { testDeltaDifferential(t, 3, 171) })
	t.Run("d=4", func(t *testing.T) { testDeltaDifferential(t, 4, 172) })
}

func testDeltaDifferential(t *testing.T, d int, seed int64) {
	r := rand.New(rand.NewSource(seed))
	const n, k, checkpoints, perSegment = 6000, 5, 36, 10
	points := randPoints(r, n, d)
	pool := randPoints(r, 6, d)
	dir, control := t.TempDir(), t.TempDir()
	ds, err := NewDataset(points)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.EnableWAL(dir, WALOptions{SyncEvery: 4}); err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	saveBase(t, ds, filepath.Join(control, datasetSnapName))

	verify := func(where string) {
		t.Helper()
		if err := ds.wal.Sync(); err != nil {
			t.Fatal(err)
		}
		crashed := t.TempDir()
		copyDir(t, crashed, dir)
		copyFileTo(t, filepath.Join(control, walName), filepath.Join(dir, walName), -1)
		for _, c := range []struct{ name, dir string }{{"segments+log", crashed}, {"control (one full segment + log)", control}} {
			rec, err := Recover(c.dir, WALOptions{})
			if err != nil {
				t.Fatalf("%s: recovering %s: %v", where, c.name, err)
			}
			if rec.Len() != ds.Len() || rec.Version() != ds.Version() {
				t.Fatalf("%s: %s recovered (len %d, v%d), live is (len %d, v%d)",
					where, c.name, rec.Len(), rec.Version(), ds.Len(), ds.Version())
			}
			for _, q := range pool {
				if got, want := topkFingerprint(t, rec, q, k), topkFingerprint(t, ds, q, k); got != want {
					t.Fatalf("%s: %s diverged from live\nrecovered: %s\nlive:      %s", where, c.name, got, want)
				}
			}
			if st := rec.DeltaStats(); st.TruncatedBytes != 0 {
				t.Fatalf("%s: %s dropped a tail on a clean directory: %+v", where, c.name, st)
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}

	muts := genChurn(r, points, checkpoints*perSegment, d)
	baseSize := func() int64 { return ds.base }
	written, dirtied := baseSize(), int64(0) // EnableWAL's full segment is the "one base"
	firstBase := written
	compactions := 0
	for c := 0; c < checkpoints; c++ {
		probe := r.Intn(perSegment)
		for i, m := range muts[c*perSegment : (c+1)*perSegment] {
			applyMut(t, ds, m)
			if i == probe {
				verify(fmt.Sprintf("segment %d after write %d", c, i))
			}
		}
		seg := pager.SegmentSize(29, len(ds.dirty))
		dirtied += seg
		before := ds.DeltaStats()
		if err := ds.Checkpoint(dir); err != nil {
			t.Fatal(err)
		}
		if after := ds.DeltaStats(); after.Segments == before.Segments+1 {
			written += seg
			if after.Bytes != before.Bytes+seg {
				t.Fatalf("checkpoint %d appended %d bytes for a %d-byte segment", c, after.Bytes-before.Bytes, seg)
			}
		} else if after.Segments == 0 {
			compactions++
			written += baseSize()
		} else {
			t.Fatalf("checkpoint %d went from %+v to %+v: neither an append nor a compaction", c, before, after)
		}
		if fi, err := os.Stat(filepath.Join(dir, datasetSnapName)); err != nil || fi.Size() != baseSize()+ds.DeltaStats().Bytes {
			t.Fatalf("checkpoint %d: dataset file is %v (%v), stats say %d + %d bytes", c, fi, err, baseSize(), ds.DeltaStats().Bytes)
		}
		if ds.DeltaStats().Bytes > baseSize() {
			t.Fatalf("checkpoint %d: appended segments (%d bytes) outgrew the first (%d)", c, ds.DeltaStats().Bytes, baseSize())
		}
		if recs := ds.WALStats().Records; recs != 0 || len(ds.dirty) != 0 {
			t.Fatalf("checkpoint %d left %d log records and %d dirty pages", c, recs, len(ds.dirty))
		}
		saveBase(t, ds, filepath.Join(control, datasetSnapName))
		verify(fmt.Sprintf("checkpoint %d", c))
	}
	if compactions < 2 {
		t.Fatalf("the script crossed %d compactions, want ≥ 2 — resize it", compactions)
	}
	if compactions > checkpoints/3 {
		t.Fatalf("%d of %d checkpoints were full rewrites — the script no longer exercises deltas", compactions, checkpoints)
	}
	if limit := 2*dirtied + baseSize(); written > limit {
		t.Fatalf("wrote %d bytes of segments, over the bound 2×%d dirtied + one %d-byte full segment", written, dirtied, baseSize())
	}
	t.Logf("d=%d: %d checkpoints, %d compactions, %d KB dirtied, %d KB written (first full segment %d KB, last %d KB)",
		d, checkpoints, compactions, dirtied>>10, written>>10, firstBase>>10, baseSize()>>10)
}

// TestDeltaCheckpointProportional is the count gate behind "a checkpoint
// costs what changed": after w writes a checkpoint appends exactly one
// segment holding the pages those writes dirtied — never more pages than the
// store was written to — so its bytes are at most (dirtied + 1) ×
// (PageSize + 16); with nothing dirty it appends one empty segment; and
// neither touches a byte of the file's first segment.
func TestDeltaCheckpointProportional(t *testing.T) {
	r := rand.New(rand.NewSource(173))
	const n, d, w = 40000, 4, 24
	points := randPoints(r, n, d)
	dir := t.TempDir()
	ds, err := NewDataset(points)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.EnableWAL(dir, WALOptions{SyncEvery: 8}); err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	snap := filepath.Join(dir, datasetSnapName)
	first, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(first)) != ds.base {
		t.Fatalf("EnableWAL wrote %d bytes, a %d-byte full segment", len(first), ds.base)
	}
	muts := genChurn(r, points, 4*w, d)
	for c := 0; c < 4; c++ {
		writesBefore := ds.IOStats().PageWrites
		for _, m := range muts[c*w : (c+1)*w] {
			applyMut(t, ds, m)
		}
		pageWrites := ds.IOStats().PageWrites - writesBefore
		dirty := int64(len(ds.dirty))
		if dirty == 0 || dirty > pageWrites {
			t.Fatalf("%d writes left %d dirty pages over %d page writes", w, dirty, pageWrites)
		}
		before := ds.DeltaStats()
		if err := ds.Checkpoint(dir); err != nil {
			t.Fatal(err)
		}
		after := ds.DeltaStats()
		appended := after.Bytes - before.Bytes
		if after.Segments != before.Segments+1 || after.Pages != before.Pages+dirty {
			t.Fatalf("checkpoint %d: %+v → %+v, want one more segment of %d pages", c, before, after, dirty)
		}
		if limit := (dirty + 1) * (pager.PageSize + 16); appended > limit {
			t.Fatalf("checkpoint %d appended %d bytes for %d dirty pages (limit %d)", c, appended, dirty, limit)
		}
		t.Logf("checkpoint %d: %d writes dirtied %d of %d pages, %d bytes appended (first segment %d)",
			c, w, dirty, ds.store.NumPages(), appended, len(first))
	}
	before := ds.DeltaStats()
	if err := ds.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	if after := ds.DeltaStats(); after.Segments != before.Segments+1 || after.Pages != before.Pages ||
		after.Bytes-before.Bytes != pager.SegmentSize(29, 0) {
		t.Fatalf("idle checkpoint: %+v → %+v, want one empty segment", before, after)
	}
	now, err := os.ReadFile(snap)
	if err != nil || int64(len(now)) != ds.base+ds.DeltaStats().Bytes || !bytes.Equal(now[:len(first)], first) {
		t.Fatalf("appends changed the file's first segment, or its size is not the segments' (%v)", err)
	}
}

// TestCompactionCrash pins the one crash shape a compaction has. The
// rewrite is one atomic replace of the dataset file followed by the log's
// reset, so a kill inside it leaves the old file or the new one beside the
// old log; both recover the live state (the new file covers every record of
// the old log, which replay skips by version). It also pins the directory:
// after checkpoints that appended and compacted, it holds exactly the
// dataset file, the log and the warm cache.
func TestCompactionCrash(t *testing.T) {
	r := rand.New(rand.NewSource(174))
	const n, d, k = 3000, 3, 5
	points := randPoints(r, n, d)
	q := []float64{0.4, 0.5, 0.6}
	dir := t.TempDir()
	ds, err := NewDataset(points)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.EnableWAL(dir, WALOptions{}); err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	e := NewEngine(ds, EngineOptions{})
	defer e.Close()
	muts := genChurn(r, points, 4000, d)
	next := 0
	segment := func(writes int) {
		for _, m := range muts[next : next+writes] {
			applyMut(t, ds, m)
		}
		next += writes
		if err := ds.wal.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	// Checkpoint until one compacts, keeping the files a kill inside that
	// compaction finds: the old dataset file and the log it was about to
	// reset.
	segment(8)
	if err := e.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	var oldSnap, oldLog []byte
	for ds.DeltaStats().Segments > 0 {
		segment(8)
		oldSnap, oldLog = read(datasetSnapName), read(walName)
		if err := e.Checkpoint(dir); err != nil {
			t.Fatal(err)
		}
	}
	if int64(len(read(datasetSnapName))) != ds.base || int64(len(oldSnap)) <= ds.base {
		t.Fatalf("fixture: the compaction left a %d-byte file after a %d-byte one, want one full %d-byte segment", len(read(datasetSnapName)), len(oldSnap), ds.base)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ent := range entries {
		names = append(names, ent.Name())
	}
	if got, want := strings.Join(names, " "), strings.Join([]string{cacheSnapName, datasetSnapName, walName}, " "); got != want {
		t.Fatalf("the durable directory holds %q, want %q", got, want)
	}

	for _, c := range []struct {
		what string
		snap []byte
	}{
		{"killed inside a compaction, before its rename", oldSnap},
		{"killed inside a compaction, after its rename", read(datasetSnapName)},
	} {
		crashed := t.TempDir()
		copyDir(t, crashed, dir)
		if err := os.WriteFile(filepath.Join(crashed, datasetSnapName), c.snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashed, walName), oldLog, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Recover(crashed, WALOptions{})
		if err != nil {
			t.Fatalf("%s: %v", c.what, err)
		}
		if rec.Len() != ds.Len() || rec.Version() != ds.Version() {
			t.Fatalf("%s: recovered (len %d, v%d), live is (len %d, v%d)", c.what, rec.Len(), rec.Version(), ds.Len(), ds.Version())
		}
		if got, want := topkFingerprint(t, rec, q, k), topkFingerprint(t, ds, q, k); got != want {
			t.Fatalf("%s: top-k diverged\nrecovered: %s\nlive:      %s", c.what, got, want)
		}
		if st := rec.DeltaStats(); st.TruncatedBytes != 0 {
			t.Fatalf("%s: dropped a tail of an intact file: %+v", c.what, st)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALReplayRefusesGap is the regression test for contiguous replay: a
// log whose first record is not the file's next version — here a dataset
// file cut back to its first segment after the log was reset behind it —
// must fail recovery with an error naming both versions, where it used to
// apply the records and serve a dataset that never existed.
func TestWALReplayRefusesGap(t *testing.T) {
	r := rand.New(rand.NewSource(175))
	points := randPoints(r, 2000, 3)
	dir := t.TempDir()
	ds, err := NewDataset(points)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.EnableWAL(dir, WALOptions{}); err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	insert := func(id int64) {
		if err := ds.Insert(id, []float64{r.Float64(), r.Float64(), r.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	insert(1 << 20)
	insert(1<<20 + 1)
	if err := ds.Checkpoint(dir); err != nil { // v2 lives in the appended segment only
		t.Fatal(err)
	}
	insert(1<<20 + 2) // the log now starts at v3
	if ds.DeltaStats().Segments != 1 {
		t.Fatalf("fixture: checkpoint did not append a segment: %+v", ds.DeltaStats())
	}
	crashed := t.TempDir()
	copyDir(t, crashed, dir)
	if err := os.Truncate(filepath.Join(crashed, datasetSnapName), ds.base); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(crashed, WALOptions{})
	if err == nil {
		t.Fatalf("recovered (len %d, v%d) from a full segment at v0 and a log starting at v3", rec.Len(), rec.Version())
	}
	if msg := err.Error(); !strings.Contains(msg, "version 3") || !strings.Contains(msg, "version 0") {
		t.Fatalf("the gap error should name both versions, got: %v", err)
	}
	// The engine path refuses the same way.
	copyFileTo(t, filepath.Join(crashed, walName), filepath.Join(dir, walName), -1)
	if _, _, err := RecoverEngine(crashed, WALOptions{}, EngineOptions{}); err == nil {
		t.Fatal("RecoverEngine replayed past the gap")
	}
}
