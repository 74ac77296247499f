package gir

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/girlib/gir/internal/pager"
)

// copyDir copies every file of a durable directory — base, delta, log and
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

// saveBase writes a full snapshot of ds to path, beside whatever durable
// directory ds logs to — the control a delta directory is held against.
func saveBase(t *testing.T, ds *Dataset, path string) {
	t.Helper()
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if err := ds.saveLocked(path); err != nil {
		t.Fatal(err)
	}
}

// openBase loads one snapshot file on its own: no delta segments, no log.
func openBase(path string) (*Dataset, error) {
	store, meta, err := pager.LoadSnapshot(path)
	if err != nil {
		return nil, err
	}
	return attachDataset(store, meta, path)
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
// points between, recovers a copy of the directory — base + delta segments
// + log — and requires Len, Version and top-k on a fixed query set to equal
// the live dataset's AND those of a control recovered the old way, from a
// full snapshot taken at the last checkpoint plus the same log. The script
// crosses several compactions, and the bytes it wrote obey the rule's
// bound: snapshot + delta bytes ≤ 2 × the bytes dirtied + one base.
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
		for _, c := range []struct{ name, dir string }{{"base+delta+log", crashed}, {"control (full save + log)", control}} {
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
			if st := rec.DeltaStats(); st.TruncatedBytes != 0 || st.ForeignTail {
				t.Fatalf("%s: %s dropped a delta tail on a clean directory: %+v", where, c.name, st)
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}

	muts := genChurn(r, points, checkpoints*perSegment, d)
	baseSize := func() int64 { return ds.base.SrcSize }
	written, dirtied := baseSize(), int64(0) // EnableWAL's base is the "one base"
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
		seg := pager.DeltaSegmentSize(29, len(ds.dirty))
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
		if fi, err := os.Stat(filepath.Join(dir, datasetDeltaName)); ds.DeltaStats().Bytes > 0 && (err != nil || fi.Size() != ds.DeltaStats().Bytes) {
			t.Fatalf("checkpoint %d: delta file is %v bytes (%v), stats say %d", c, fi, err, ds.DeltaStats().Bytes)
		}
		if ds.DeltaStats().Bytes > baseSize() {
			t.Fatalf("checkpoint %d: delta file (%d bytes) outgrew its base (%d)", c, ds.DeltaStats().Bytes, baseSize())
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
		t.Fatalf("wrote %d bytes of snapshot + delta, over the bound 2×%d dirtied + one %d-byte base", written, dirtied, baseSize())
	}
	t.Logf("d=%d: %d checkpoints, %d compactions, %d KB dirtied, %d KB written (first base %d KB, last %d KB)",
		d, checkpoints, compactions, dirtied>>10, written>>10, firstBase>>10, baseSize()>>10)
}

// TestDeltaCheckpointProportional is the count gate behind "a checkpoint
// costs what changed": after w writes a checkpoint appends exactly one
// segment holding the pages those writes dirtied — never more pages than the
// store was written to — so its bytes are at most (dirtied + 1) ×
// (PageSize + 16); with nothing dirty it appends one empty segment; and the
// base file is not touched by either.
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
	base, err := os.Stat(filepath.Join(dir, datasetSnapName))
	if err != nil {
		t.Fatal(err)
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
		t.Logf("checkpoint %d: %d writes dirtied %d of %d pages, %d bytes appended (base %d)",
			c, w, dirty, ds.store.NumPages(), appended, base.Size())
	}
	before := ds.DeltaStats()
	if err := ds.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	if after := ds.DeltaStats(); after.Segments != before.Segments+1 || after.Pages != before.Pages ||
		after.Bytes-before.Bytes != pager.DeltaSegmentSize(29, 0) {
		t.Fatalf("idle checkpoint: %+v → %+v, want one empty segment", before, after)
	}
	if now, err := os.Stat(filepath.Join(dir, datasetSnapName)); err != nil || !now.ModTime().Equal(base.ModTime()) || now.Size() != base.Size() {
		t.Fatalf("the base snapshot was rewritten by delta checkpoints: %v, %v", now, err)
	}
}

// TestDeltaCrashShapes pins the recoveries the torn-write corpus does not
// enumerate: a kill between a compaction's rename and the delta file's
// removal, a delta file of another base, a plain Save over a delta
// directory's base, and a stray delta file under EnableWAL.
func TestDeltaCrashShapes(t *testing.T) {
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
	muts := genChurn(r, points, 4000, d)
	next := 0
	segment := func(writes int) {
		for _, m := range muts[next : next+writes] {
			applyMut(t, ds, m)
		}
		next += writes
	}
	recoverEquals := func(what, crashed string, wantSegments int64, wantForeign bool) {
		t.Helper()
		rec, err := Recover(crashed, WALOptions{})
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		defer rec.Close()
		if rec.Len() != ds.Len() || rec.Version() != ds.Version() {
			t.Fatalf("%s: recovered (len %d, v%d), live is (len %d, v%d)", what, rec.Len(), rec.Version(), ds.Len(), ds.Version())
		}
		if got, want := topkFingerprint(t, rec, q, k), topkFingerprint(t, ds, q, k); got != want {
			t.Fatalf("%s: top-k diverged\nrecovered: %s\nlive:      %s", what, got, want)
		}
		if st := rec.DeltaStats(); st.Segments != wantSegments || st.ForeignTail != wantForeign || (st.TruncatedBytes > 0) != wantForeign {
			t.Fatalf("%s: delta stats %+v, want %d segments, foreign tail %v", what, st, wantSegments, wantForeign)
		}
	}

	// Checkpoint until the next one will compact, keeping the files a crash
	// inside that compaction would find: the old segments and the log the
	// checkpoint was about to reset.
	segment(8)
	if err := ds.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	var oldDelta, oldLog []byte
	for ds.DeltaStats().Segments > 0 {
		segment(8)
		if err := ds.wal.Sync(); err != nil {
			t.Fatal(err)
		}
		if oldDelta, err = os.ReadFile(filepath.Join(dir, datasetDeltaName)); err != nil {
			t.Fatal(err)
		}
		if oldLog, err = os.ReadFile(filepath.Join(dir, walName)); err != nil {
			t.Fatal(err)
		}
		if err := ds.Checkpoint(dir); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, datasetDeltaName)); !os.IsNotExist(err) {
		t.Fatalf("compaction left the delta file behind (%v)", err)
	}
	crashed := t.TempDir()
	copyDir(t, crashed, dir)
	if err := os.WriteFile(filepath.Join(crashed, datasetDeltaName), oldDelta, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(crashed, walName), oldLog, 0o644); err != nil {
		t.Fatal(err)
	}
	recoverEquals("killed between the compaction's rename and the delta file's removal", crashed, 0, true)
	if fi, err := os.Stat(filepath.Join(crashed, datasetDeltaName)); err != nil || fi.Size() != 0 {
		t.Fatalf("the old base's segments were not truncated away: %v, %v", fi, err)
	}

	// A segment of a foreign base behind intact ones: the intact prefix
	// applies, the rest is dropped.
	segment(8)
	if err := ds.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	crashed = t.TempDir()
	copyDir(t, crashed, dir)
	f, err := os.OpenFile(filepath.Join(crashed, datasetDeltaName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(oldDelta); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	recoverEquals("a foreign base's segments behind an intact one", crashed, 1, true)

	// A full snapshot written over the base of a delta directory (an
	// operator's manual "compaction") orphans the segments: they name the
	// old base.
	crashed = t.TempDir()
	copyDir(t, crashed, dir)
	saveBase(t, ds, filepath.Join(crashed, datasetSnapName))
	recoverEquals("a full snapshot over a delta directory's base", crashed, 0, true)

	// EnableWAL into a directory holding only a stray delta file removes it.
	stray := t.TempDir()
	if err := os.WriteFile(filepath.Join(stray, datasetDeltaName), oldDelta, 0o644); err != nil {
		t.Fatal(err)
	}
	ds2, err := NewDataset(points)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds2.EnableWAL(stray, WALOptions{}); err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	if _, err := os.Stat(filepath.Join(stray, datasetDeltaName)); !os.IsNotExist(err) {
		t.Fatalf("EnableWAL left a stray delta file beside its new base (%v)", err)
	}
}

// TestWALReplayRefusesGap is the regression test for contiguous replay: a
// log whose first record is not the snapshot state's next version — here a
// directory that lost its delta file after the log was reset behind it —
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
	if err := ds.Checkpoint(dir); err != nil { // v2 lives in the delta file only
		t.Fatal(err)
	}
	insert(1<<20 + 2) // the log now starts at v3
	if ds.DeltaStats().Segments != 1 {
		t.Fatalf("fixture: checkpoint did not append a segment: %+v", ds.DeltaStats())
	}
	crashed := t.TempDir()
	copyDir(t, crashed, dir)
	if err := os.Remove(filepath.Join(crashed, datasetDeltaName)); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(crashed, WALOptions{})
	if err == nil {
		t.Fatalf("recovered (len %d, v%d) from a base at v0 and a log starting at v3", rec.Len(), rec.Version())
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
