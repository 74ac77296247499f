package gir

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/girlib/gir/internal/maintain"
	"github.com/girlib/gir/internal/pager"
)

// churnMut is one step of a generated mutation log.
type churnMut struct {
	insert bool
	id     int64
	point  []float64
}

// genChurn builds a deterministic insert/delete sequence over an initial
// population: inserts mint fresh ids, deletes pick a live record, and the
// population is kept from draining so deletes always hit.
func genChurn(r *rand.Rand, initial [][]float64, steps, d int) []churnMut {
	type rec struct {
		id    int64
		point []float64
	}
	live := make([]rec, len(initial))
	for i, p := range initial {
		live[i] = rec{id: int64(i), point: p}
	}
	nextID := int64(1 << 20)
	muts := make([]churnMut, steps)
	for i := range muts {
		if r.Float64() < 0.55 || len(live) < len(initial)/2 {
			p := make([]float64, d)
			for j := range p {
				p[j] = r.Float64()
			}
			muts[i] = churnMut{insert: true, id: nextID, point: p}
			live = append(live, rec{id: nextID, point: p})
			nextID++
		} else {
			j := r.Intn(len(live))
			muts[i] = churnMut{id: live[j].id, point: live[j].point}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	return muts
}

func applyMut(t *testing.T, ds *Dataset, m churnMut) {
	t.Helper()
	if m.insert {
		if err := ds.Insert(m.id, m.point); err != nil {
			t.Fatal(err)
		}
	} else if ok, err := ds.Delete(m.id, m.point); err != nil || !ok {
		t.Fatalf("delete of live record %d missed (%v, %v)", m.id, ok, err)
	}
}

// topkFingerprint is the byte-level identity of a top-k answer: ids plus
// exact score bits in rank order.
func topkFingerprint(t *testing.T, ds *Dataset, q []float64, k int) string {
	t.Helper()
	res, err := ds.TopK(q, k)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range res.Records {
		fmt.Fprintf(&b, "%d:%x;", r.ID, math.Float64bits(r.Score))
	}
	return b.String()
}

// girFingerprint is the byte-level identity of a query's immutable
// region: order sensitivity plus every constraint verbatim.
func girFingerprint(t *testing.T, ds *Dataset, q []float64, k int) string {
	t.Helper()
	res, err := ds.TopK(q, k)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ds.ComputeGIR(res, FP)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%v|%v", g.OrderSensitive(), g.Constraints())
}

func copyFileTo(t *testing.T, dst, src string, limit int64) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if limit >= 0 && limit < int64(len(data)) {
		data = data[:limit]
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestWALReplayDifferential is the crash-at-any-offset proof for the
// acceptance criteria: a 10k-step churn log is driven through a durable
// dataset, and recovery is checked against a never-crashed reference
// dataset that applied the same mutation prefix — at EVERY WAL record
// boundary via a shadow dataset advanced one record at a time through the
// exact replay path (applyWALPayload), with byte-equal top-k at each
// step and byte-equal GIRs at sampled steps; and at sampled boundaries
// (plus a torn final record) via full end-to-end gir.Recover on a
// truncated copy of the log. Runs in both query spaces.
func TestWALReplayDifferential(t *testing.T) {
	t.Run("box", func(t *testing.T) { testReplayDifferential(t, SpaceBox, 151) })
	t.Run("simplex", func(t *testing.T) { testReplayDifferential(t, SpaceSimplex, 152) })
}

func testReplayDifferential(t *testing.T, space Space, seed int64) {
	r := rand.New(rand.NewSource(seed))
	const n, d, k, steps = 600, 3, 5, 10000
	points := make([][]float64, n)
	for i := range points {
		points[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
	}
	pool := make([][]float64, 4)
	for i := range pool {
		q := []float64{0.2 + 0.6*r.Float64(), 0.2 + 0.6*r.Float64(), 0.2 + 0.6*r.Float64()}
		pool[i] = space.Normalize(q)
	}

	dir := t.TempDir()
	ds, err := NewDatasetInSpace(points, space)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.EnableWAL(dir, WALOptions{SyncEvery: 256}); err != nil {
		t.Fatal(err)
	}
	muts := genChurn(r, points, steps, d)
	for _, m := range muts {
		applyMut(t, ds, m)
	}
	if recs := ds.WALStats().Records; recs != steps {
		t.Fatalf("WAL holds %d records after %d mutations", recs, steps)
	}
	if err := ds.wal.Sync(); err != nil {
		t.Fatal(err)
	}

	// Collect every record boundary and payload from the on-disk log —
	// the same bytes recovery would read.
	var boundaries []int64
	var payloads [][]byte
	if _, _, err := pager.ScanWAL(filepath.Join(dir, walName), func(end int64, p []byte) error {
		boundaries = append(boundaries, end)
		payloads = append(payloads, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(payloads) != steps {
		t.Fatalf("scanned %d records, want %d", len(payloads), steps)
	}

	// The shadow starts from the durable base snapshot and advances one
	// record at a time through the replay path; the reference replays the
	// same prefix through the ordinary mutation API.
	shadow, err := openBase(filepath.Join(dir, datasetSnapName))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewDatasetInSpace(points, space)
	if err != nil {
		t.Fatal(err)
	}
	recoverEvery := steps / 20 // full end-to-end Recover at these prefixes
	for i := 0; i < steps; i++ {
		if err := shadow.applyWALPayload(payloads[i]); err != nil {
			t.Fatalf("replay of record %d: %v", i, err)
		}
		applyMut(t, ref, muts[i])
		if shadow.Len() != ref.Len() || shadow.Version() != ref.Version() {
			t.Fatalf("prefix %d: shadow (len %d, v%d) diverged from reference (len %d, v%d)",
				i+1, shadow.Len(), shadow.Version(), ref.Len(), ref.Version())
		}
		q := pool[i%len(pool)]
		if got, want := topkFingerprint(t, shadow, q, k), topkFingerprint(t, ref, q, k); got != want {
			t.Fatalf("prefix %d: top-k diverged\nrecovered: %s\nreference: %s", i+1, got, want)
		}
		if i%97 == 0 || i == steps-1 {
			if got, want := girFingerprint(t, shadow, q, k), girFingerprint(t, ref, q, k); got != want {
				t.Fatalf("prefix %d: GIR diverged\nrecovered: %s\nreference: %s", i+1, got, want)
			}
		}
		if (i+1)%recoverEvery == 0 || i == steps-1 {
			assertRecoverEquals(t, dir, boundaries[i], ref, pool, k, i+1)
		}
		if i == steps-2 {
			// A torn final record: a crash mid-append of record steps must
			// recover to exactly the steps−1 prefix, without error.
			tear := boundaries[i] + (boundaries[i+1]-boundaries[i])/2
			assertRecoverEquals(t, dir, tear, ref, pool, k, i+1)
		}
	}
}

// assertRecoverEquals copies the durable directory with the log cut at
// walLimit bytes, runs a real gir.Recover on the copy, and asserts the
// recovered dataset answers exactly like ref (the never-crashed dataset
// at the same prefix).
func assertRecoverEquals(t *testing.T, dir string, walLimit int64, ref *Dataset, pool [][]float64, k, prefix int) {
	t.Helper()
	crashed := t.TempDir()
	copyFileTo(t, filepath.Join(crashed, datasetSnapName), filepath.Join(dir, datasetSnapName), -1)
	copyFileTo(t, filepath.Join(crashed, walName), filepath.Join(dir, walName), walLimit)
	rec, err := Recover(crashed, WALOptions{})
	if err != nil {
		t.Fatalf("recover at prefix %d (wal cut %d): %v", prefix, walLimit, err)
	}
	defer rec.Close()
	if rec.Len() != ref.Len() || rec.Version() != ref.Version() {
		t.Fatalf("recover at prefix %d: (len %d, v%d) vs reference (len %d, v%d)",
			prefix, rec.Len(), rec.Version(), ref.Len(), ref.Version())
	}
	for _, q := range pool {
		if got, want := topkFingerprint(t, rec, q, k), topkFingerprint(t, ref, q, k); got != want {
			t.Fatalf("recover at prefix %d: top-k diverged\nrecovered: %s\nreference: %s", prefix, got, want)
		}
	}
	if got, want := girFingerprint(t, rec, pool[0], k), girFingerprint(t, ref, pool[0], k); got != want {
		t.Fatalf("recover at prefix %d: GIR diverged\nrecovered: %s\nreference: %s", prefix, got, want)
	}
}

// TestCheckpointIdempotentReplay pins the crash window between a
// checkpoint's two durable steps: the new snapshot is renamed into place
// but the process dies before the log truncates. Every log record is then
// already covered by the snapshot, and replay must skip all of them by
// version — not apply them twice.
func TestCheckpointIdempotentReplay(t *testing.T) {
	r := rand.New(rand.NewSource(153))
	const n, d, k, steps = 400, 3, 5, 500
	points := make([][]float64, n)
	for i := range points {
		points[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
	}
	dir := t.TempDir()
	ds, err := NewDataset(points)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.EnableWAL(dir, WALOptions{SyncEvery: 64}); err != nil {
		t.Fatal(err)
	}
	for _, m := range genChurn(r, points, steps, d) {
		applyMut(t, ds, m)
	}
	if err := ds.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	// Stash the pre-checkpoint log, checkpoint (snapshot + truncate), then
	// put the stale log back: the on-disk state a crash between the two
	// steps would leave.
	walPath := filepath.Join(dir, walName)
	staleLog, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	if recs := ds.WALStats().Records; recs != 0 {
		t.Fatalf("checkpoint left %d records in the log", recs)
	}
	if err := os.WriteFile(walPath, staleLog, 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Len() != ds.Len() || rec.Version() != ds.Version() {
		t.Fatalf("stale-log recovery double-applied records: (len %d, v%d) vs live (len %d, v%d)",
			rec.Len(), rec.Version(), ds.Len(), ds.Version())
	}
	q := []float64{0.4, 0.5, 0.6}
	if got, want := topkFingerprint(t, rec, q, k), topkFingerprint(t, ds, q, k); got != want {
		t.Fatalf("stale-log recovery diverged\nrecovered: %s\nlive: %s", got, want)
	}
}

// TestEnableWALGuards pins the directory-ownership rules around the
// durable pair.
func TestEnableWALGuards(t *testing.T) {
	r := rand.New(rand.NewSource(154))
	points := make([][]float64, 120)
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
	if err := ds.EnableWAL(t.TempDir(), WALOptions{}); err == nil {
		t.Error("second EnableWAL on one dataset accepted")
	}
	if err := ds.Checkpoint(t.TempDir()); err == nil {
		t.Error("checkpoint into a directory other than the WAL's accepted")
	}
	// The log's directory is one directory however it is spelled.
	for _, spelling := range []string{dir + "/", filepath.Dir(dir) + "/./" + filepath.Base(dir)} {
		if err := ds.Checkpoint(spelling); err != nil {
			t.Errorf("checkpoint into the WAL's directory spelled %q refused: %v", spelling, err)
		}
	}
	ds2, err := NewDataset(points)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds2.EnableWAL(dir, WALOptions{}); err == nil {
		t.Error("EnableWAL over an existing durable directory accepted")
	}
	if err := ds.Insert(9999, []float64{0.1, 0.2, 0.3}); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery re-attaches the log: new mutations keep appending and a
	// second recovery sees them.
	rec, err := Recover(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := rec.Delete(9999, []float64{0.1, 0.2, 0.3}); err != nil || !ok {
		t.Fatalf("recovered dataset lost a logged insert (%v, %v)", ok, err)
	}
	if err := rec.Checkpoint(dir + "/"); err != nil {
		t.Errorf("checkpoint of a recovered dataset into its directory spelled %q refused: %v", dir+"/", err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	rec2, err := Recover(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec2.Close()
	if ok, err := rec2.Delete(9999, []float64{0.1, 0.2, 0.3}); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Fatal("recovered dataset resurrected a logged delete")
	}
}

// TestRecoverEngineWarmPair pins Engine.Checkpoint + RecoverEngine: the
// dataset/cache pair restores warm when consistent, the write-ahead tail
// is reconciled with the restored cache before serving, and a torn pair
// (cache from an older checkpoint) silently costs the warm start instead
// of serving stale entries.
func TestRecoverEngineWarmPair(t *testing.T) {
	r := rand.New(rand.NewSource(155))
	const n, d, k = 900, 3, 6
	points := make([][]float64, n)
	for i := range points {
		points[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
	}
	pool := make([][]float64, 8)
	for i := range pool {
		pool[i] = []float64{0.2 + 0.6*r.Float64(), 0.2 + 0.6*r.Float64(), 0.2 + 0.6*r.Float64()}
	}
	dir := t.TempDir()
	ds, err := NewDataset(points)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.EnableWAL(dir, WALOptions{SyncEvery: 16}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(ds, EngineOptions{RepairMode: true})
	for _, q := range pool {
		if res := e.TopK(q, k); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if err := e.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint churn lands only in the WAL; the recovered engine
	// must reconcile it with the restored cache before serving.
	for _, m := range genChurn(r, points, 200, d) {
		applyMut(t, ds, m)
	}
	e.Quiesce()
	reference := make([]string, len(pool))
	for i, q := range pool {
		reference[i] = topkFingerprint(t, ds, q, k)
	}
	staleCache, err := os.ReadFile(filepath.Join(dir, cacheSnapName))
	if err != nil {
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
	if len(cacheFingerprints(e2.Cache())) == 0 {
		t.Fatal("consistent checkpoint pair did not restore a warm cache")
	}
	for i, q := range pool {
		res := e2.TopK(q, k)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		var got strings.Builder
		for _, rec := range res.Records {
			fmt.Fprintf(&got, "%d:%x;", rec.ID, math.Float64bits(rec.Score))
		}
		if got.String() != reference[i] {
			t.Fatalf("query %d after recovery: %s, want %s", i, got.String(), reference[i])
		}
	}
	e2.Close()
	if err := ds2.Close(); err != nil {
		t.Fatal(err)
	}

	// Torn pair: advance the dataset (new checkpoint), then put the older
	// cache snapshot back. Its version no longer matches the dataset
	// snapshot's; recovery must cold-start, not serve it.
	ds3, e3, err := RecoverEngine(dir, WALOptions{}, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	applyMut(t, ds3, churnMut{insert: true, id: 1 << 30, point: []float64{0.5, 0.5, 0.5}})
	if err := e3.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	e3.Close()
	if err := ds3.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, cacheSnapName), staleCache, 0o644); err != nil {
		t.Fatal(err)
	}
	ds4, e4, err := RecoverEngine(dir, WALOptions{}, EngineOptions{})
	if err != nil {
		t.Fatalf("torn checkpoint pair should cost the warm start, not fail: %v", err)
	}
	defer e4.Close()
	defer ds4.Close()
	if got := len(cacheFingerprints(e4.Cache())); got != 0 {
		t.Fatalf("torn pair restored %d stale cache entries", got)
	}
}

// TestDeleteWALAppendFailure is the table of the write paths whose I/O can
// fail (it began as the delete row): an insert and a delete against a
// severed log, and a checkpoint against an obstacle where its delta file
// goes. Each must return the error — not panic — and leave the dataset as
// it stood: cardinality, version, the served top-k, the subscriber feed,
// the log's record count and the dirty set. Once the fault is lifted the
// same operation succeeds and Recover gives back the state it produced.
func TestDeleteWALAppendFailure(t *testing.T) {
	q := []float64{0.4, 0.3, 0.3}
	// severLog closes the log's file out from under the dataset, so the
	// next append's WriteAt fails exactly like a full or yanked disk.
	severLog := func(t *testing.T, ds *Dataset, dir string) (lift func()) {
		if err := ds.wal.Close(); err != nil {
			t.Fatal(err)
		}
		return func() {
			w, err := pager.OpenWAL(filepath.Join(dir, walName), WALOptions{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			ds.mu.Lock()
			ds.wal = w
			ds.mu.Unlock()
		}
	}
	// blockDelta puts a directory where the checkpoint appends its segment.
	blockDelta := func(t *testing.T, ds *Dataset, dir string) (lift func()) {
		obstacle := filepath.Join(dir, datasetDeltaName)
		if err := os.Mkdir(obstacle, 0o755); err != nil {
			t.Fatal(err)
		}
		return func() {
			if err := os.Remove(obstacle); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name   string
		n      int // records built; 20 000 makes five inserts' pages a delta segment, not a rebase
		writes int // inserts logged before the fault
		fault  func(t *testing.T, ds *Dataset, dir string) (lift func())
		op     func(ds *Dataset, dir string, victim Record) error
		grows  int // what the operation adds to Len and to the feed's net count once it succeeds
		logged int // records in the log after it succeeds
	}{
		{name: "insert", n: 200, fault: severLog, grows: 1, logged: 1,
			op: func(ds *Dataset, _ string, _ Record) error { return ds.Insert(1<<40, []float64{0.9, 0.9, 0.9}) }},
		{name: "delete", n: 200, fault: severLog, grows: -1, logged: 1,
			op: func(ds *Dataset, _ string, victim Record) error {
				ok, err := ds.Delete(victim.ID, victim.Attrs)
				if err == nil && !ok {
					err = fmt.Errorf("record %d not found", victim.ID)
				}
				return err
			}},
		{name: "checkpoint", n: 20000, writes: 5, fault: blockDelta,
			op: func(ds *Dataset, dir string, _ Record) error { return ds.Checkpoint(dir) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(44))
			ds, err := NewDataset(randPoints(r, tc.n, 3))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := ds.EnableWAL(dir, WALOptions{}); err != nil {
				t.Fatal(err)
			}
			feed := 0
			defer ds.subscribe(func(m maintain.Mutation) {
				if m.Insert {
					feed++
				} else {
					feed--
				}
			})()
			for i := 0; i < tc.writes; i++ {
				if err := ds.Insert(int64(1<<41+i), []float64{r.Float64(), r.Float64(), r.Float64()}); err != nil {
					t.Fatal(err)
				}
			}
			before, err := ds.TopK(q, 5)
			if err != nil {
				t.Fatal(err)
			}
			victim := before.Records[0] // served, so an applied delete would show in the top-k
			wantLen, wantVersion, wantDirty := ds.Len(), ds.Version(), maps.Clone(ds.dirty)

			lift := tc.fault(t, ds, dir)
			err = func() (err error) {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("panicked on the I/O failure: %v", p)
					}
				}()
				return tc.op(ds, dir, victim)
			}()
			if err == nil {
				t.Fatal("reported success over the failed write")
			}
			if ds.Len() != wantLen || ds.Version() != wantVersion || feed != tc.writes {
				t.Fatalf("the failed operation left Len %d, Version %d, feed %d; want %d, %d, %d", ds.Len(), ds.Version(), feed, wantLen, wantVersion, tc.writes)
			}
			if got := ds.WALStats().Records; got != int64(tc.writes) || !maps.Equal(ds.dirty, wantDirty) {
				t.Fatalf("the failed operation left %d log records (want %d) and %d dirty pages (want %d)", got, tc.writes, len(ds.dirty), len(wantDirty))
			}
			after, err := ds.TopK(q, 5)
			if err != nil {
				t.Fatal(err)
			}
			for i := range before.Records {
				if before.Records[i].ID != after.Records[i].ID {
					t.Fatalf("the failed operation changed the served top-k: %+v vs %+v", before.Records, after.Records)
				}
			}

			lift()
			if err := tc.op(ds, dir, victim); err != nil {
				t.Fatalf("with the fault lifted: %v", err)
			}
			wantLen += tc.grows
			if tc.grows != 0 {
				wantVersion++ // an insert or a delete is one version; a checkpoint none
			}
			if ds.Len() != wantLen || ds.Version() != wantVersion || feed != tc.writes+tc.grows {
				t.Fatalf("after the retry Len %d, Version %d, feed %d; want %d, %d, %d", ds.Len(), ds.Version(), feed, wantLen, wantVersion, tc.writes+tc.grows)
			}
			// A delete that misses must not log either (probe-first).
			if ok, err := ds.Delete(1<<50, victim.Attrs); err != nil || ok {
				t.Fatalf("delete of a missing record: %v, %v", ok, err)
			}
			if got := ds.WALStats().Records; got != int64(tc.logged) {
				t.Fatalf("%d log records after the retry and a missed delete, want %d", got, tc.logged)
			}
			if err := ds.Close(); err != nil {
				t.Fatal(err)
			}
			rec, err := Recover(dir, WALOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			if rec.Len() != wantLen || rec.Version() != wantVersion {
				t.Fatalf("recovered Len %d, Version %d; want %d, %d", rec.Len(), rec.Version(), wantLen, wantVersion)
			}
		})
	}
}
