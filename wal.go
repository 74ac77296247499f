package gir

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"

	"github.com/girlib/gir/internal/maintain"
	"github.com/girlib/gir/internal/pager"
)

// WALOptions tunes the write-ahead log's durability/latency trade; see
// pager.WALOptions. The zero value fsyncs every mutation (SyncEvery = 1):
// an Insert or Delete that returned is durable.
type WALOptions = pager.WALOptions

// A durable directory holds what Recover restores from: the dataset file —
// a full segment of every page, then one segment per checkpoint of the pages
// written since (pager.AppendSegment) — and the log of the mutations after
// the last checkpoint. Engine.Checkpoint adds the warm-cache snapshot
// alongside.
const (
	datasetSnapName = "dataset.snap"
	cacheSnapName   = "cache.snap"
	walName         = "wal.log"
)

// walEncode serializes one mutation as a WAL record payload:
//
//	[8] dataset version the mutation produces (little endian)
//	[1] op: 1 = insert, 0 = delete
//	[8] record id
//	[4] dimension
//	[8]×d coordinates (float64 bits)
//
// The version makes replay idempotent: a checkpoint that crashed between
// writing the dataset file and resetting the log leaves records the file
// already covers, and Recover skips them by version instead of applying
// them twice.
func walEncode(m maintain.Mutation) []byte {
	buf := make([]byte, 8+1+8+4+8*len(m.Point))
	binary.LittleEndian.PutUint64(buf[0:], uint64(m.Version))
	if m.Insert {
		buf[8] = 1
	}
	binary.LittleEndian.PutUint64(buf[9:], uint64(m.ID))
	binary.LittleEndian.PutUint32(buf[17:], uint32(len(m.Point)))
	for i, x := range m.Point {
		binary.LittleEndian.PutUint64(buf[21+8*i:], math.Float64bits(x))
	}
	return buf
}

// walDecode parses a payload produced by walEncode. The payload has
// already passed the log's CRC, so a malformed record here means a real
// format error, not a torn write.
func walDecode(payload []byte) (maintain.Mutation, error) {
	if len(payload) < 21 {
		return maintain.Mutation{}, fmt.Errorf("gir: WAL record of %d bytes is shorter than any mutation", len(payload))
	}
	m := maintain.Mutation{
		Version: int64(binary.LittleEndian.Uint64(payload[0:])),
		Insert:  payload[8] == 1,
		ID:      int64(binary.LittleEndian.Uint64(payload[9:])),
	}
	if payload[8] > 1 {
		return maintain.Mutation{}, fmt.Errorf("gir: WAL record has unknown op %d", payload[8])
	}
	d := int(binary.LittleEndian.Uint32(payload[17:]))
	if len(payload) != 21+8*d {
		return maintain.Mutation{}, fmt.Errorf("gir: WAL record declares dimension %d but holds %d bytes", d, len(payload))
	}
	m.Point = make([]float64, d)
	for i := range m.Point {
		m.Point[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[21+8*i:]))
	}
	return m, nil
}

// EnableWAL makes the dataset's mutations crash-safe: a full segment of the
// current state is written as dir's dataset file, and from this call on
// every Insert/Delete appends a checksummed record to dir's write-ahead log
// before the mutation becomes visible, fsynced per opts.SyncEvery. After a
// crash, gir.Recover(dir) restores the dataset file and replays the log.
// Checkpoint folds the log into the dataset file and empties it.
//
// dir must not already hold a durable dataset — recover or remove it
// first; two live datasets logging to one directory would interleave
// their records.
func (ds *Dataset) EnableWAL(dir string, opts WALOptions) error {
	dir = filepath.Clean(dir)
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.wal != nil {
		return fmt.Errorf("gir: dataset already logs to %s", ds.walDir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	snap := filepath.Join(dir, datasetSnapName)
	if _, err := os.Stat(snap); err == nil {
		return fmt.Errorf("gir: %s already holds a durable dataset — open it with gir.Recover, or remove it", dir)
	}
	if err := ds.rebaseLocked(dir); err != nil {
		return err
	}
	w, err := pager.OpenWAL(filepath.Join(dir, walName), opts, func([]byte) error {
		return fmt.Errorf("gir: %s holds write-ahead records but no dataset snapshot — the directory is not recoverable; remove it to start fresh", dir)
	})
	if err != nil {
		return err
	}
	ds.wal = w
	ds.walDir = dir
	ds.dirty = make(map[pager.PageID]struct{})
	return nil
}

// WALStats describes the open write-ahead log: its intact contents plus
// the truncation diagnostics of the open that attached it (see
// pager.WALStats). The tail counters let an operator distinguish a clean
// restart from real loss after Recover: ShortTail flags the benign
// crash-mid-append signature, while TruncatedRecords/CRCFailures count
// fully framed records that had to be discarded.
type WALStats = pager.WALStats

// WALStats reports the open write-ahead log's contents and the tail
// diagnostics recorded when it was opened, for tests and monitoring; the
// zero value is returned when no WAL is attached.
func (ds *Dataset) WALStats() WALStats {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	if ds.wal == nil {
		return WALStats{}
	}
	return ds.wal.Stats()
}

// DeltaStats describes the segments of the durable directory's dataset file
// after its first, full one (see pager.DeltaStats): the ones checkpoints
// appended since the last compaction, and the torn tail the Recover that
// opened the directory dropped (TruncatedBytes).
type DeltaStats = pager.DeltaStats

// DeltaStats is WALStats' sibling for the dataset file's appended
// segments; the zero value is returned when no WAL is attached.
func (ds *Dataset) DeltaStats() DeltaStats {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return ds.delta
}

// applyWALPayload replays one logged mutation during recovery: records
// the snapshot state already covers (version ≤ the dataset's) are skipped,
// the next one is applied to the tree and published to subscribers exactly
// as the original mutation was, and a record that skips a version is an
// error — applying past lost mutations (a damaged dataset file, another
// directory's log) would build a dataset that never existed.
func (ds *Dataset) applyWALPayload(payload []byte) error {
	m, err := walDecode(payload)
	if err != nil {
		return err
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	v := ds.Version()
	if m.Version <= v {
		return nil // the snapshot postdates this record (checkpoint + crash)
	}
	if m.Version != v+1 {
		return fmt.Errorf("gir: write-ahead log continues at version %d but the recovered snapshot state stands at version %d — the mutations between are missing (a damaged %s?); refusing to replay past the gap", m.Version, v, datasetSnapName)
	}
	if len(m.Point) != ds.Dim() {
		return fmt.Errorf("gir: WAL record has dimension %d, dataset has %d", len(m.Point), ds.Dim())
	}
	if ok, _ := ds.applyLocked(m, nil); !ok {
		// The record passed its CRC, so this is real log/snapshot
		// disagreement, not a torn write.
		return fmt.Errorf("gir: WAL replays a delete of record %d the index does not hold", m.ID)
	}
	return nil
}

// checkpointLocked makes dir's dataset file equal the dataset and, when a
// WAL is attached, empties the log every record of which is then covered.
// The caller holds ds.mu exclusively, so no mutation can land between the
// write and the truncate.
//
// With a log attached the cost is what changed, not what exists: the pages
// written since the last checkpoint (ds.dirty) are appended to the dataset
// file as one checksummed segment, and fsynced before the log is reset. The
// file is rewritten whole (rebaseLocked, the compaction step) by one fixed
// rule: when it is missing, when it is shorter than the end of the last
// segment this dataset wrote or recovered, or when the appended segments
// would outgrow the first one — so the bytes written stay within twice the
// bytes dirtied plus one full segment, and recovery reads at most twice it.
func (ds *Dataset) checkpointLocked(dir string) error {
	if ds.wal != nil && filepath.Clean(dir) != ds.walDir {
		return fmt.Errorf("gir: dataset logs to %s; checkpoint there, not %s", ds.walDir, dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if ds.wal == nil {
		return ds.rebaseLocked(dir)
	}
	pages := make([]pager.PageID, 0, len(ds.dirty))
	for id := range ds.dirty {
		pages = append(pages, id)
	}
	slices.Sort(pages)
	meta := ds.metaLocked()
	snap := filepath.Join(dir, datasetSnapName)
	end := ds.base + ds.delta.Bytes
	info, err := os.Stat(snap)
	if err != nil || info.Size() < end || ds.delta.Bytes+pager.SegmentSize(len(meta), len(pages)) > ds.base {
		if err := ds.rebaseLocked(dir); err != nil {
			return err
		}
	} else {
		n, err := pager.AppendSegment(snap, end, meta, ds.store, pages)
		if err != nil {
			return err
		}
		ds.delta.Segments++
		ds.delta.Pages += int64(len(pages))
		ds.delta.Bytes += n
	}
	if err := ds.wal.Reset(); err != nil {
		return err
	}
	clear(ds.dirty)
	return nil
}

// rebaseLocked replaces dir's dataset file with one full segment of the
// current state, atomically: a crash leaves the old file or the new one.
func (ds *Dataset) rebaseLocked(dir string) error {
	n, err := pager.WriteFull(filepath.Join(dir, datasetSnapName), ds.metaLocked(), ds.store)
	if err != nil {
		return err
	}
	ds.base = n
	ds.delta.Segments, ds.delta.Pages, ds.delta.Bytes = 0, 0, 0 // the open's tail diagnostics stay
	return nil
}

// Checkpoint quiesces writers and persists the dataset to dir, then
// truncates the write-ahead log (when one is attached via EnableWAL — dir
// must then be the WAL directory, and only the pages written since the last
// checkpoint are appended; without a log it writes the file whole). A crash
// at any point leaves dir recoverable: a rewrite replaces the file by
// rename, a torn appended segment is dropped on open with the log it would
// have covered still intact, and log records the file already covers are
// skipped by version on replay. Engines with a warm cache should use
// Engine.Checkpoint, which saves the cache in the same quiesced cut.
func (ds *Dataset) Checkpoint(dir string) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.checkpointLocked(dir)
}

// Checkpoint persists the engine's dataset and warm cache to dir as one
// consistent pair, truncating the dataset's write-ahead log on the way
// (Dataset.Checkpoint's steps, then the cache file). It takes the
// dataset's exclusive lock — blocking writers, not readers, for the
// duration — and snapshots both: every write has already reconciled the
// cache, so the saved cache is valid at the saved dataset state. After
// Close followed by a write the cache is behind the dataset, and the
// checkpoint is refused with neither file written.
//
// Both record the dataset version they captured; RecoverEngine loads the
// cache only when its version matches the dataset snapshot state's, so a
// crash between the two writes costs the warm start, never correctness.
func (e *Engine) Checkpoint(dir string) error {
	e.ds.mu.Lock()
	defer e.ds.mu.Unlock()
	if e.cache == nil {
		return e.ds.checkpointLocked(dir)
	}
	snaps, version, err := e.snapshotCacheLocked()
	if err != nil {
		return fmt.Errorf("gir: checkpoint aborted: %w", err)
	}
	if err := e.ds.checkpointLocked(dir); err != nil {
		return err
	}
	return writeCacheSnapshot(filepath.Join(dir, cacheSnapName),
		e.ds.Dim(), e.ds.space, version, snaps)
}

// Recover restores a durable dataset from dir: it loads the dataset file's
// full first segment, applies every intact segment appended after it,
// replays every intact write-ahead record newer than that state, truncates
// any torn final segment or record (the expected shape of a crash
// mid-append — never an error), and leaves the log attached so new
// mutations keep appending. The recovered state is exactly the
// never-crashed dataset that applied the same durable mutation prefix; a
// log that does not continue the file's state version by version is
// refused. What the truncations discarded is reported by ds.WALStats() and
// ds.DeltaStats(), so a clean restart (all tail counters zero) is
// distinguishable from loss.
func Recover(dir string, opts WALOptions) (*Dataset, error) {
	ds, err := openDurable(dir)
	if err != nil {
		return nil, err
	}
	if err := ds.attachWAL(opts); err != nil {
		return nil, err
	}
	return ds, nil
}

// openDurable loads dir's dataset file into a dataset that tracks its dirty
// pages from here on, replay included.
func openDurable(dir string) (*Dataset, error) {
	snap := filepath.Join(dir, datasetSnapName)
	store, meta, base, delta, err := pager.LoadSegments(snap)
	if err != nil {
		return nil, err
	}
	ds, err := attachDataset(store, meta, snap)
	if err != nil {
		return nil, err
	}
	ds.walDir, ds.base, ds.delta = filepath.Clean(dir), base, delta
	ds.dirty = make(map[pager.PageID]struct{})
	return ds, nil
}

// attachWAL opens walDir's log, replaying its tail into the dataset (and
// through any engine already subscribed), and leaves it attached.
func (ds *Dataset) attachWAL(opts WALOptions) error {
	w, err := pager.OpenWAL(filepath.Join(ds.walDir, walName), opts, ds.applyWALPayload)
	if err != nil {
		return err
	}
	ds.wal = w
	return nil
}

// RecoverEngine is Recover plus a warm engine: the cache snapshot written
// by Engine.Checkpoint is restored when it matches the version of the
// snapshot state (a crash between the checkpoint's writes leaves a mismatch,
// which costs the warm start, never correctness), and the write-ahead tail
// is replayed through the engine, whose cache each replayed mutation
// reconciles as it is applied.
func RecoverEngine(dir string, wopts WALOptions, eopts EngineOptions) (*Dataset, *Engine, error) {
	ds, err := openDurable(dir)
	if err != nil {
		return nil, nil, err
	}
	e := NewEngine(ds, eopts)
	if e.cache != nil {
		cachePath := filepath.Join(dir, cacheSnapName)
		if _, err := os.Stat(cachePath); err == nil {
			if err := e.loadCache(cachePath, ds.Version()); err != nil {
				e.Close()
				return nil, nil, err
			}
		}
	}
	if err := ds.attachWAL(wopts); err != nil {
		e.Close()
		return nil, nil, err
	}
	return ds, e, nil
}
