package gir

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"github.com/girlib/gir/internal/pager"
)

// WALOptions tunes the write-ahead log's durability/latency trade; see
// pager.WALOptions. The zero value fsyncs every mutation (SyncEvery = 1):
// an Insert or Delete that returned is durable.
type WALOptions = pager.WALOptions

// A durable directory holds the snapshot + log pair Recover restores
// from. Engine.Checkpoint adds the warm-cache snapshot alongside.
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
// renaming the new snapshot and truncating the log leaves records the
// snapshot already covers, and Recover skips them by version instead of
// applying them twice.
func walEncode(m mutation) []byte {
	buf := make([]byte, 8+1+8+4+8*len(m.point))
	binary.LittleEndian.PutUint64(buf[0:], uint64(m.version))
	if m.insert {
		buf[8] = 1
	}
	binary.LittleEndian.PutUint64(buf[9:], uint64(m.id))
	binary.LittleEndian.PutUint32(buf[17:], uint32(len(m.point)))
	for i, x := range m.point {
		binary.LittleEndian.PutUint64(buf[21+8*i:], math.Float64bits(x))
	}
	return buf
}

// walDecode parses a payload produced by walEncode. The payload has
// already passed the log's CRC, so a malformed record here means a real
// format error, not a torn write.
func walDecode(payload []byte) (mutation, error) {
	if len(payload) < 21 {
		return mutation{}, fmt.Errorf("gir: WAL record of %d bytes is shorter than any mutation", len(payload))
	}
	m := mutation{
		version: int64(binary.LittleEndian.Uint64(payload[0:])),
		insert:  payload[8] == 1,
		id:      int64(binary.LittleEndian.Uint64(payload[9:])),
	}
	if payload[8] > 1 {
		return mutation{}, fmt.Errorf("gir: WAL record has unknown op %d", payload[8])
	}
	d := int(binary.LittleEndian.Uint32(payload[17:]))
	if len(payload) != 21+8*d {
		return mutation{}, fmt.Errorf("gir: WAL record declares dimension %d but holds %d bytes", d, len(payload))
	}
	m.point = make([]float64, d)
	for i := range m.point {
		m.point[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[21+8*i:]))
	}
	return m, nil
}

// EnableWAL makes the dataset's mutations crash-safe: a base snapshot of
// the current state is written to dir, and from this call on every
// Insert/Delete appends a checksummed record to dir's write-ahead log
// before the mutation becomes visible, fsynced per opts.SyncEvery. After
// a crash, gir.Recover(dir) restores the snapshot and replays the log.
// Checkpoint compacts the pair (fresh snapshot, empty log).
//
// dir must not already hold a durable dataset — recover or remove it
// first; two live datasets logging to one directory would interleave
// their records.
func (ds *Dataset) EnableWAL(dir string, opts WALOptions) error {
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
	if err := ds.saveLocked(snap); err != nil {
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

// applyWALPayload replays one logged mutation during recovery: records
// the snapshot already covers (version ≤ the snapshot's) are skipped, the
// rest are applied to the tree and published to subscribers exactly as
// the original mutation was.
func (ds *Dataset) applyWALPayload(payload []byte) error {
	m, err := walDecode(payload)
	if err != nil {
		return err
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if m.version <= ds.Version() {
		return nil // the snapshot postdates this record (checkpoint + crash)
	}
	if len(m.point) != ds.tree.Dim() {
		return fmt.Errorf("gir: WAL record has dimension %d, dataset has %d", len(m.point), ds.tree.Dim())
	}
	if !ds.applyLocked(m) {
		// The record passed its CRC, so this is real log/snapshot
		// disagreement, not a torn write.
		return fmt.Errorf("gir: WAL replays a delete of record %d the index does not hold", m.id)
	}
	return nil
}

// checkpointLocked writes the dataset snapshot for dir and, when a WAL is
// attached, truncates the log — every logged mutation is now covered by
// the durable snapshot. The caller holds ds.mu exclusively, so no
// mutation can land between the snapshot and the truncate.
func (ds *Dataset) checkpointLocked(dir string) error {
	if ds.wal != nil && dir != ds.walDir {
		return fmt.Errorf("gir: dataset logs to %s; checkpoint there, not %s", ds.walDir, dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := ds.saveLocked(filepath.Join(dir, datasetSnapName)); err != nil {
		return err
	}
	if ds.wal != nil {
		return ds.wal.Reset()
	}
	return nil
}

// Checkpoint quiesces writers and persists the dataset to dir as one
// atomic snapshot, then truncates the write-ahead log (when one is
// attached via EnableWAL — dir must then be the WAL directory). A crash
// at any point leaves dir recoverable: the snapshot is replaced by
// rename, and log records the new snapshot already covers are skipped by
// version on replay. Engines with a warm cache should use
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
// duration — waits for every published mutation to be reconciled with the
// cache, and only then snapshots both: the saved cache is exactly the
// cache a fresh engine over the saved dataset state would serve.
//
// Both files are replaced atomically and record the dataset version they
// captured; RecoverEngine loads the cache only when its version matches
// the dataset snapshot's, so a crash between the two writes costs the
// warm start, never correctness.
func (e *Engine) Checkpoint(dir string) error {
	e.ds.mu.Lock()
	defer e.ds.mu.Unlock()
	if e.cache == nil {
		return e.ds.checkpointLocked(dir)
	}
	snaps, version, err := e.snapshotCacheQuiesced()
	if err != nil {
		return fmt.Errorf("gir: checkpoint aborted: %w", err)
	}
	if err := e.ds.checkpointLocked(dir); err != nil {
		return err
	}
	return writeCacheSnapshot(filepath.Join(dir, cacheSnapName),
		e.ds.tree.Dim(), e.ds.space, version, snaps)
}

// Recover restores a durable dataset from dir: it loads the snapshot,
// replays every intact write-ahead record newer than it, truncates any
// torn final record (the expected shape of a crash mid-append — never an
// error), and leaves the log attached so new mutations keep appending.
// The recovered state is exactly the never-crashed dataset that applied
// the same durable mutation prefix. What the truncation discarded — bytes,
// framable records, and whether the cause was checksum corruption or an
// ordinary half-written final frame — is reported by ds.WALStats(), so a
// clean restart (all tail counters zero) is distinguishable from loss.
func Recover(dir string, opts WALOptions) (*Dataset, error) {
	ds, err := Open(filepath.Join(dir, datasetSnapName))
	if err != nil {
		return nil, err
	}
	w, err := pager.OpenWAL(filepath.Join(dir, walName), opts, ds.applyWALPayload)
	if err != nil {
		return nil, err
	}
	ds.wal = w
	ds.walDir = dir
	return ds, nil
}

// RecoverEngine is Recover plus a warm engine: the cache snapshot written
// by Engine.Checkpoint is restored when it matches the dataset snapshot's
// version (a crash between the pair's two writes leaves a mismatch, which
// costs the warm start, never correctness), and the write-ahead tail is
// replayed through the engine's mutation pipeline so the cache is
// reconciled with every recovered mutation before the first query.
func RecoverEngine(dir string, wopts WALOptions, eopts EngineOptions) (*Dataset, *Engine, error) {
	ds, err := Open(filepath.Join(dir, datasetSnapName))
	if err != nil {
		return nil, nil, err
	}
	e := NewEngine(ds, eopts)
	if e.cache != nil {
		cachePath := filepath.Join(dir, cacheSnapName)
		if _, err := os.Stat(cachePath); err == nil {
			if err := e.loadCacheAtVersion(cachePath, ds.Version()); err != nil {
				e.Close()
				return nil, nil, err
			}
		}
	}
	w, err := pager.OpenWAL(filepath.Join(dir, walName), wopts, ds.applyWALPayload)
	if err != nil {
		e.Close()
		return nil, nil, err
	}
	ds.wal = w
	ds.walDir = dir
	e.Quiesce() // reconcile the replayed tail with the warm cache
	return ds, e, nil
}
