package gir

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"

	cacheint "github.com/girlib/gir/internal/cache"
	"github.com/girlib/gir/internal/domain"
	girint "github.com/girlib/gir/internal/gir"
	"github.com/girlib/gir/internal/pager"
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

// saveLocked writes a full snapshot of the dataset to path — every store
// page plus the metadata block — atomically (temp + fsync + rename). The
// caller holds the writer mutex, so no mutation can land between the
// version it records and the pages it writes.
func (ds *Dataset) saveLocked(path string) error {
	return pager.Snapshot(ds.store, ds.metaLocked(), path)
}

// metaLocked encodes the metadata block a snapshot or delta segment
// carries beside the pages (parseDatasetMeta is its inverse); the caller
// holds the writer mutex.
func (ds *Dataset) metaLocked() []byte {
	root, height, size := ds.tree.Meta()
	meta := make([]byte, 29)
	binary.LittleEndian.PutUint32(meta[0:], uint32(ds.tree.Dim()))
	binary.LittleEndian.PutUint32(meta[4:], uint32(root))
	binary.LittleEndian.PutUint32(meta[8:], uint32(height))
	binary.LittleEndian.PutUint64(meta[12:], uint64(size))
	meta[20] = byte(ds.space)
	binary.LittleEndian.PutUint64(meta[21:], uint64(ds.Version()))
	return meta
}

// datasetMeta decodes the snapshot metadata block: dimension, tree
// geometry, query space, and the mutation version the snapshot captured
// (the replay cursor for write-ahead recovery). Shorter 20/21-byte
// metadata predates the version field, but those files are version-1/2
// snapshots that pager.LoadSnapshot already refuses.
type datasetMeta struct {
	dim, height, size int
	root              pager.PageID
	space             Space
	version           int64
}

func parseDatasetMeta(meta []byte, path string) (datasetMeta, error) {
	if len(meta) != 29 {
		return datasetMeta{}, fmt.Errorf("gir: %s has malformed dataset metadata", path)
	}
	m := datasetMeta{
		dim:     int(binary.LittleEndian.Uint32(meta[0:])),
		root:    pager.PageID(binary.LittleEndian.Uint32(meta[4:])),
		height:  int(binary.LittleEndian.Uint32(meta[8:])),
		size:    int(binary.LittleEndian.Uint64(meta[12:])),
		version: int64(binary.LittleEndian.Uint64(meta[21:])),
	}
	switch Space(meta[20]) {
	case SpaceBox, SpaceSimplex:
		m.space = Space(meta[20])
	default:
		return datasetMeta{}, fmt.Errorf("gir: %s records unknown query space %d", path, meta[20])
	}
	return m, nil
}

// attachDataset publishes a dataset over a loaded store at the state its
// metadata block (read from path) describes.
func attachDataset(store pager.Store, meta []byte, path string) (*Dataset, error) {
	m, err := parseDatasetMeta(meta, path)
	if err != nil {
		return nil, err
	}
	tree := rtree.Attach(store, m.dim, m.root, m.height, m.size)
	ds := &Dataset{tree: tree, store: store, space: m.space}
	ds.publishSnapLocked(m.version, nil)
	return ds, nil
}

// Close syncs and closes the write-ahead log, if one is attached. It is a
// no-op for a dataset without one.
func (ds *Dataset) Close() error {
	if ds.wal == nil {
		return nil
	}
	err := ds.wal.Close()
	ds.wal = nil
	return err
}

// warmCacheMagic heads a warm-cache snapshot file (the trailing byte is a
// format version): a whole-file CRC32C, then dimension, query space and
// the dataset version the snapshot captured. Version 4 stopped storing the
// retained repair state version 3 carried; RecoverEngine starts cold beside
// a file of an earlier version.
var warmCacheMagic = [8]byte{'G', 'I', 'R', 'W', 'A', 'R', 'M', '4'}

// cacheCRC is the Castagnoli table the warm-cache checksum uses (the same
// polynomial as the pager's snapshot and WAL checksums).
var cacheCRC = crc32.MakeTable(crc32.Castagnoli)

// writeCacheSnapshot encodes and atomically writes a warm-cache snapshot:
// magic, CRC32C of everything after it, then dimension, query space, the
// dataset version the entries are reconciled with, and the entries. The
// entries stream through one fixed chunk (pager.SumWriter) and the checksum
// is patched into the header once known — the temp file is not visible at
// path until the rename — so saving costs no buffer the size of the cache.
func writeCacheSnapshot(path string, dim int, space Space, version int64, snaps []cacheint.Snapshot) error {
	return pager.AtomicWriteFile(path, func(f *os.File) error {
		var head [12]byte
		copy(head[:8], warmCacheMagic[:])
		if _, err := f.Write(head[:]); err != nil {
			return err
		}
		w := pager.NewSumWriter(f)
		w.U32(uint32(dim))
		w.U8(byte(space))
		w.U64(uint64(version))
		w.U32(uint32(len(snaps)))
		for i := range snaps {
			encodeCacheEntry(w, &snaps[i])
		}
		sum, err := w.Sum()
		if err != nil {
			return fmt.Errorf("gir: saving cache to %s: %w", path, err)
		}
		binary.LittleEndian.PutUint32(head[8:], sum)
		_, err = f.WriteAt(head[8:], 8)
		return err
	})
}

// snapshotCacheQuiesced captures every cache entry in recency order at a
// moment when no mutation is pending and none can be published: it waits
// for the drain queue to empty while holding the fill lock — the same
// lock mutation publishing and drain-pass completion run under — and
// snapshots inside that critical section. A drain pass only exists while
// its batch is in pending, so an empty queue under invMu means the
// maintenance goroutine is idle and every stamp read is final. Writers that
// arrive meanwhile block on publishing, as they do behind a fill commit.
// The returned version is the dataset version the entries are exactly
// reconciled with (no publish can complete while invMu is held, so the
// read is stable). If the engine was Closed with mutations still queued,
// the drainer is gone and the cache can never catch up: that is an error,
// not a snapshot of stale entries.
func (e *Engine) snapshotCacheQuiesced() ([]cacheint.Snapshot, int64, error) {
	e.invMu.Lock()
	defer e.invMu.Unlock()
	for len(e.pending) > 0 && !e.closed {
		e.invCond.Wait()
	}
	if n := len(e.pending); n > 0 {
		return nil, 0, fmt.Errorf("gir: engine closed with %d mutations unreconciled — the cache is stale and was not saved", n)
	}
	version := e.ds.Version()
	entries := e.cache.inner.Entries()
	sort.Slice(entries, func(i, j int) bool { return entries[i].LastUse() < entries[j].LastUse() })
	snaps := make([]cacheint.Snapshot, len(entries))
	for i, ent := range entries {
		snaps[i] = ent.Snapshot()
	}
	return snaps, version, nil
}

// loadCache restores the warm cache Engine.Checkpoint wrote to path into
// the engine's cache, stamping every entry at the current dataset version;
// RecoverEngine is its one caller. The snapshot must record exactly version,
// the dataset version of the recovered snapshot state: a mismatch is the
// signature of a checkpoint that crashed between its two file writes and
// costs the warm start, nothing else — and so does a file of an earlier
// format, which an upgrade leaves beside unchanged dataset files. A file
// that is no warm-cache snapshot, fails its checksum or was saved at
// another dimension or in another query space is an error: a region
// clipped to one domain is not a certificate over another. Each entry's
// repair state is rebuilt by rerunning its fill's traversal on the dataset,
// one per entry; an entry the dataset cannot answer (k above its size)
// fails the load.
func (e *Engine) loadCache(path string, version int64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) < 12 || !bytes.Equal(data[:8], warmCacheMagic[:]) {
		if len(data) >= 8 && bytes.Equal(data[:7], warmCacheMagic[:7]) && data[7] < warmCacheMagic[7] {
			return nil // an earlier format: skip the warm start
		}
		return fmt.Errorf("gir: %s is not a warm-cache snapshot", path)
	}
	if crc32.Checksum(data[12:], cacheCRC) != binary.LittleEndian.Uint32(data[8:]) {
		return fmt.Errorf("gir: %s fails its checksum — the warm-cache snapshot is corrupt", path)
	}
	dec := cacheDecoder{r: bytes.NewReader(data[12:])}
	dim := int(dec.u32())
	var sb [1]byte
	dec.bytes(sb[:])
	space := Space(sb[0])
	if dec.err == nil && space != SpaceBox && space != SpaceSimplex {
		return fmt.Errorf("gir: %s records unknown query space %d", path, sb[0])
	}
	savedVersion := dec.i64()
	if dec.err == nil && savedVersion != version {
		return nil // torn checkpoint pair: skip the warm start
	}
	if dec.err == nil && dim != e.ds.Dim() {
		return fmt.Errorf("gir: cache snapshot has dimension %d, dataset has %d", dim, e.ds.Dim())
	}
	if dsSpace := e.ds.Space(); dec.err == nil && space != dsSpace {
		return fmt.Errorf("gir: cache snapshot was saved in the %v query space, dataset serves %v — cross-domain loads are refused", space, dsSpace)
	}
	count := int(dec.u32())
	sn := e.ds.pinSnap()
	defer sn.release()
	gs := topk.AcquireGroupScratch(sn.tree)
	defer gs.Release()
	dom := space.domain(dim)
	for i := 0; i < count; i++ {
		s := dec.entry(dim, dom)
		if dec.err != nil {
			break
		}
		cand, bounds, ok, err := sn.repairState(gs, s.Region.Query, s.Records)
		if err != nil {
			return fmt.Errorf("gir: %s entry %d does not fit the dataset: %w", path, i, err)
		}
		e.cache.inner.PutWithBox(s.Region, s.Records, s.InnerLo, s.InnerHi, cand, bounds, ok, sn.version)
	}
	if dec.err != nil {
		return fmt.Errorf("gir: loading cache from %s: %w", path, dec.err)
	}
	return nil
}

// The warm-cache entry encoding (cacheDecoder.entry is its inverse):
// little-endian fields, every vector length-prefixed.

func encodeVec(w *pager.SumWriter, v vec.Vector) {
	w.U32(uint32(len(v)))
	for _, x := range v {
		w.U64(math.Float64bits(x))
	}
}

func encodeRecs(w *pager.SumWriter, recs []topk.Record) {
	w.U32(uint32(len(recs)))
	for _, r := range recs {
		w.U64(uint64(r.ID))
		encodeVec(w, r.Point)
		w.U64(math.Float64bits(r.Score))
	}
}

func encodeBool(w *pager.SumWriter, v bool) {
	var b byte
	if v {
		b = 1
	}
	w.U8(b)
}

func encodeCacheEntry(w *pager.SumWriter, s *cacheint.Snapshot) {
	encodeVec(w, s.Region.Query)
	encodeBool(w, s.Region.OrderSensitive)
	w.U32(uint32(len(s.Region.Constraints)))
	for _, c := range s.Region.Constraints {
		encodeVec(w, c.Normal)
		w.U8(byte(c.Kind))
		w.U64(uint64(c.A))
		w.U64(uint64(c.B))
	}
	encodeRecs(w, s.Records)
	encodeVec(w, s.InnerLo)
	encodeVec(w, s.InnerHi)
	w.U64(uint64(s.Version))
}

// cacheDecoder reads what encodeCacheEntry and writeCacheSnapshot write.
type cacheDecoder struct {
	r   io.Reader
	err error
}

// maxCacheSlice bounds any decoded slice length: corrupt or truncated
// snapshots must fail, not allocate unboundedly.
const maxCacheSlice = 1 << 24

func (d *cacheDecoder) bytes(b []byte) {
	if d.err == nil {
		_, d.err = io.ReadFull(d.r, b)
	}
}

func (d *cacheDecoder) u32() uint32 {
	var b [4]byte
	d.bytes(b[:])
	return binary.LittleEndian.Uint32(b[:])
}

func (d *cacheDecoder) i64() int64 {
	var b [8]byte
	d.bytes(b[:])
	return int64(binary.LittleEndian.Uint64(b[:]))
}

func (d *cacheDecoder) f64() float64 {
	return math.Float64frombits(uint64(d.i64()))
}

func (d *cacheDecoder) count(what string) int {
	n := d.u32()
	if d.err == nil && n > maxCacheSlice {
		d.err = fmt.Errorf("%s count %d exceeds sanity bound", what, n)
	}
	return int(n)
}

func (d *cacheDecoder) vec() vec.Vector {
	n := d.count("vector")
	if d.err != nil {
		return nil
	}
	v := make(vec.Vector, n)
	for i := range v {
		v[i] = d.f64()
	}
	return v
}

func (d *cacheDecoder) bool() bool {
	var b [1]byte
	d.bytes(b[:])
	return b[0] != 0
}

// dimVec decodes a vector and rejects any dimension other than dim: a
// corrupt length prefix must fail the load, not half-restore entries
// whose first lookup would panic on a mismatched dot product.
func (d *cacheDecoder) dimVec(dim int, what string) vec.Vector {
	v := d.vec()
	if d.err == nil && len(v) != dim {
		d.err = fmt.Errorf("%s has dimension %d, want %d", what, len(v), dim)
	}
	return v
}

func (d *cacheDecoder) dimRec(dim int, what string) topk.Record {
	var r topk.Record
	r.ID = d.i64()
	r.Point = d.dimVec(dim, what)
	r.Score = d.f64()
	return r
}

func (d *cacheDecoder) entry(dim int, dom domain.Domain) cacheint.Snapshot {
	var s cacheint.Snapshot
	reg := &girint.Region{Dim: dim, Domain: dom}
	reg.Query = d.dimVec(dim, "entry query")
	reg.OrderSensitive = d.bool()
	nc := d.count("constraint")
	for i := 0; i < nc && d.err == nil; i++ {
		var c girint.Constraint
		c.Normal = d.dimVec(dim, "constraint normal")
		var kind [1]byte
		d.bytes(kind[:])
		c.Kind = girint.ConstraintKind(kind[0])
		c.A = d.i64()
		c.B = d.i64()
		reg.Constraints = append(reg.Constraints, c)
	}
	s.Region = reg
	nr := d.count("record")
	for i := 0; i < nr && d.err == nil; i++ {
		s.Records = append(s.Records, d.dimRec(dim, "record point"))
	}
	s.InnerLo = d.dimVec(dim, "inscribed-box corner")
	s.InnerHi = d.dimVec(dim, "inscribed-box corner")
	s.Version = d.i64()
	return s
}
