package pager

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// FileStore is a Store backed by a real file: every Read is an actual
// pread of a 4 KiB page (and is counted, like MemStore). It exists for
// persistence — build an index once with girgen/BulkLoad, save it, and
// reopen it across runs — and for running the experiments against a real
// filesystem instead of the simulated disk.
//
// Layout: page i lives at byte offset (i−1)·PageSize. Sparse/short pages
// are zero-padded on write.
//
// Reads use positional pread (safe to issue concurrently) under a shared
// lock, so parallel query traversals do not serialize on the store.
type FileStore struct {
	mu     sync.RWMutex
	f      *os.File
	pages  int
	free   []PageID // freed ids awaiting reuse (LIFO); not persisted
	reads  atomic.Int64
	writes atomic.Int64
}

// CreateFileStore creates (or truncates) the file at path.
func CreateFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &FileStore{f: f}, nil
}

// OpenFileStore opens an existing page file.
func OpenFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if info.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("pager: %s size %d is not a multiple of the page size", path, info.Size())
	}
	return &FileStore{f: f, pages: int(info.Size() / PageSize)}, nil
}

// Close releases the underlying file.
func (s *FileStore) Close() error { return s.f.Close() }

// Sync flushes the file to stable storage.
func (s *FileStore) Sync() error { return s.f.Sync() }

// Alloc implements Store.
func (s *FileStore) Alloc() PageID {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.free); n > 0 {
		id := s.free[n-1]
		s.free = s.free[:n-1]
		return id
	}
	s.pages++
	return PageID(s.pages)
}

// Free implements Store. The file is not shrunk or scrubbed — the page's
// bytes stay readable until a reuse overwrites them. The freelist is
// in-memory only: ids freed before a crash simply leak in the reopened
// file (a snapshot-and-replay recovery rebuilds a compact store anyway).
func (s *FileStore) Free(id PageID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id == 0 || int(id) > s.pages {
		panic(fmt.Sprintf("pager: free of unallocated page %d", id))
	}
	s.free = append(s.free, id)
}

// Write implements Store.
func (s *FileStore) Write(id PageID, data []byte) {
	if len(data) > PageSize {
		panic(fmt.Sprintf("pager: page overflow: %d bytes", len(data)))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if id == 0 || int(id) > s.pages {
		panic(fmt.Sprintf("pager: write to unallocated page %d", id))
	}
	buf := make([]byte, PageSize)
	copy(buf, data)
	if _, err := s.f.WriteAt(buf, int64(id-1)*PageSize); err != nil {
		panic(fmt.Sprintf("pager: write page %d: %v", id, err))
	}
	s.writes.Add(1)
}

// Read implements Store.
func (s *FileStore) Read(id PageID) []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if id == 0 || int(id) > s.pages {
		panic(fmt.Sprintf("pager: read of unallocated page %d", id))
	}
	buf := make([]byte, PageSize)
	if _, err := s.f.ReadAt(buf, int64(id-1)*PageSize); err != nil && err != io.EOF {
		panic(fmt.Sprintf("pager: read page %d: %v", id, err))
	}
	s.reads.Add(1)
	return buf
}

// NumPages implements Store.
func (s *FileStore) NumPages() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.pages
}

// Stats implements Store.
func (s *FileStore) Stats() Stats {
	return Stats{Reads: s.reads.Load(), Writes: s.writes.Load()}
}

// ResetStats implements Store.
func (s *FileStore) ResetStats() {
	s.reads.Store(0)
	s.writes.Store(0)
}

// --- atomic file replacement ------------------------------------------------

// AtomicWriteFile durably replaces the file at path: write writes the new
// contents into a uniquely named temp file in the same directory, which is
// then fsynced and renamed over path (and the directory fsynced so the
// rename itself is durable). A crash at any point leaves either the old
// complete file or the new complete file — never a truncated or partial
// one. Every snapshot writer in this module goes through here.
func AtomicWriteFile(path string, write func(f *os.File) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	cleanup := func() {
		tmp.Close()
		os.Remove(tmp.Name())
	}
	if err := write(tmp); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	syncDir(dir) // make the rename durable
	return nil
}

// syncDir fsyncs a directory so a rename or creation inside it is durable.
// Directory fsync is advisory on platforms that do not support it, so its
// failure is not fatal.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// --- snapshotting -----------------------------------------------------------

// snapshot header: magic, version, page count, metadata length, checksum,
// then metadata supplied by the caller (the R-tree's root/height/size/dim),
// then the pages.
const (
	snapshotMagic = 0x47495250 // "GIRP"
	// snapshotVersion 2 changed the leaf-page record layout from
	// row-major to column-major; version 3 added the whole-file CRC32C
	// (over metadata + pages) and atomic temp+fsync+rename replacement.
	// Version-1 snapshots hold pages the current decoder would silently
	// misread (coordinate bits as record IDs) and version-2 snapshots
	// carry no checksum, so any other version is refused, not migrated: a
	// loadable snapshot is always verifiable.
	snapshotVersion = 3
	snapshotHeader  = 20 // magic, version, page count, meta length, CRC32C
)

// Snapshot writes the full content of any Store plus caller metadata to a
// file, so an index built in memory can be persisted. The write is atomic
// (temp + fsync + rename): a crash mid-save never corrupts or truncates a
// previous snapshot at path. The header carries a CRC32C over metadata and
// pages, so LoadSnapshot detects bit rot as well as truncation.
func Snapshot(store Store, meta []byte, path string) error {
	return AtomicWriteFile(path, func(f *os.File) error {
		var head [snapshotHeader]byte
		binary.LittleEndian.PutUint32(head[0:], snapshotMagic)
		binary.LittleEndian.PutUint32(head[4:], snapshotVersion)
		binary.LittleEndian.PutUint32(head[8:], uint32(store.NumPages()))
		binary.LittleEndian.PutUint32(head[12:], uint32(len(meta)))
		if _, err := f.Write(head[:]); err != nil {
			return err
		}
		sw := NewSumWriter(f)
		sw.Bytes(meta)
		for id := 1; id <= store.NumPages(); id++ {
			sw.Page(store.Read(PageID(id)))
		}
		sum, err := sw.Sum()
		if err != nil {
			return err
		}
		// Patch the checksum into the header now that it is known; the
		// temp file is not visible at path until the rename.
		binary.LittleEndian.PutUint32(head[16:], sum)
		_, err = f.WriteAt(head[16:20], 16)
		return err
	})
}

// LoadSnapshot reads a Snapshot file into a fresh MemStore, returning the
// caller metadata. Truncation and corruption both fail with a clean error:
// the page section is verified against the header's CRC32C before any page
// is served.
func LoadSnapshot(path string) (*MemStore, []byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	head := make([]byte, snapshotHeader)
	if _, err := io.ReadFull(f, head); err != nil {
		return nil, nil, fmt.Errorf("pager: %s is not a snapshot file (truncated header)", path)
	}
	if binary.LittleEndian.Uint32(head[0:]) != snapshotMagic {
		return nil, nil, fmt.Errorf("pager: %s is not a snapshot file", path)
	}
	if v := binary.LittleEndian.Uint32(head[4:]); v != snapshotVersion {
		return nil, nil, fmt.Errorf("pager: %s has unsupported snapshot version %d; this build reads only version %d (the column-major leaf layout with a whole-file checksum) — rebuild the index and save a new snapshot", path, v, snapshotVersion)
	}
	nPages := int(binary.LittleEndian.Uint32(head[8:]))
	metaLen := int(binary.LittleEndian.Uint32(head[12:]))
	wantSum := binary.LittleEndian.Uint32(head[16:])
	meta := make([]byte, metaLen)
	if _, err := io.ReadFull(f, meta); err != nil {
		return nil, nil, fmt.Errorf("pager: %s has a truncated metadata block: %v", path, err)
	}
	sum := crc32.Checksum(meta, walCRC)
	store := NewMemStore()
	page := make([]byte, PageSize)
	for i := 0; i < nPages; i++ {
		if _, err := io.ReadFull(f, page); err != nil {
			return nil, nil, fmt.Errorf("pager: truncated snapshot at page %d: %v", i+1, err)
		}
		sum = crc32.Update(sum, walCRC, page)
		id := store.Alloc()
		store.Write(id, page)
	}
	if sum != wantSum {
		return nil, nil, fmt.Errorf("pager: %s fails its checksum (stored %08x, computed %08x): the snapshot is corrupt", path, wantSum, sum)
	}
	store.ResetStats()
	return store, meta, nil
}

// --- page-file sidecars -----------------------------------------------------

// A sidecar is the page-aligned rewrite of a snapshot that OpenOnDisk
// serves real file reads from. Its last page is an identity trailer naming
// the source snapshot (size + content checksum) and the page count, so a
// later open of the same snapshot can reuse the sidecar instead of
// rewriting it — and a sidecar left behind by a crash or by a concurrent
// opener is never mistaken for one derived from a different snapshot.
// Identity is content-based (the snapshot's own CRC32C), not mtime-based:
// two same-size snapshots written within one mtime tick must not alias.
const sidecarMagic = 0x47495253 // "GIRS"

// SidecarID identifies the snapshot a sidecar was derived from.
type SidecarID struct {
	SrcSize int64  // source snapshot file size in bytes
	SrcCRC  uint32 // source snapshot whole-file CRC32C (from its header)
}

// sidecarTrailer encodes the identity page appended after the data pages.
func sidecarTrailer(id SidecarID, pages int) []byte {
	t := make([]byte, PageSize)
	binary.LittleEndian.PutUint32(t[0:], sidecarMagic)
	binary.LittleEndian.PutUint64(t[4:], uint64(id.SrcSize))
	binary.LittleEndian.PutUint32(t[12:], id.SrcCRC)
	binary.LittleEndian.PutUint32(t[16:], uint32(pages))
	return t
}

// SnapshotID reads the content identity of a current-version snapshot — its
// size and the whole-file checksum in its header — without loading the
// pages. Sidecars and delta segments name the snapshot they derive from by it.
func SnapshotID(path string) (SidecarID, error) {
	f, err := os.Open(path)
	if err != nil {
		return SidecarID{}, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return SidecarID{}, err
	}
	var head [snapshotHeader]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return SidecarID{}, fmt.Errorf("pager: %s is not a snapshot: %v", path, err)
	}
	if m, v := binary.LittleEndian.Uint32(head[0:]), binary.LittleEndian.Uint32(head[4:]); m != snapshotMagic || v != snapshotVersion {
		return SidecarID{}, fmt.Errorf("pager: %s is not a version-%d snapshot", path, snapshotVersion)
	}
	return SidecarID{SrcSize: info.Size(), SrcCRC: binary.LittleEndian.Uint32(head[16:])}, nil
}

// AttachSidecar opens the sidecar at path if it is a complete rewrite of
// the snapshot identified by id with the given page count; ok is false
// (and the store nil) when the file is missing, truncated, or derived
// from a different snapshot — the caller then rebuilds with CreateSidecar.
func AttachSidecar(path string, id SidecarID, pages int) (*FileStore, bool) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, false
	}
	info, err := f.Stat()
	if err != nil || info.Size() != int64(pages+1)*PageSize {
		f.Close()
		return nil, false
	}
	trailer := make([]byte, PageSize)
	if _, err := f.ReadAt(trailer, int64(pages)*PageSize); err != nil {
		f.Close()
		return nil, false
	}
	want := sidecarTrailer(id, pages)
	for i := range trailer {
		if trailer[i] != want[i] {
			f.Close()
			return nil, false
		}
	}
	return &FileStore{f: f, pages: pages}, true
}

// CreateSidecar rewrites the pages of src into a fresh sidecar at path:
// the data pages, then the identity trailer, built under a unique temp
// name and renamed into place once complete — a concurrent opener of the
// same snapshot either attaches to a complete sidecar or builds its own,
// never reads a half-written one. The returned store reads from the
// renamed file.
func CreateSidecar(path string, src Store, id SidecarID) (*FileStore, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return nil, err
	}
	fs := &FileStore{f: tmp}
	fail := func(err error) (*FileStore, error) {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, err
	}
	for pid := 1; pid <= src.NumPages(); pid++ {
		fid := fs.Alloc()
		fs.Write(fid, src.Read(PageID(pid)))
	}
	if _, err := tmp.WriteAt(sidecarTrailer(id, fs.pages), int64(fs.pages)*PageSize); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fail(err)
	}
	fs.ResetStats()
	return fs, nil
}
