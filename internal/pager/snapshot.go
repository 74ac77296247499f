package pager

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

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

// BaseID is the content identity of a base snapshot. Delta segments name
// the snapshot they apply to by its checksum, and a checkpoint appends one
// only while the file on disk still has the recorded size.
type BaseID struct {
	SrcSize int64  // snapshot file size in bytes
	SrcCRC  uint32 // snapshot whole-file CRC32C (from its header)
}

// SnapshotID reads the content identity of a current-version snapshot — its
// size and the whole-file checksum in its header — without loading the
// pages.
func SnapshotID(path string) (BaseID, error) {
	f, err := os.Open(path)
	if err != nil {
		return BaseID{}, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return BaseID{}, err
	}
	var head [snapshotHeader]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return BaseID{}, fmt.Errorf("pager: %s is not a snapshot: %v", path, err)
	}
	if m, v := binary.LittleEndian.Uint32(head[0:]), binary.LittleEndian.Uint32(head[4:]); m != snapshotMagic || v != snapshotVersion {
		return BaseID{}, fmt.Errorf("pager: %s is not a version-%d snapshot", path, snapshotVersion)
	}
	return BaseID{SrcSize: info.Size(), SrcCRC: binary.LittleEndian.Uint32(head[16:])}, nil
}
