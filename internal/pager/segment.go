package pager

import (
	"bufio"
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
// one. Every whole-file writer in this module goes through here.
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

// SumWriter is the streaming encoder behind every checksummed file this
// module writes (segment files, warm-cache snapshots): fields are appended
// little-endian to one fixed chunk, and a full chunk is folded into a
// running CRC32C and written out, so encoding costs one chunk of memory
// whatever the file's size. Errors are sticky and surface from Sum.
type SumWriter struct {
	w   io.Writer
	buf []byte
	sum uint32
	err error
}

// sumChunk is the fill at which a SumWriter writes its buffer out.
const sumChunk = 32 << 10

// NewSumWriter returns a SumWriter that writes sequentially to w.
func NewSumWriter(w io.Writer) *SumWriter {
	return &SumWriter{w: w, buf: make([]byte, 0, sumChunk+PageSize)}
}

// tail returns the buffer to append at most PageSize bytes to, after
// writing it out if it reached the chunk size.
func (s *SumWriter) tail() []byte {
	if len(s.buf) >= sumChunk {
		s.Sum()
	}
	return s.buf
}

// U8, U32 and U64 append one little-endian field.
func (s *SumWriter) U8(v byte)    { s.buf = append(s.tail(), v) }
func (s *SumWriter) U32(v uint32) { s.buf = binary.LittleEndian.AppendUint32(s.tail(), v) }
func (s *SumWriter) U64(v uint64) { s.buf = binary.LittleEndian.AppendUint64(s.tail(), v) }

// Bytes appends p verbatim.
func (s *SumWriter) Bytes(p []byte) {
	for ; len(p) > PageSize; p = p[PageSize:] {
		s.buf = append(s.tail(), p[:PageSize]...)
	}
	s.buf = append(s.tail(), p...)
}

// Page appends a store page zero-padded to PageSize (stores keep short
// pages short; files hold them whole).
func (s *SumWriter) Page(p []byte) {
	s.Bytes(p)
	s.Bytes(zeroPage[:PageSize-len(p)])
}

var zeroPage [PageSize]byte

// Sum writes out what is buffered and returns the CRC32C of every byte
// appended so far, or the first write error.
func (s *SumWriter) Sum() (uint32, error) {
	if s.err == nil && len(s.buf) > 0 {
		s.sum = crc32.Update(s.sum, walCRC, s.buf)
		_, s.err = s.w.Write(s.buf)
	}
	s.buf = s.buf[:0]
	return s.sum, s.err
}

// --- segment files ----------------------------------------------------------

// A segment file persists a store as a sequence of self-checksummed
// segments. The first carries every page and is only ever written whole, by
// an atomic replace (WriteFull); each later one carries the pages written
// since the segment before it (AppendSegment). The segments applied in
// order — later pages overwrite earlier, metadata comes from the last — are
// the store at the last segment, written at the cost of what changed.
//
// Segment layout (little endian):
//
//	[4] magic "GIRD"
//	[4] metadata length m
//	[4] store page count
//	[4] number of pages n
//	[m] caller metadata
//	n × ( [4] page id, [PageSize] page bytes )
//	[4] CRC32C of everything above
//
// The first segment must be intact and carry pages 1…count in order, or the
// file is refused. A later segment is valid iff it is fully present and its
// checksum matches; scanning stops at the first that is not, and a torn
// final append is truncated on open exactly like a torn log tail.
const (
	segmentMagic  = 0x47495244 // "GIRD"
	segmentHeader = 16
)

// SegmentSize is the exact size of a segment with the given metadata
// length and page count — what a caller's compaction rule budgets with.
func SegmentSize(metaLen, pages int) int64 {
	return segmentHeader + int64(metaLen) + int64(pages)*(4+PageSize) + 4
}

// DeltaStats describes the segments of a segment file after the first: the
// intact ones, plus what the open that applied them had to drop.
type DeltaStats struct {
	Segments int64 // intact segments after the first
	Pages    int64 // pages those segments carry
	Bytes    int64 // bytes those segments occupy

	TruncatedBytes int64 // bytes dropped past the last applied segment
}

// writeSegment streams one segment — meta, the store's page count and the
// current bytes of the given pages — to w.
func writeSegment(w io.Writer, meta []byte, store Store, pages []PageID) error {
	sw := NewSumWriter(w)
	for _, v := range []uint32{segmentMagic, uint32(len(meta)), uint32(store.NumPages()), uint32(len(pages))} {
		sw.U32(v)
	}
	sw.Bytes(meta)
	for _, id := range pages {
		sw.U32(uint32(id))
		sw.Page(store.Read(id))
	}
	sum, _ := sw.Sum()
	sw.U32(sum)
	_, err := sw.Sum()
	return err
}

// WriteFull atomically replaces the file at path with a one-segment file
// carrying every page of store, and returns its size. A crash leaves the
// old file or the new one.
func WriteFull(path string, meta []byte, store Store) (int64, error) {
	pages := make([]PageID, store.NumPages())
	for i := range pages {
		pages[i] = PageID(i + 1)
	}
	err := AtomicWriteFile(path, func(f *os.File) error { return writeSegment(f, meta, store, pages) })
	if err != nil {
		return 0, err
	}
	return SegmentSize(len(meta), len(pages)), nil
}

// AppendSegment writes one segment holding the given pages at offset at of
// the segment file at path and fsyncs it. at is the end of the last intact
// segment, so the debris of a failed earlier append is overwritten. It
// returns the segment's size.
func AppendSegment(path string, at int64, meta []byte, store Store, pages []PageID) (int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if err := writeSegment(io.NewOffsetWriter(f, at), meta, store, pages); err != nil {
		return 0, err
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	return SegmentSize(len(meta), len(pages)), f.Close()
}

// LoadSegments reads the segment file at path into a fresh MemStore. The
// first segment is streamed page by page into the store and verified
// against its checksum at the end; a file whose first segment is missing,
// cut short, corrupt or not a full one fails with a clean error. Every
// intact later segment is then applied in order — only once its checksum
// verified, so a torn one changes nothing — and the file is truncated after
// the last. It returns the last applied segment's metadata, the first
// segment's size, and what the later segments applied and the truncation
// dropped.
func LoadSegments(path string) (store *MemStore, meta []byte, base int64, st DeltaStats, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, nil, 0, st, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, nil, 0, st, err
	}
	size := info.Size()
	store, meta, base, err = loadFirstSegment(bufio.NewReaderSize(f, sumChunk), size, path)
	if err != nil {
		return nil, nil, 0, st, err
	}
	var head [segmentHeader]byte
	var seg []byte
	end := base
	for {
		if _, err := f.ReadAt(head[:], end); err != nil {
			break // clean end, or a torn header
		}
		metaLen, n := int(binary.LittleEndian.Uint32(head[4:])), int(binary.LittleEndian.Uint32(head[12:]))
		segLen := SegmentSize(metaLen, n)
		if binary.LittleEndian.Uint32(head[0:]) != segmentMagic || segLen > size-end {
			break // not a segment, or one cut short
		}
		if int64(cap(seg)) < segLen {
			seg = make([]byte, segLen)
		}
		seg = seg[:segLen]
		if _, err := f.ReadAt(seg, end); err != nil {
			return nil, nil, 0, st, err
		}
		body := seg[:segLen-4]
		if crc32.Checksum(body, walCRC) != binary.LittleEndian.Uint32(seg[segLen-4:]) {
			break
		}
		// Past its checksum, a bad page id is a format error, not a torn write.
		count := int(binary.LittleEndian.Uint32(head[8:]))
		for store.NumPages() < count {
			store.Alloc()
		}
		meta = append(meta[:0], body[segmentHeader:segmentHeader+metaLen]...)
		for p := body[segmentHeader+metaLen:]; len(p) > 0; p = p[4+PageSize:] {
			id := PageID(binary.LittleEndian.Uint32(p))
			if id == 0 || int(id) > count {
				return nil, nil, 0, st, fmt.Errorf("pager: %s carries page %d of a %d-page store", path, id, count)
			}
			store.Write(id, p[4:4+PageSize])
		}
		st.Segments, st.Pages, st.Bytes = st.Segments+1, st.Pages+int64(n), st.Bytes+segLen
		end += segLen
	}
	if st.TruncatedBytes = size - end; st.TruncatedBytes > 0 {
		if err := f.Truncate(end); err != nil {
			return nil, nil, 0, st, err
		}
		if err := f.Sync(); err != nil {
			return nil, nil, 0, st, err
		}
	}
	store.ResetStats()
	return store, meta, base, st, nil
}

// loadFirstSegment streams the first segment of a size-byte file from r
// into a fresh store, one page at a time, and returns its metadata and size.
func loadFirstSegment(r io.Reader, size int64, path string) (*MemStore, []byte, int64, error) {
	var head [segmentHeader]byte
	if _, err := io.ReadFull(r, head[:]); err != nil || binary.LittleEndian.Uint32(head[0:]) != segmentMagic {
		return nil, nil, 0, fmt.Errorf("pager: %s does not begin with a segment", path)
	}
	metaLen := int(binary.LittleEndian.Uint32(head[4:]))
	count, n := int(binary.LittleEndian.Uint32(head[8:])), int(binary.LittleEndian.Uint32(head[12:]))
	segLen := SegmentSize(metaLen, n)
	if n != count {
		return nil, nil, 0, fmt.Errorf("pager: %s begins with a segment of %d of %d pages, not a full one", path, n, count)
	}
	if segLen > size {
		return nil, nil, 0, fmt.Errorf("pager: %s is cut short inside its first segment (%d of %d bytes)", path, size, segLen)
	}
	readErr := func(err error) error { return fmt.Errorf("pager: reading the first segment of %s: %w", path, err) }
	sum := crc32.Checksum(head[:], walCRC)
	meta := make([]byte, metaLen)
	rec := make([]byte, 4+PageSize)
	if _, err := io.ReadFull(r, meta); err != nil {
		return nil, nil, 0, readErr(err)
	}
	sum = crc32.Update(sum, walCRC, meta)
	store := NewMemStore()
	for i := 1; i <= n; i++ {
		if _, err := io.ReadFull(r, rec); err != nil {
			return nil, nil, 0, readErr(err)
		}
		sum = crc32.Update(sum, walCRC, rec)
		if id := PageID(binary.LittleEndian.Uint32(rec)); id != store.Alloc() {
			return nil, nil, 0, fmt.Errorf("pager: %s carries page %d where its first segment needs page %d", path, id, i)
		}
		store.Write(PageID(i), rec[4:])
	}
	if _, err := io.ReadFull(r, rec[:4]); err != nil {
		return nil, nil, 0, readErr(err)
	}
	if want := binary.LittleEndian.Uint32(rec); sum != want {
		return nil, nil, 0, fmt.Errorf("pager: %s fails the checksum of its first segment (stored %08x, computed %08x): the file is corrupt", path, want, sum)
	}
	return store, meta, segLen, nil
}
