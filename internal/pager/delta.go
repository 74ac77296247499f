package pager

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// SumWriter is the streaming encoder behind every checksummed file this
// module writes (snapshots, delta segments, warm-cache snapshots): fields
// are appended little-endian to one fixed chunk, and a full chunk is folded
// into a running CRC32C and written out, so encoding costs one chunk of
// memory whatever the file's size. Errors are sticky and surface from Sum.
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

// A delta file extends a base snapshot with the pages written since, as a
// sequence of self-checksummed segments. Base + every segment in order
// (later pages overwrite earlier; metadata comes from the last) is the store
// at the last segment, written at the cost of what changed.
//
// Segment layout (little endian):
//
//	[4] magic "GIRD"
//	[4] CRC32C of the base snapshot the segment extends (the base header's)
//	[4] metadata length m
//	[4] store page count
//	[4] number of pages n
//	[m] caller metadata
//	n × ( [4] page id, [PageSize] page bytes )
//	[4] CRC32C of everything above
//
// A segment is valid iff it is fully present, its checksum matches and it
// names the base beside it. Scanning stops at the first that is not: a torn
// final append, and the segments of a replaced base (a crash between a
// compaction's rename and the delta file's removal), are truncated on open
// exactly like a torn log tail.
const (
	deltaMagic  = 0x47495244 // "GIRD"
	deltaHeader = 20
)

// DeltaSegmentSize is the exact size of a segment with the given metadata
// length and page count — what a caller's compaction rule budgets with.
func DeltaSegmentSize(metaLen, pages int) int64 {
	return deltaHeader + int64(metaLen) + int64(pages)*(4+PageSize) + 4
}

// DeltaStats describes a delta file: the intact segments that extend the
// base beside it, plus what the open that applied them had to drop.
type DeltaStats struct {
	Segments int64 // intact segments extending the base
	Pages    int64 // pages those segments carry
	Bytes    int64 // end offset of the last of them

	TruncatedBytes int64 // bytes dropped past the last applied segment
	ForeignTail    bool  // the dropped tail began with an intact segment of another base
}

// AppendDelta writes one segment — meta, the store's page count and the
// current bytes of the given pages — at offset at of the delta file at path
// (created when absent) and fsyncs it. at is the end of the last intact
// segment, so the debris of a failed earlier append is overwritten. It
// returns the segment's size.
func AppendDelta(path string, at int64, baseCRC uint32, meta []byte, store Store, pages []PageID) (int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sw := NewSumWriter(io.NewOffsetWriter(f, at))
	for _, v := range []uint32{deltaMagic, baseCRC, uint32(len(meta)), uint32(store.NumPages()), uint32(len(pages))} {
		sw.U32(v)
	}
	sw.Bytes(meta)
	for _, id := range pages {
		sw.U32(uint32(id))
		sw.Page(store.Read(id))
	}
	sum, _ := sw.Sum()
	sw.U32(sum)
	if _, err := sw.Sum(); err != nil {
		return 0, err
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	if at == 0 {
		syncDir(filepath.Dir(path)) // the file may be new: make its name durable too
	}
	return DeltaSegmentSize(len(meta), len(pages)), f.Close()
}

// ApplyDeltas applies, in order, every intact segment of the delta file at
// path that extends the base with checksum baseCRC to store — a freshly
// loaded copy of that base — and truncates the file after the last one. It
// returns the last segment's metadata (nil when none applied, a missing
// file included) and what it applied and dropped. A segment is applied only
// once its checksum verified, so a torn one changes nothing.
func ApplyDeltas(path string, baseCRC uint32, store *MemStore) (meta []byte, st DeltaStats, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if os.IsNotExist(err) {
		return nil, st, nil
	}
	if err != nil {
		return nil, st, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, st, err
	}
	var head [deltaHeader]byte
	var seg []byte
	for {
		if _, err := f.ReadAt(head[:], st.Bytes); err != nil {
			break // clean end, or a torn header
		}
		metaLen, n := int(binary.LittleEndian.Uint32(head[8:])), int(binary.LittleEndian.Uint32(head[16:]))
		segLen := DeltaSegmentSize(metaLen, n)
		if binary.LittleEndian.Uint32(head[0:]) != deltaMagic || segLen > info.Size()-st.Bytes {
			break // not a segment, or one cut short
		}
		if int64(cap(seg)) < segLen {
			seg = make([]byte, segLen)
		}
		seg = seg[:segLen]
		if _, err := f.ReadAt(seg, st.Bytes); err != nil {
			return nil, st, err
		}
		body := seg[:segLen-4]
		if crc32.Checksum(body, walCRC) != binary.LittleEndian.Uint32(seg[segLen-4:]) {
			break
		}
		if binary.LittleEndian.Uint32(head[4:]) != baseCRC {
			st.ForeignTail = true
			break
		}
		// Past its checksum, a bad page id is a format error, not a torn write.
		count := int(binary.LittleEndian.Uint32(head[12:]))
		for store.NumPages() < count {
			store.Alloc()
		}
		meta = append(meta[:0], body[deltaHeader:deltaHeader+metaLen]...)
		for p := body[deltaHeader+metaLen:]; len(p) > 0; p = p[4+PageSize:] {
			id := PageID(binary.LittleEndian.Uint32(p))
			if id == 0 || int(id) > count {
				return nil, st, fmt.Errorf("pager: %s carries page %d of a %d-page store", path, id, count)
			}
			store.Write(id, p[4:4+PageSize])
		}
		st.Segments, st.Pages, st.Bytes = st.Segments+1, st.Pages+int64(n), st.Bytes+segLen
	}
	if st.TruncatedBytes = info.Size() - st.Bytes; st.TruncatedBytes > 0 {
		if err := f.Truncate(st.Bytes); err != nil {
			return nil, st, err
		}
		if err := f.Sync(); err != nil {
			return nil, st, err
		}
	}
	store.ResetStats()
	return meta, st, nil
}
