package pager

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fillStore writes n pages of recognisable, mostly short content.
func fillStore(s Store, n int, tag byte) {
	for i := 0; i < n; i++ {
		id := s.Alloc()
		s.Write(id, bytes.Repeat([]byte{tag, byte(i)}, 1+i*37%(PageSize/2)))
	}
}

func pageOf(s Store, id PageID) []byte {
	page := make([]byte, PageSize)
	copy(page, s.Read(id))
	return page
}

// refSegment is the reference encoder of one segment, laid out field by
// field and checksummed whole.
func refSegment(meta []byte, s Store, pages []PageID) []byte {
	var seg []byte
	seg = binary.LittleEndian.AppendUint32(seg, segmentMagic)
	seg = binary.LittleEndian.AppendUint32(seg, uint32(len(meta)))
	seg = binary.LittleEndian.AppendUint32(seg, uint32(s.NumPages()))
	seg = binary.LittleEndian.AppendUint32(seg, uint32(len(pages)))
	seg = append(seg, meta...)
	for _, id := range pages {
		seg = binary.LittleEndian.AppendUint32(seg, uint32(id))
		seg = append(seg, pageOf(s, id)...)
	}
	return binary.LittleEndian.AppendUint32(seg, crc32.Checksum(seg, walCRC))
}

// TestSnapshotBytesMatchReference pins the segment format across the
// chunked writer: a full first segment (WriteFull) followed by an appended
// one (AppendSegment) is exactly the reference encoding of both.
func TestSnapshotBytesMatchReference(t *testing.T) {
	src := NewMemStore()
	fillStore(src, 21, 0xA1) // more than two chunks of pages
	meta := []byte("twenty-nine bytes of metadata")
	every := make([]PageID, src.NumPages())
	for i := range every {
		every[i] = PageID(i + 1)
	}
	want := refSegment(meta, src, every)

	path := filepath.Join(t.TempDir(), "snap")
	base, err := WriteFull(path, meta, src)
	if err != nil {
		t.Fatal(err)
	}
	src.Write(3, []byte("three, rewritten"))
	fillStore(src, 1, 0xA2)
	n, err := AppendSegment(path, base, meta, src, []PageID{3, 22})
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, refSegment(meta, src, []PageID{3, 22})...)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if base+n != int64(len(want)) || !bytes.Equal(got, want) {
		t.Fatalf("wrote %d bytes (sizes %d + %d) that differ from the %d-byte reference layout", len(got), base, n, len(want))
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	src := NewMemStore()
	var ids []PageID
	for i := 0; i < 5; i++ {
		id := src.Alloc()
		src.Write(id, []byte{byte(i), byte(i * 2)})
		ids = append(ids, id)
	}
	meta := []byte("tree metadata goes here")
	path := filepath.Join(t.TempDir(), "snap")
	size, err := WriteFull(path, meta, src)
	if err != nil {
		t.Fatal(err)
	}
	dst, gotMeta, base, st, err := LoadSegments(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotMeta) != string(meta) || base != size || st != (DeltaStats{}) {
		t.Errorf("meta = %q, first segment %d bytes (written %d), later segments %+v", gotMeta, base, size, st)
	}
	if dst.NumPages() != 5 {
		t.Fatalf("NumPages = %d", dst.NumPages())
	}
	for i, id := range ids {
		page := dst.Read(id)
		if page[0] != byte(i) || page[1] != byte(i*2) {
			t.Errorf("page %d corrupted", id)
		}
	}
	if s := dst.Stats(); s.Reads != int64(len(ids)) {
		t.Errorf("loaded store stats should start clean, got %+v after %d reads", s, len(ids))
	}
}

// TestLoadSegmentsRejects: a file that does not begin with an intact, full
// segment is refused with a clean error — garbage, a file of the earlier
// "GIRP" snapshot layout, a cut first segment, a flipped bit, and a first
// segment that carries only some pages.
func TestLoadSegmentsRejects(t *testing.T) {
	dir := t.TempDir()
	load := func(name string, data []byte) error {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, _, _, err := LoadSegments(path)
		return err
	}
	if _, _, _, _, err := LoadSegments(filepath.Join(dir, "missing")); !os.IsNotExist(err) {
		t.Errorf("missing file: %v", err)
	}
	if load("garbage", []byte("garbage")) == nil {
		t.Error("garbage accepted")
	}
	src := NewMemStore()
	fillStore(src, 3, 0xC0)
	full := filepath.Join(dir, "full")
	if _, err := WriteFull(full, []byte("m"), src); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	old := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(old, 0x47495250) // "GIRP", the earlier snapshot header
	if load("old", old) == nil {
		t.Error("a file of the earlier snapshot layout accepted")
	}
	if load("trunc", data[:len(data)-100]) == nil {
		t.Error("cut first segment accepted")
	}
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)-17] ^= 0x40
	if err := load("corrupt", corrupt); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("a flipped bit should fail the checksum, got: %v", err)
	}
	partial := refSegment([]byte("m"), src, []PageID{1, 2})
	if err := load("partial", partial); err == nil || !strings.Contains(err.Error(), "not a full one") {
		t.Errorf("a first segment of 2 of 3 pages should be refused, got: %v", err)
	}
	shuffled := refSegment([]byte("m"), src, []PageID{1, 3, 2})
	if load("shuffled", shuffled) == nil {
		t.Error("a first segment out of page order accepted")
	}
}

// TestSnapshotAtomicReplace pins the crash contract of WriteFull: the
// destination is replaced by rename, so a stray partial temp file — the
// debris of a writer crash — never affects the previous good file, and no
// O_TRUNC window ever exposes a half-written file at path.
func TestSnapshotAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")
	src := NewMemStore()
	id := src.Alloc()
	src.Write(id, []byte{7})
	if _, err := WriteFull(path, []byte("m1"), src); err != nil {
		t.Fatal(err)
	}
	// Simulate a writer that crashed mid-save: a partial temp next to the
	// file. The old file must still load.
	if err := os.WriteFile(path+".tmp-crashed", []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, meta, _, _, err := LoadSegments(path); err != nil || string(meta) != "m1" {
		t.Fatalf("old file unreadable next to crash debris: %v %q", err, meta)
	}
	// A full rewrite replaces it atomically and still loads.
	src.Write(id, []byte{8})
	if _, err := WriteFull(path, []byte("m2"), src); err != nil {
		t.Fatal(err)
	}
	store, meta, _, _, err := LoadSegments(path)
	if err != nil || string(meta) != "m2" {
		t.Fatalf("rewritten file: %v %q", err, meta)
	}
	if store.Read(id)[0] != 8 {
		t.Error("rewritten file holds stale page content")
	}
	// No temp debris of our own left behind.
	matches, err := filepath.Glob(path + ".tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 { // only the simulated crash debris remains
		t.Errorf("atomic write left temp files behind: %v", matches)
	}
}

// TestDeltaAppendApply pins the segments after the first: applied in order
// they reproduce the source store (later pages overwrite earlier, the store
// grows to the recorded page count, metadata comes from the last segment),
// appends leave the bytes before them untouched, and a torn or corrupt last
// segment is dropped, reported and truncated away with the intact prefix
// applied.
func TestDeltaAppendApply(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap")
	src := NewMemStore()
	fillStore(src, 6, 0xB0)
	base, err := WriteFull(path, []byte("m0"), src)
	if err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Segment 1 rewrites pages 2 and 5 and grows the store by two pages;
	// segment 2 rewrites 5 again and 7.
	src.Write(2, []byte("two, rewritten"))
	src.Write(5, []byte("five, rewritten"))
	fillStore(src, 2, 0xB1)
	n1, err := AppendSegment(path, base, []byte("m1"), src, []PageID{2, 5, 7, 8})
	if err != nil {
		t.Fatal(err)
	}
	src.Write(5, bytes.Repeat([]byte{0x55}, PageSize))
	src.Write(7, nil)
	n2, err := AppendSegment(path, base+n1, []byte("meta2"), src, []PageID{5, 7})
	if err != nil {
		t.Fatal(err)
	}
	if n1 != SegmentSize(2, 4) || n2 != SegmentSize(5, 2) {
		t.Fatalf("segment sizes %d, %d; want %d, %d", n1, n2, SegmentSize(2, 4), SegmentSize(5, 2))
	}
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(intact)) != base+n1+n2 || !bytes.Equal(intact[:base], first) {
		t.Fatalf("file is %d bytes, segments total %d, first segment unchanged: %v", len(intact), base+n1+n2, bytes.Equal(intact[:base], first))
	}

	apply := func(data []byte) (*MemStore, []byte, DeltaStats) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		store, meta, gotBase, st, err := LoadSegments(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi, err := os.Stat(path); err != nil || gotBase != base || fi.Size() != base+st.Bytes {
			t.Fatalf("after the open the file is %v (%v), segments end at %d+%d", fi, err, gotBase, st.Bytes)
		}
		return store, meta, st
	}

	store, meta, st := apply(intact)
	if st != (DeltaStats{Segments: 2, Pages: 6, Bytes: n1 + n2}) || string(meta) != "meta2" {
		t.Fatalf("intact file: stats %+v, meta %q", st, meta)
	}
	if store.NumPages() != src.NumPages() {
		t.Fatalf("store has %d pages, source %d", store.NumPages(), src.NumPages())
	}
	for id := 1; id <= src.NumPages(); id++ {
		if !bytes.Equal(pageOf(store, PageID(id)), pageOf(src, PageID(id))) {
			t.Fatalf("page %d differs from the source store", id)
		}
	}
	if got := store.Stats(); got.Writes != 0 {
		t.Fatalf("a recovered store starts with clean counters, got %+v", got)
	}

	// Every cut and every flipped byte of the last segment leaves exactly
	// segment 1 applied.
	for cut := base + n1; cut < base+n1+n2; cut += 97 {
		if _, meta, st := apply(intact[:cut]); st.Segments != 1 || st.TruncatedBytes != cut-base-n1 || string(meta) != "m1" {
			t.Fatalf("cut at %d: stats %+v, meta %q", cut, st, meta)
		}
	}
	for off := base + n1; off < base+n1+n2; off += 97 {
		cor := append([]byte(nil), intact...)
		cor[off] ^= 0x04
		if store, _, st := apply(cor); st.Segments != 1 || st.TruncatedBytes != n2 {
			t.Fatalf("byte %d flipped: stats %+v", off, st)
		} else if !bytes.Equal(store.Read(5)[:4], []byte("five")) {
			t.Fatalf("byte %d flipped: the corrupt segment's pages were applied", off)
		}
	}
}
