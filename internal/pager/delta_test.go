package pager

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
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

// TestSnapshotBytesMatchReference pins snapshot format v3 across the
// chunked writer: header, metadata and zero-padded pages laid out one by
// one, checksummed whole, are exactly the file Snapshot writes.
func TestSnapshotBytesMatchReference(t *testing.T) {
	src := NewMemStore()
	fillStore(src, 21, 0xA1) // more than two chunks of pages
	meta := []byte("twenty-nine bytes of metadata")
	var body []byte
	body = append(body, meta...)
	for id := 1; id <= src.NumPages(); id++ {
		body = append(body, pageOf(src, PageID(id))...)
	}
	var want []byte
	want = binary.LittleEndian.AppendUint32(want, snapshotMagic)
	want = binary.LittleEndian.AppendUint32(want, snapshotVersion)
	want = binary.LittleEndian.AppendUint32(want, uint32(src.NumPages()))
	want = binary.LittleEndian.AppendUint32(want, uint32(len(meta)))
	want = binary.LittleEndian.AppendUint32(want, crc32.Checksum(body, walCRC))
	want = append(want, body...)

	path := filepath.Join(t.TempDir(), "snap")
	if err := Snapshot(src, meta, path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Snapshot wrote %d bytes that differ from the %d-byte reference layout", len(got), len(want))
	}
}

// TestDeltaAppendApply pins the delta file on its own: segments applied in
// order reproduce the source store (later pages overwrite earlier, the store
// grows to the recorded page count, metadata comes from the last segment);
// a torn or corrupt last segment and a segment of another base are dropped,
// reported and truncated away, with the intact prefix applied.
func TestDeltaAppendApply(t *testing.T) {
	dir := t.TempDir()
	src := NewMemStore()
	fillStore(src, 6, 0xB0)
	snap := filepath.Join(dir, "base")
	if err := Snapshot(src, []byte("m0"), snap); err != nil {
		t.Fatal(err)
	}
	id, err := SnapshotID(snap)
	if err != nil {
		t.Fatal(err)
	}
	base := id.SrcCRC
	delta := filepath.Join(dir, "delta")

	// Segment 1 rewrites pages 2 and 5 and grows the store by two pages;
	// segment 2 rewrites 5 again and 7.
	src.Write(2, []byte("two, rewritten"))
	src.Write(5, []byte("five, rewritten"))
	fillStore(src, 2, 0xB1)
	n1, err := AppendDelta(delta, 0, base, []byte("m1"), src, []PageID{2, 5, 7, 8})
	if err != nil {
		t.Fatal(err)
	}
	src.Write(5, bytes.Repeat([]byte{0x55}, PageSize))
	src.Write(7, nil)
	n2, err := AppendDelta(delta, n1, base, []byte("meta2"), src, []PageID{5, 7})
	if err != nil {
		t.Fatal(err)
	}
	if n1 != DeltaSegmentSize(2, 4) || n2 != DeltaSegmentSize(5, 2) {
		t.Fatalf("segment sizes %d, %d; want %d, %d", n1, n2, DeltaSegmentSize(2, 4), DeltaSegmentSize(5, 2))
	}
	intact, err := os.ReadFile(delta)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(intact)) != n1+n2 {
		t.Fatalf("delta file is %d bytes, segments total %d", len(intact), n1+n2)
	}

	apply := func(data []byte, crc uint32) (*MemStore, []byte, DeltaStats) {
		t.Helper()
		if err := os.WriteFile(delta, data, 0o644); err != nil {
			t.Fatal(err)
		}
		store, _, err := LoadSnapshot(snap)
		if err != nil {
			t.Fatal(err)
		}
		meta, st, err := ApplyDeltas(delta, crc, store)
		if err != nil {
			t.Fatal(err)
		}
		if fi, err := os.Stat(delta); err != nil || fi.Size() != st.Bytes {
			t.Fatalf("after the open the delta file is %v (%v), applied segments end at %d", fi, err, st.Bytes)
		}
		return store, meta, st
	}

	store, meta, st := apply(intact, base)
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
	for cut := n1; cut < n1+n2; cut += 97 {
		if _, meta, st := apply(intact[:cut], base); st.Segments != 1 || st.TruncatedBytes != cut-n1 || st.ForeignTail || string(meta) != "m1" {
			t.Fatalf("cut at %d: stats %+v, meta %q", cut, st, meta)
		}
	}
	for off := n1; off < n1+n2; off += 97 {
		cor := append([]byte(nil), intact...)
		cor[off] ^= 0x04
		if store, _, st := apply(cor, base); st.Segments != 1 || st.TruncatedBytes != n2 || st.ForeignTail {
			t.Fatalf("byte %d flipped: stats %+v", off, st)
		} else if !bytes.Equal(store.Read(5)[:4], []byte("five")) {
			t.Fatalf("byte %d flipped: the corrupt segment's pages were applied", off)
		}
	}
	// Another base's file: nothing applies, everything goes, and the caller
	// learns the tail was foreign rather than torn.
	if _, meta, st := apply(intact, base+1); st.Segments != 0 || !st.ForeignTail || st.TruncatedBytes != n1+n2 || meta != nil {
		t.Fatalf("foreign base: stats %+v, meta %q", st, meta)
	}
	// No file at all is an empty delta, not an error.
	os.Remove(delta)
	store, _, err = LoadSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if meta, st, err := ApplyDeltas(delta, base, store); err != nil || meta != nil || st != (DeltaStats{}) {
		t.Fatalf("missing file: %q, %+v, %v", meta, st, err)
	}
}
