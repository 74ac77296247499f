package pager

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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
	if err := Snapshot(src, meta, path); err != nil {
		t.Fatal(err)
	}
	dst, gotMeta, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotMeta) != string(meta) {
		t.Errorf("meta = %q", gotMeta)
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

func TestLoadSnapshotRejects(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(bad, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadSnapshot(bad); err == nil {
		t.Error("garbage accepted")
	}
	// Truncated page section.
	src := NewMemStore()
	id := src.Alloc()
	src.Write(id, []byte{1})
	full := filepath.Join(dir, "full")
	if err := Snapshot(src, nil, full); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(full)
	trunc := filepath.Join(dir, "trunc")
	if err := os.WriteFile(trunc, data[:len(data)-100], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadSnapshot(trunc); err == nil {
		t.Error("truncated snapshot accepted")
	}
	// Stale version: v1 snapshots hold row-major leaf pages the current
	// decoder would silently scramble, so they must fail loudly.
	old := filepath.Join(dir, "old")
	oldData := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(oldData[4:], 1)
	if err := os.WriteFile(old, oldData, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadSnapshot(old); err == nil {
		t.Error("version-1 snapshot accepted")
	} else if !strings.Contains(err.Error(), "column-major") {
		t.Errorf("version-1 rejection should explain the layout change, got: %v", err)
	}
	// Version 2 predates the whole-file checksum: also refused, with its
	// own explanation.
	v2 := filepath.Join(dir, "v2")
	v2Data := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(v2Data[4:], 2)
	if err := os.WriteFile(v2, v2Data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadSnapshot(v2); err == nil {
		t.Error("version-2 snapshot accepted")
	} else if !strings.Contains(err.Error(), "checksum") {
		t.Errorf("version-2 rejection should explain the checksum change, got: %v", err)
	}
	// Future version: refuse rather than guess at an unknown layout.
	future := filepath.Join(dir, "future")
	futData := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(futData[4:], snapshotVersion+1)
	if err := os.WriteFile(future, futData, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadSnapshot(future); err == nil {
		t.Error("future-version snapshot accepted")
	}
	// A flipped bit anywhere in the page section fails the checksum, even
	// where truncation and structural checks cannot see it.
	corrupt := filepath.Join(dir, "corrupt")
	corData := append([]byte(nil), data...)
	corData[len(corData)-17] ^= 0x40
	if err := os.WriteFile(corrupt, corData, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadSnapshot(corrupt); err == nil {
		t.Error("bit-flipped snapshot accepted")
	} else if !strings.Contains(err.Error(), "checksum") {
		t.Errorf("corruption should fail the checksum, got: %v", err)
	}
}

// TestSnapshotAtomicReplace pins the crash contract of Snapshot: the
// destination is replaced by rename, so a stray partial temp file — the
// debris of a writer crash — never affects the previous good snapshot,
// and no O_TRUNC window ever exposes a half-written file at path.
func TestSnapshotAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")
	src := NewMemStore()
	id := src.Alloc()
	src.Write(id, []byte{7})
	if err := Snapshot(src, []byte("m1"), path); err != nil {
		t.Fatal(err)
	}
	// Simulate a writer that crashed mid-save: a partial temp next to the
	// snapshot. The old snapshot must still load.
	if err := os.WriteFile(path+".tmp-crashed", []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, meta, err := LoadSnapshot(path); err != nil || string(meta) != "m1" {
		t.Fatalf("old snapshot unreadable next to crash debris: %v %q", err, meta)
	}
	// A full re-save replaces it atomically and still loads.
	src.Write(id, []byte{8})
	if err := Snapshot(src, []byte("m2"), path); err != nil {
		t.Fatal(err)
	}
	store, meta, err := LoadSnapshot(path)
	if err != nil || string(meta) != "m2" {
		t.Fatalf("re-saved snapshot: %v %q", err, meta)
	}
	if store.Read(id)[0] != 8 {
		t.Error("re-saved snapshot holds stale page content")
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
