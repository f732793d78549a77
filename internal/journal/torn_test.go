package journal

// Exhaustive torn-tail recovery: the log is truncated at EVERY byte
// offset — inside the magic, the varints, the payload, the CRC, and on
// each record boundary — and recovery must always restore exactly the
// records whose frames fit the surviving prefix, stay appendable, and
// survive a second recovery. The original torn-tail test sampled a few
// offsets; a crash can stop a write anywhere.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// buildTornFixture writes records with varied payload shapes (empty,
// 1-byte, multi-byte, binary with embedded magic bytes) and returns the
// log's bytes plus each record's end offset.
func buildTornFixture(t *testing.T, path string) (data []byte, ends []int, payloads [][]byte) {
	t.Helper()
	payloads = [][]byte{
		[]byte("first"),
		{},
		{recordMagic, recordMagic, 0x00},
		[]byte("a much longer payload so the length varint matters"),
		{0xFF},
		bytes.Repeat([]byte{0xA7}, 17),
	}
	j, err := Open(path, Options{SyncInterval: -1, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range payloads {
		if err := j.Record(i, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Re-derive the record boundaries by scanning the valid file.
	off := 0
	for off < len(data) {
		_, _, n, ok := parseRecord(data[off:])
		if !ok {
			t.Fatalf("fixture does not scan at offset %d", off)
		}
		off += n
		ends = append(ends, off)
	}
	if len(ends) != len(payloads) {
		t.Fatalf("fixture scanned %d records, want %d", len(ends), len(payloads))
	}
	return data, ends, payloads
}

// recordsThatFit reports how many whole records end at or before cut.
func recordsThatFit(ends []int, cut int) int {
	n := 0
	for _, e := range ends {
		if e <= cut {
			n++
		}
	}
	return n
}

func TestTornTailEveryByteOffset(t *testing.T) {
	dir := t.TempDir()
	data, ends, payloads := buildTornFixture(t, filepath.Join(dir, "fixture.log"))

	for cut := 0; cut <= len(data); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("cut-%d.log", cut))
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wantRecords := recordsThatFit(ends, cut)

		j, err := Open(path, Options{SyncInterval: -1, SnapshotEvery: -1})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		if got := j.Recovered(); got != wantRecords {
			t.Fatalf("cut %d: recovered %d records, want %d (longest valid prefix)", cut, got, wantRecords)
		}
		// The recovered prefix is intact byte for byte.
		for i, e := range j.Completed() {
			if e.Idx != i || !bytes.Equal(e.Data, payloads[i]) {
				t.Fatalf("cut %d: entry %d = (%d, %q), want (%d, %q)", cut, i, e.Idx, e.Data, i, payloads[i])
			}
		}
		// The log stays appendable from a clean boundary...
		if err := j.Record(100+cut, []byte("post-tear")); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
		// ...and a second recovery sees the prefix plus the new record.
		j2, err := Open(path, Options{SyncInterval: -1, SnapshotEvery: -1})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if got := j2.Recovered(); got != wantRecords+1 {
			t.Fatalf("cut %d: second recovery found %d records, want %d", cut, got, wantRecords+1)
		}
		entries := j2.Completed()
		last := entries[len(entries)-1]
		if last.Idx != 100+cut || string(last.Data) != "post-tear" {
			t.Fatalf("cut %d: appended record came back as (%d, %q)", cut, last.Idx, last.Data)
		}
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
		os.Remove(path)
	}
}

// TestSegmentTornTail tears a segment with a partial record header after
// its last record: recovery keeps the five intact records and truncates
// the header so the next append lands on a clean boundary.
func TestSegmentTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "segment.log")
	j, err := Open(path, Options{SyncInterval: -1, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := j.Record(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the partial write of a crash: garbage after the last record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{recordMagic, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := Open(path, Options{SyncInterval: -1, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if j2.Recovered() != 5 {
		t.Fatalf("Recovered = %d, want 5 (torn tail dropped)", j2.Recovered())
	}
	// The truncation must leave a clean boundary for the next append.
	if err := j2.Record(5, []byte{5}); err != nil {
		t.Fatal(err)
	}
	if n := len(j2.Completed()); n != 6 {
		t.Fatalf("after truncate+append: %d entries, want 6", n)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3, err := Open(path, Options{SyncInterval: -1, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	entries := j3.Completed()
	if len(entries) != 6 {
		t.Fatalf("after reopen: %d entries, want 6", len(entries))
	}
	for i, e := range entries {
		if e.Idx != i || !bytes.Equal(e.Data, []byte{byte(i)}) {
			t.Fatalf("entry %d = (%d, %v), want (%d, [%d])", i, e.Idx, e.Data, i, i)
		}
	}
}

// TestTornTailEveryOffsetWithGarbage repeats the sweep with the truncated
// tail followed by bytes that are not a record (a misdirected or shredded
// write rather than a short one): recovery must still stop at the last
// intact record, never mistake the tail for data, and truncate it so the
// next append survives a second recovery.
func TestTornTailEveryOffsetWithGarbage(t *testing.T) {
	dir := t.TempDir()
	data, ends, _ := buildTornFixture(t, filepath.Join(dir, "fixture.log"))

	tails := []struct {
		name string
		tail func(n int) []byte
	}{
		// A deterministic non-record byte pattern. 0xA7 (the record magic)
		// is included so resync-on-magic alone cannot pass; the CRC must
		// reject.
		{"garbage", func(n int) []byte {
			g := make([]byte, n)
			for i := range g {
				g[i] = byte((i*131 + 7) ^ 0xA7)
			}
			return g
		}},
		// A record header torn inside a multi-byte index varint, which the
		// fixture's one-byte varints never produce.
		{"header", func(int) []byte { return []byte{recordMagic, 0xFF, 0xFF} }},
	}

	for _, tc := range tails {
		for cut := 0; cut <= len(data); cut++ {
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.log", tc.name, cut))
			torn := append(append([]byte(nil), data[:cut]...), tc.tail(len(data)-cut+3)...)
			if err := os.WriteFile(path, torn, 0o644); err != nil {
				t.Fatal(err)
			}
			j, err := Open(path, Options{SyncInterval: -1, SnapshotEvery: -1})
			if err != nil {
				t.Fatalf("%s, cut %d: open: %v", tc.name, cut, err)
			}
			// Garbage may happen to extend the last partial record into a
			// valid-looking one only if its CRC matches — effectively never;
			// recovery must land exactly on the intact prefix.
			want := recordsThatFit(ends, cut)
			if got := j.Recovered(); got != want {
				t.Fatalf("%s, cut %d: recovered %d records, want %d", tc.name, cut, got, want)
			}
			if err := j.Record(999, []byte("alive")); err != nil {
				t.Fatalf("%s, cut %d: append: %v", tc.name, cut, err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			j2, err := Open(path, Options{SyncInterval: -1, SnapshotEvery: -1})
			if err != nil {
				t.Fatalf("%s, cut %d: reopen: %v", tc.name, cut, err)
			}
			if got := j2.Recovered(); got != want+1 {
				t.Fatalf("%s, cut %d: second recovery found %d records, want %d", tc.name, cut, got, want+1)
			}
			if err := j2.Close(); err != nil {
				t.Fatal(err)
			}
			os.Remove(path)
		}
	}
}
