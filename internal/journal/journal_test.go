package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pando/internal/race"
)

func entryMap(entries []Entry) map[int]string {
	m := make(map[int]string, len(entries))
	for _, e := range entries {
		m[e.Idx] = string(e.Data)
	}
	return m
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	j, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]string{}
	for i := 0; i < 100; i++ {
		payload := fmt.Sprintf("result-%d", i*i)
		if err := j.Record(i, []byte(payload)); err != nil {
			t.Fatal(err)
		}
		want[i] = payload
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Recovered() != 100 {
		t.Fatalf("Recovered = %d, want 100", j2.Recovered())
	}
	got := entryMap(j2.Completed())
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("entry %d = %q, want %q", i, got[i], w)
		}
	}
	// Sorted by index.
	entries := j2.Completed()
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Idx >= entries[i].Idx {
			t.Fatalf("Completed not sorted: %d before %d", entries[i-1].Idx, entries[i].Idx)
		}
	}
}

func TestRecordDedup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	j, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record(7, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(7, []byte("second")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if n := j2.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
	if got := entryMap(j2.Completed())[7]; got != "first" {
		t.Fatalf("entry 7 = %q, want %q (first record wins)", got, "first")
	}
}

// TestTornTailRecovery crashes mid-append: the log ends with a partial
// record, and recovery must keep the longest valid prefix and truncate
// the garbage so later appends survive another recovery.
func TestTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	j, err := Open(path, Options{SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := j.Record(i, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tear := range []func([]byte) []byte{
		func(b []byte) []byte { return b[:len(b)-3] },                                          // truncated mid-record
		func(b []byte) []byte { return append(b, 0xA7, 0x05) },                                 // partial next record
		func(b []byte) []byte { return append(b, bytes.Repeat([]byte{0xFF}, 40)...) },          // garbage tail
		func(b []byte) []byte { b = append([]byte(nil), b...); b[len(b)-1] ^= 0xFF; return b }, // corrupt crc
	} {
		torn := tear(append([]byte(nil), data...))
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		j2, err := Open(path, Options{SyncInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		n := j2.Len()
		if n < 9 || n > 10 {
			t.Fatalf("recovered %d entries, want 9 or 10 (longest valid prefix)", n)
		}
		// The journal stays usable: append and recover once more.
		if err := j2.Record(1000+n, []byte("post-tear")); err != nil {
			t.Fatal(err)
		}
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
		j3, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if j3.Len() != n+1 {
			t.Fatalf("after re-append: %d entries, want %d", j3.Len(), n+1)
		}
		j3.Close()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		os.Remove(path + ".snap")
	}
}

// TestSnapshotCompaction verifies Snapshot moves the state into the
// compacted file, truncates the log, and recovery sees the union of
// snapshot and post-snapshot log records.
func TestSnapshotCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	j, err := Open(path, Options{SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := j.Record(i, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Snapshot(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Fatalf("log not truncated after snapshot: %d bytes", fi.Size())
	}
	for i := 50; i < 60; i++ {
		if err := j.Record(i, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 60 {
		t.Fatalf("recovered %d entries, want 60 (snapshot + log)", j2.Len())
	}
	got := entryMap(j2.Completed())
	for i := 0; i < 60; i++ {
		if got[i] != fmt.Sprintf("v%d", i) {
			t.Fatalf("entry %d = %q", i, got[i])
		}
	}
}

func TestAutoSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	j, err := Open(path, Options{SyncInterval: -1, SnapshotEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 25; i++ {
		if err := j.Record(i, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(path + ".snap"); err != nil {
		t.Fatalf("auto snapshot not written: %v", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// 25 records with compaction every 10: the log holds at most the
	// 5 records after the last snapshot.
	if fi.Size() > 5*16 {
		t.Fatalf("log not compacted: %d bytes", fi.Size())
	}
}

// TestBatchedSyncDurable checks the batched-fsync contract: records are
// durable after the sync interval has elapsed (without Close).
func TestBatchedSyncDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	j, err := Open(path, Options{SyncInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Record(1, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		// Read the file through a second handle, as a restarted master
		// would; j is deliberately never closed (the "crash").
		j2, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		n := j2.Len()
		j2.Close()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("record never became durable through batched sync")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestConcurrentRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	j, err := Open(path, Options{SnapshotEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				idx := g*100 + i
				if err := j.Record(idx, []byte(fmt.Sprintf("r%d", idx))); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 800 {
		t.Fatalf("recovered %d entries, want 800", j2.Len())
	}
}

func TestClosedErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	j, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	if err := j.Record(1, nil); err != ErrClosed {
		t.Fatalf("Record after Close = %v, want ErrClosed", err)
	}
	if err := j.Sync(); err != ErrClosed {
		t.Fatalf("Sync after Close = %v, want ErrClosed", err)
	}
	if err := j.Snapshot(); err != ErrClosed {
		t.Fatalf("Snapshot after Close = %v, want ErrClosed", err)
	}
}

// TestRepeatedSnapshotsMerge exercises the stream-merge compaction path:
// a second snapshot must merge the existing snapshot with the fresh log
// records, in index order, without losing either side.
func TestRepeatedSnapshotsMerge(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	j, err := Open(path, Options{SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Interleaved index ranges across three compaction windows.
	write := func(lo, hi, step int) {
		for i := lo; i < hi; i += step {
			if err := j.Record(i, []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	write(0, 40, 2)  // evens 0..38
	write(1, 40, 2)  // odds merge between them
	write(40, 60, 1) // appended past the merged range
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	entries := j2.Completed()
	if len(entries) != 60 {
		t.Fatalf("recovered %d entries, want 60", len(entries))
	}
	for i, e := range entries {
		if e.Idx != i || string(e.Data) != fmt.Sprintf("v%d", i) {
			t.Fatalf("entry %d = (%d, %q), want (%d, %q)", i, e.Idx, e.Data, i, fmt.Sprintf("v%d", i))
		}
	}
}

// TestCompletedSeesUnsyncedRecords: Completed must include records still
// sitting in the write buffer (flushed, not yet fsynced).
func TestCompletedSeesUnsyncedRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	j, err := Open(path, Options{SyncInterval: time.Hour}) // never auto-syncs
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Record(3, []byte("buffered")); err != nil {
		t.Fatal(err)
	}
	got := entryMap(j.Completed())
	if got[3] != "buffered" {
		t.Fatalf("Completed = %v, want buffered record visible", got)
	}
}

// flakySync is a log file whose first Sync fails, as fsync does when the
// disk reports a write-back error. Later Syncs succeed, as a retried fsync
// on Linux may although the failed batch's pages were dropped.
type flakySync struct {
	*os.File
	fails atomic.Int32
	calls atomic.Int32
}

func (f *flakySync) Sync() error {
	f.calls.Add(1)
	if f.fails.Add(-1) >= 0 {
		return errors.New("injected EIO")
	}
	return f.File.Sync()
}

// TestBackgroundSyncFailureIsSticky: an fsync that fails on the
// background interval has no caller to report to, so it must surface on
// every later Record, Sync and Close instead of being retried into a
// false success.
func TestBackgroundSyncFailureIsSticky(t *testing.T) {
	j, err := Open(filepath.Join(t.TempDir(), "j.log"), Options{SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	f := &flakySync{File: j.f.(*os.File)}
	f.fails.Store(1)
	j.mu.Lock()
	j.f = f
	j.w.Reset(f)
	j.mu.Unlock()

	if err := j.Record(1, []byte("lost")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for f.calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the background loop never synced")
		}
		time.Sleep(time.Millisecond)
	}
	if err := j.Sync(); err == nil {
		t.Fatal("Sync succeeded after the background fsync failed")
	}
	if err := j.Record(2, []byte("late")); err == nil {
		t.Fatal("Record succeeded after the background fsync failed")
	}
	if err := j.Close(); err == nil {
		t.Fatal("Close succeeded after the background fsync failed")
	}
}

// TestRecordAllocs holds Record's per-call allocations: the record is
// framed in a buffer the journal reuses (the buffered writer copies it),
// so what remains is the known-index set's own growth, under one
// allocation a call on average.
func TestRecordAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	j, err := Open(filepath.Join(t.TempDir(), "j.log"), Options{SyncInterval: time.Hour, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	payload := []byte(`{"steps":152,"peak":2974984576}`)
	idx := 0
	allocs := testing.AllocsPerRun(2000, func() {
		if err := j.Record(idx, payload); err != nil {
			t.Fatal(err)
		}
		idx++
	})
	if allocs > 1.5 {
		t.Fatalf("Record: %.2f allocations a call, want at most 1.5", allocs)
	}
}
