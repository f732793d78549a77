package master

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pando/internal/journal"
	"pando/internal/netsim"
	"pando/internal/pullstream"
	"pando/internal/worker"
)

// TestMasterJournalsResults: with Config.Journal every accepted result
// lands in the journal as (index, encoded payload).
func TestMasterJournalsResults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	j, err := journal.Open(path, journal.Options{SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	m, pool := newTestMaster(t, Config{Journal: j})
	ln := netsim.NewListener("journal-master", netsim.LAN)
	defer ln.Close()
	go pool.ServeWS(ln)
	out := m.Bind(pullstream.Count(10))
	startVolunteer(t, ln, &worker.Volunteer{Name: "dev", Handler: jsonSquare, CrashAfter: -1})
	if _, err := pullstream.Collect(out); err != nil {
		t.Fatal(err)
	}

	if n := j.Len(); n != 10 {
		t.Fatalf("journal holds %d entries, want 10", n)
	}
	for _, e := range j.Completed() {
		var v int
		if err := json.Unmarshal(e.Data, &v); err != nil {
			t.Fatalf("entry %d payload %q: %v", e.Idx, e.Data, err)
		}
		// Count(10) produces 1..10 at indices 0..9.
		if want := (e.Idx + 1) * (e.Idx + 1); v != want {
			t.Fatalf("entry %d = %d, want %d", e.Idx, v, want)
		}
	}
	if err := m.journalErr(); err != nil {
		t.Fatal(err)
	}
}

// TestMasterRestoresFromJournal: a second master over the same journal
// replays completed results and only lends the rest.
func TestMasterRestoresFromJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	j, err := journal.Open(path, journal.Options{SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	// A previous run completed indices 0..5 (inputs 1..6, squared).
	for i := 0; i <= 5; i++ {
		data, _ := json.Marshal((i + 1) * (i + 1))
		if err := j.Record(i, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := journal.Open(path, journal.Options{SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	m, pool := newTestMaster(t, Config{Journal: j2})
	ln := netsim.NewListener("restore-master", netsim.LAN)
	defer ln.Close()
	go pool.ServeWS(ln)
	out := m.Bind(pullstream.Count(10))
	startVolunteer(t, ln, &worker.Volunteer{Name: "dev", Handler: jsonSquare, CrashAfter: -1})
	got, err := pullstream.Collect(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("got %d results, want 10", len(got))
	}
	for i, v := range got {
		if want := (i + 1) * (i + 1); v != want {
			t.Fatalf("got[%d] = %d, want %d", i, v, want)
		}
	}
	// The volunteer only computed the four unfinished values.
	if n := m.TotalItems(); n != 4 {
		t.Fatalf("volunteer computed %d items, want 4 (6 restored)", n)
	}
}

// TestMasterRestoreSkipsUndecodableEntries: a journal entry that no
// longer decodes is recomputed instead of failing the restart.
func TestMasterRestoreSkipsUndecodableEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	j, err := journal.Open(path, journal.Options{SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	good, _ := json.Marshal(1)
	if err := j.Record(0, good); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(1, []byte("not json at all {{{")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := journal.Open(path, journal.Options{SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	m, pool := newTestMaster(t, Config{Journal: j2})
	ln := netsim.NewListener("skip-master", netsim.LAN)
	defer ln.Close()
	go pool.ServeWS(ln)
	out := m.Bind(pullstream.Count(3))
	startVolunteer(t, ln, &worker.Volunteer{Name: "dev", Handler: jsonSquare, CrashAfter: -1})
	got, err := pullstream.Collect(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 4 || got[2] != 9 {
		t.Fatalf("got %v, want [1 4 9] (bad entry recomputed)", got)
	}
	if n := m.TotalItems(); n != 2 {
		t.Fatalf("volunteer computed %d items, want 2 (index 1 recomputed, index 0 restored)", n)
	}
}

// TestMasterGroupedJournalRoundTrip: with Group > 1 the journal's unit is
// the group; a restarted grouped master restores and completes.
func TestMasterGroupedJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	run := func(items int) []int {
		j, err := journal.Open(path, journal.Options{SyncInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		m, pool := newTestMaster(t, Config{Group: 3, Journal: j})
		ln := netsim.NewListener("grouped-journal", netsim.LAN)
		defer ln.Close()
		go pool.ServeWS(ln)
		out := m.Bind(pullstream.Count(items))
		startVolunteer(t, ln, &worker.Volunteer{Name: "dev", Handler: jsonSquare, CrashAfter: -1})
		got, err := pullstream.Collect(out)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.journalErr(); err != nil {
			t.Fatal(err)
		}
		return got
	}

	first := run(12)
	if len(first) != 12 {
		t.Fatalf("first run: %d results, want 12", len(first))
	}
	// Second run over the same journal: everything is restored, the
	// volunteer computes nothing, and the output replays identically.
	second := run(12)
	if len(second) != 12 {
		t.Fatalf("second run: %d results, want 12", len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replayed output diverges at %d: %d vs %d", i, first[i], second[i])
		}
	}
}

// TestMasterResumesParentGroupedJournal: a journal written by a grouped
// job (12 items, Group 3) before the engines were unified — group entries
// framed by the old master-local group codec — must restore through the
// list codec: everything replays, the volunteer computes nothing.
func TestMasterResumesParentGroupedJournal(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "grouped_pr12.journal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "j.log")
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := journal.Open(path, journal.Options{SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Recovered() != 4 {
		t.Fatalf("recovered %d group entries, want 4", j.Recovered())
	}
	m, pool := newTestMaster(t, Config{Group: 3, Journal: j})
	ln := netsim.NewListener("parent-journal", netsim.LAN)
	defer ln.Close()
	go pool.ServeWS(ln)
	out := m.Bind(pullstream.Count(12))
	startVolunteer(t, ln, &worker.Volunteer{Name: "dev", Handler: jsonSquare, CrashAfter: -1})
	got, err := pullstream.Collect(out)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != (i+1)*(i+1) {
			t.Fatalf("got[%d] = %d, want %d", i, v, (i+1)*(i+1))
		}
	}
	if len(got) != 12 || m.TotalItems() != 0 {
		t.Fatalf("%d results with %d computed, want 12 restored and 0 computed", len(got), m.TotalItems())
	}
}

// TestMasterJournalUnderCrashStop: a volunteer that crashes mid-stream
// must not corrupt the journal — re-lent values are journaled once, on
// their eventual completion.
func TestMasterJournalUnderCrashStop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	j, err := journal.Open(path, journal.Options{SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	m, pool := newTestMaster(t, Config{Journal: j})
	ln := netsim.NewListener("crash-journal", netsim.LAN)
	defer ln.Close()
	go pool.ServeWS(ln)
	out := m.Bind(pullstream.Count(30))
	startVolunteer(t, ln, &worker.Volunteer{Name: "flaky", Handler: jsonSquare, CrashAfter: 5, Delay: time.Millisecond})
	startVolunteer(t, ln, &worker.Volunteer{Name: "steady", Handler: jsonSquare, CrashAfter: -1, Delay: time.Millisecond})
	got, err := pullstream.Collect(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 30 {
		t.Fatalf("got %d results, want 30", len(got))
	}
	if n := j.Len(); n != 30 {
		t.Fatalf("journal holds %d entries, want 30 (each index exactly once)", n)
	}
}

// TestMasterJournalWriteFailureKeepsComputing: a journal whose Record
// starts failing mid-stream (here its compaction cannot rename the
// snapshot into place, and later the journal is closed under the job)
// does not interrupt the stream. Every result is emitted exactly once and
// in order, and journalErr reports the first failure, not a later one.
func TestMasterJournalWriteFailureKeepsComputing(t *testing.T) {
	const n, half = 16, 8
	path := filepath.Join(t.TempDir(), "j.log")
	// A directory where the snapshot goes: the compaction after the 4th
	// record, and each Record's retry after it, fails to rename onto it.
	if err := os.Mkdir(path+".snap", 0o755); err != nil {
		t.Fatal(err)
	}
	j, err := journal.Open(path, journal.Options{SyncInterval: -1, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	m, pool := newTestMaster(t, Config{Journal: j})
	ln := netsim.NewListener("journal-fail", netsim.LAN)
	defer ln.Close()
	go pool.ServeWS(ln)

	// The input holds back its second half until the journal is closed.
	gate := make(chan struct{})
	next := 0
	in := func(abort error, cb pullstream.Callback[int]) {
		if abort != nil || next == n {
			cb(pullstream.ErrDone, 0)
			return
		}
		next++
		if v := next; v == half+1 {
			go func() { <-gate; cb(nil, v) }()
			return
		}
		cb(nil, next)
	}
	out := m.Bind(in)
	startVolunteer(t, ln, &worker.Volunteer{Name: "dev", Handler: jsonSquare, CrashAfter: -1})
	got := make(chan []int, 1)
	go func() {
		vs, err := pullstream.Collect(out)
		if err != nil {
			t.Error(err)
		}
		got <- vs
	}()

	for deadline := time.Now().Add(10 * time.Second); j.Len() < half; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("journal holds %d entries, want %d", j.Len(), half)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	close(gate)

	vs := <-got
	if len(vs) != n {
		t.Fatalf("got %d results, want %d", len(vs), n)
	}
	for i, v := range vs {
		if want := (i + 1) * (i + 1); v != want {
			t.Fatalf("got[%d] = %d, want %d", i, v, want)
		}
	}
	if c := m.TotalItems(); c != n {
		t.Fatalf("volunteer computed %d items, want %d", c, n)
	}
	jerr := m.journalErr()
	if jerr == nil || errors.Is(jerr, journal.ErrClosed) || !strings.Contains(jerr.Error(), "snapshot rename") {
		t.Fatalf("journalErr = %v, want the first failure (the snapshot rename)", jerr)
	}
	if l := j.Len(); l != half {
		t.Fatalf("journal holds %d entries, want the %d recorded before it closed", l, half)
	}
}
