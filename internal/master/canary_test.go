package master

import (
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"pando/internal/fleet"
	"pando/internal/journal"
	"pando/internal/netsim"
	"pando/internal/proto"
	"pando/internal/pullstream"
	"pando/internal/sched"
	"pando/internal/transport"
	"pando/internal/verify"
	"pando/internal/worker"
)

// TestMasterPoisonCanary runs whole jobs with the arena's poison canary
// on: every buffer returned to the arena is scribbled over first. Results
// travel from the read loop to the output as the frames they arrived in,
// and the emit stage releases each one, so a frame released while the
// journal, the spill store, a vote or the output still reads it comes back
// as a wrong output or a journal entry that no longer decodes to what was
// emitted. The journal fsyncs every record, so concurrent results queue on
// it while the output drains.
func TestMasterPoisonCanary(t *testing.T) {
	defer proto.SetPoisonPut(proto.SetPoisonPut(true))

	t.Run("ordered", func(t *testing.T) {
		// Journal, spill past 4 held results, two votes per value, and a
		// straggler whose values near the tail are speculated to others.
		const n = 60
		j := canaryJournal(t)
		store, err := journal.OpenSpill(filepath.Join(t.TempDir(), "spill.seg"))
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		m, ln := canaryMaster(t, Config{Ordered: true, Journal: j, SpillHighWater: 4, Spill: store,
			Flow: sched.Policy{Min: 2, Max: 2, Speculation: 2}})
		m.EnableVerification(verify.Policy{K: 2, Quorum: 2}, func(v int) (int, error) { return v * v, nil })
		out := m.Bind(pullstream.Count(n))
		for _, name := range []string{"a", "b"} {
			startVolunteer(t, ln, &worker.Volunteer{Name: name, Handler: jsonSquare, Delay: time.Millisecond})
		}
		served := 0
		startVolunteer(t, ln, &worker.Volunteer{Name: "slow", Handler: func(dst, in []byte) ([]byte, error) {
			if served++; served > 4 {
				time.Sleep(300 * time.Millisecond)
			}
			return jsonSquare(dst, in)
		}})
		got, err := collectWithin(t, out)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int, n)
		for i := range want {
			want[i] = (i + 1) * (i + 1)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("outputs %v, want %v", got, want)
		}
		checkJournal(t, j, n, func(idx int) int { return got[idx] })
		speculated := 0
		for _, w := range m.Stats() {
			if w.Name == "slow" {
				speculated = w.Speculated
			}
		}
		if speculated == 0 {
			t.Error("no value was speculated away from the straggler")
		}
	})

	t.Run("unordered", func(t *testing.T) {
		const n = 400
		j := canaryJournal(t)
		m, ln := canaryMaster(t, Config{Journal: j})
		out := m.Bind(pullstream.Count(n))
		for _, name := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
			startVolunteer(t, ln, &worker.Volunteer{Name: name, Handler: jsonSquare})
		}
		got, err := collectWithin(t, out)
		if err != nil {
			t.Fatal(err)
		}
		sorted := slices.Sorted(slices.Values(got))
		for i, v := range sorted {
			if want := (i + 1) * (i + 1); v != want {
				t.Fatalf("sorted outputs[%d] = %d, want %d", i, v, want)
			}
		}
		// Unordered output gives no index; its values are all there, so
		// each entry must be the square of its input.
		checkJournal(t, j, n, func(idx int) int { return (idx + 1) * (idx + 1) })
	})

	t.Run("raw", func(t *testing.T) {
		// RawCodec's values are the frames' own bytes: the emit stage
		// detaches each frame before releasing it.
		const n = 200
		m := NewJob[[]byte, []byte](Config{FuncName: "shout", Ordered: true}, transport.RawCodec{}, transport.RawCodec{})
		ln := canaryServe(t, m.Job())
		tiles := pullstream.Map(func(i int) []byte { return []byte("tile " + strconv.Itoa(i)) })
		out := m.Bind(tiles(pullstream.Count(n)))
		for _, name := range []string{"a", "b"} {
			startVolunteer(t, ln, &worker.Volunteer{Name: name, Handler: func(dst, in []byte) ([]byte, error) {
				return append(append(dst, in...), '!'), nil
			}})
		}
		got, err := collectWithin(t, out)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if want := "tile " + strconv.Itoa(i+1) + "!"; string(v) != want {
				t.Fatalf("output %d = %q, want %q", i, v, want)
			}
		}
		if len(got) != n {
			t.Fatalf("got %d outputs, want %d", len(got), n)
		}
	})

	t.Run("undecodable", func(t *testing.T) {
		// A volunteer that answers input 5 (index 4) with bytes the output
		// codec cannot decode: the stream fails, naming the result.
		m, ln := canaryMaster(t, Config{Ordered: true})
		out := m.Bind(pullstream.Count(10))
		startVolunteer(t, ln, &worker.Volunteer{Name: "garbler", Handler: func(dst, in []byte) ([]byte, error) {
			if string(in) == "5" {
				return append(dst, "not json {{"...), nil
			}
			return jsonSquare(dst, in)
		}})
		got, err := collectWithin(t, out)
		if err == nil || !strings.Contains(err.Error(), "result 4 from garbler does not decode") {
			t.Fatalf("stream ended with %v, want the decode failure of result 4 from garbler", err)
		}
		if !slices.Equal(got, []int{1, 4, 9, 16}) {
			t.Fatalf("outputs before the failure %v, want [1 4 9 16]", got)
		}
	})
}

// collectWithin collects out, failing the test if the stream has not
// ended within 30 s: a frame released while the engine still holds it
// can wedge the stream as well as corrupt it.
func collectWithin[T any](t *testing.T, out pullstream.Source[T]) ([]T, error) {
	t.Helper()
	type collected struct {
		vs  []T
		err error
	}
	done := make(chan collected, 1)
	go func() {
		vs, err := pullstream.Collect(out)
		done <- collected{vs, err}
	}()
	select {
	case c := <-done:
		return c.vs, c.err
	case <-time.After(30 * time.Second):
		t.Fatal("the stream did not end within 30 s")
		return nil, nil
	}
}

// canaryMaster is a JSON job squaring ints, with cfg's ordering kept,
// served by canaryServe.
func canaryMaster(t *testing.T, cfg Config) (*Master[int, int], *netsim.Listener) {
	t.Helper()
	cfg.FuncName = "square"
	m := NewJob[int, int](cfg, transport.JSONCodec[int]{}, transport.JSONCodec[int]{})
	return m, canaryServe(t, m.Job())
}

// canaryServe registers job on a pool of its own, served on a netsim
// listener the test closes.
func canaryServe(t *testing.T, job fleet.Job) *netsim.Listener {
	t.Helper()
	pool := fleet.NewPool(fleet.Config{Channel: transport.Config{HeartbeatInterval: 25 * time.Millisecond}})
	if err := pool.Register(job); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	ln := netsim.NewListener("canary-"+t.Name(), netsim.LAN)
	t.Cleanup(func() { ln.Close() })
	go pool.ServeWS(ln)
	return ln
}

// canaryJournal opens a journal that fsyncs every record.
func canaryJournal(t *testing.T) *journal.Journal {
	t.Helper()
	j, err := journal.Open(filepath.Join(t.TempDir(), "j.log"), journal.Options{SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// checkJournal holds the journal to one entry for each of the n values,
// each decoding to emitted(idx), the value the output gave at its index.
func checkJournal(t *testing.T, j *journal.Journal, n int, emitted func(idx int) int) {
	t.Helper()
	entries := j.Completed()
	if len(entries) != n {
		t.Fatalf("journal holds %d entries, want %d", len(entries), n)
	}
	for _, e := range entries {
		v, err := strconv.Atoi(string(e.Data))
		if err != nil {
			t.Fatalf("journal entry %d is %q, not the emitted value: %v", e.Idx, e.Data, err)
		}
		if want := emitted(e.Idx); v != want {
			t.Fatalf("journal entry %d = %d, emitted %d", e.Idx, v, want)
		}
	}
}
