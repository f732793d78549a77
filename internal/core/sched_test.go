package core

import (
	"testing"
	"time"

	"pando/internal/pullstream"
	"pando/internal/sched"
)

// blackHole is a worker that accepts values but never answers — a stalled
// device that still looks alive. Its Source parks until aborted.
func blackHole() pullstream.Duplex[int, int] {
	abortc := make(chan error, 1)
	return pullstream.Duplex[int, int]{
		Sink: func(src pullstream.Source[int]) {
			for {
				type ans struct{ end error }
				ch := make(chan ans, 1)
				src(nil, func(end error, v int) { ch <- ans{end} })
				if a := <-ch; a.end != nil {
					return
				}
			}
		},
		Source: func(abort error, cb pullstream.Callback[int]) {
			if abort != nil {
				cb(abort, 0)
				return
			}
			end := <-abortc
			cb(end, 0)
		},
	}
}

// echoWorker answers each value with v*2 after delay.
func echoWorker(delay time.Duration) pullstream.Duplex[int, int] {
	pending := make(chan int, 1024)
	endc := make(chan error, 1)
	return pullstream.Duplex[int, int]{
		Sink: func(src pullstream.Source[int]) {
			for {
				type ans struct {
					end error
					v   int
				}
				ch := make(chan ans, 1)
				src(nil, func(end error, v int) { ch <- ans{end, v} })
				a := <-ch
				if a.end != nil {
					endc <- a.end
					close(pending)
					return
				}
				pending <- a.v
			}
		},
		Source: func(abort error, cb pullstream.Callback[int]) {
			if abort != nil {
				cb(abort, 0)
				return
			}
			v, ok := <-pending
			if !ok {
				end := <-endc
				if pullstream.IsNormalEnd(end) {
					end = pullstream.ErrDone
				}
				cb(end, 0)
				return
			}
			if delay > 0 {
				time.Sleep(delay)
			}
			cb(nil, v*2)
		},
	}
}

// TestSpeculationRescuesStalledWorker drives the whole scheduler path
// end-to-end: a stalled worker swallows values without crashing, and
// without speculation the stream could never complete; the straggler scan
// duplicates its values to the healthy worker and the run finishes.
func TestSpeculationRescuesStalledWorker(t *testing.T) {
	d := New[int, int](WithFlow(sched.Policy{Min: 2, Max: 2, Speculation: 3}))
	defer d.Close()
	out := d.Bind(pullstream.Count(30))
	done := make(chan struct{})
	var got []int
	var err error
	go func() {
		got, err = pullstream.Collect(out)
		close(done)
	}()
	if e := d.Attach("stalled", blackHole()); e != nil {
		t.Fatal(e)
	}
	if e := d.Attach("healthy", echoWorker(time.Millisecond)); e != nil {
		t.Fatal(e)
	}
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("stream did not complete: stalled worker's values were never re-dispatched")
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 30 {
		t.Fatalf("got %d results, want 30", len(got))
	}
	for i, v := range got {
		if v != (i+1)*2 {
			t.Fatalf("got[%d] = %d, want %d (ordered, deduplicated)", i, v, (i+1)*2)
		}
	}
	speculated := 0
	for _, f := range d.Flows() {
		if f.Name == "stalled" {
			speculated = f.Speculated
		}
	}
	if speculated == 0 {
		t.Fatal("no values were speculatively re-dispatched from the stalled worker")
	}
}

// TestDefaultFlowMatchesStaticBatch: with no flow options the engine
// behaves exactly like the original static Limiter bound.
func TestDefaultFlowMatchesStaticBatch(t *testing.T) {
	d := New[int, int](WithFlow(sched.Static(3)))
	defer d.Close()
	out := d.Bind(pullstream.Count(50))
	done := make(chan struct{})
	var got []int
	var err error
	go func() {
		got, err = pullstream.Collect(out)
		close(done)
	}()
	if e := d.Attach("w", echoWorker(0)); e != nil {
		t.Fatal(e)
	}
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("got %d results", len(got))
	}
	for _, f := range d.Flows() {
		if f.Window != 3 {
			t.Fatalf("window = %d, want static 3", f.Window)
		}
		if f.Speculated != 0 {
			t.Fatal("speculation must be off by default")
		}
	}
}
