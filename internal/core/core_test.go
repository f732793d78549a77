package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"pando/internal/pullstream"
	"pando/internal/sched"
)

// processorDuplex builds an in-process processor endpoint applying f,
// optionally crashing after crashAfter values.
func processorDuplex[I, O any](f func(I) O, crashAfter int) pullstream.Duplex[I, O] {
	pending := make(chan I, 64)
	fail := make(chan error, 1)
	processed := 0
	return pullstream.Duplex[I, O]{
		Sink: func(src pullstream.Source[I]) {
			for {
				type ans struct {
					end error
					v   I
				}
				ch := make(chan ans, 1)
				src(nil, func(end error, v I) { ch <- ans{end, v} })
				a := <-ch
				if a.end != nil {
					close(pending)
					return
				}
				pending <- a.v
			}
		},
		Source: func(abort error, cb pullstream.Callback[O]) {
			var zero O
			if abort != nil {
				cb(abort, zero)
				return
			}
			select {
			case v, ok := <-pending:
				if !ok {
					cb(pullstream.ErrDone, zero)
					return
				}
				if crashAfter >= 0 && processed >= crashAfter {
					cb(errors.New("processor crashed"), zero)
					return
				}
				processed++
				cb(nil, f(v))
			case err := <-fail:
				cb(err, zero)
			}
		},
	}
}

func TestDistributedMapBasic(t *testing.T) {
	d := New[int, int](WithFlow(sched.Static(2)))
	out := d.Bind(pullstream.Count(30))
	if err := d.Attach("p1", processorDuplex(func(v int) int { return v * 3 }, -1)); err != nil {
		t.Fatal(err)
	}
	got, err := pullstream.Collect(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 30 {
		t.Fatalf("got %d results", len(got))
	}
	for i, v := range got {
		if v != (i+1)*3 {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestDistributedMapMultipleProcessorsOrdered(t *testing.T) {
	d := New[int, int](WithFlow(sched.Static(2)))
	out := d.Bind(pullstream.Count(100))
	for i := 0; i < 3; i++ {
		if err := d.Attach("p", processorDuplex(func(v int) int { return v }, -1)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := pullstream.Collect(out)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("got[%d] = %d (order)", i, v)
		}
	}
}

func TestDistributedMapCrashRecovery(t *testing.T) {
	d := New[int, int](WithFlow(sched.Static(2)))
	out := d.Bind(pullstream.Count(40))
	if err := d.Attach("crashy", processorDuplex(func(v int) int { return v }, 4)); err != nil {
		t.Fatal(err)
	}
	if err := d.Attach("steady", processorDuplex(func(v int) int { return v }, -1)); err != nil {
		t.Fatal(err)
	}
	got, err := pullstream.Collect(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 40 {
		t.Fatalf("got %d results", len(got))
	}
}

func TestDistributedMapObserverEvents(t *testing.T) {
	var mu sync.Mutex
	events := map[string]int{}
	d := New[int, int](WithFlow(sched.Static(2)), WithObserver(func(ev Event) {
		mu.Lock()
		events[ev.Kind]++
		mu.Unlock()
	}))
	out := d.Bind(pullstream.Count(10))
	if err := d.Attach("p1", processorDuplex(func(v int) int { return v }, -1)); err != nil {
		t.Fatal(err)
	}
	if _, err := pullstream.Collect(out); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	for {
		mu.Lock()
		attach, detach := events["attach"], events["detach"]
		mu.Unlock()
		if attach == 1 && detach == 1 && len(events) == 2 {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("events = %v, want one attach and one detach", events)
		case <-time.After(time.Millisecond):
		}
	}
}

// TestDistributedMapObserverDetachErr: a crashed processor's detach event
// carries its error. The crash is forced, not scheduled: "crashy" fails on
// its first input, and "steady" (one value in flight) answers nothing
// until that detach was observed, so the stream cannot finish — and end
// crashy gracefully — before crashy has pulled a value.
func TestDistributedMapObserverDetachErr(t *testing.T) {
	var mu sync.Mutex
	detaches := map[string]error{}
	crashed := make(chan struct{})
	d := New[int, int](WithFlow(sched.Static(1)), WithObserver(func(ev Event) {
		if ev.Kind == "detach" {
			mu.Lock()
			detaches[ev.Processor] = ev.Err
			mu.Unlock()
			if ev.Processor == "crashy" {
				close(crashed)
			}
		}
	}))
	out := d.Bind(pullstream.Count(10))
	if err := d.Attach("crashy", processorDuplex(func(v int) int { return v }, 0)); err != nil {
		t.Fatal(err)
	}
	if err := d.Attach("steady", processorDuplex(func(v int) int { <-crashed; return v }, -1)); err != nil {
		t.Fatal(err)
	}
	if _, err := pullstream.Collect(out); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if detaches["crashy"] == nil {
		t.Fatal("crash detach reported nil error")
	}
}

func TestDistributedMapAttachAfterClose(t *testing.T) {
	d := New[int, int]()
	d.Close()
	err := d.Attach("late", processorDuplex(func(v int) int { return v }, -1))
	if !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("err = %v, want ErrEngineClosed", err)
	}
}

func TestDistributedMapUnordered(t *testing.T) {
	d := New[int, int](WithUnordered(), WithFlow(sched.Static(2)))
	out := d.Bind(pullstream.Count(25))
	for i := 0; i < 2; i++ {
		if err := d.Attach("p", processorDuplex(func(v int) int { return v }, -1)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := pullstream.Collect(out)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, v := range got {
		if seen[v] {
			t.Fatalf("duplicate %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 25 {
		t.Fatalf("got %d distinct results", len(seen))
	}
}

func TestDistributedMapStats(t *testing.T) {
	d := New[int, int]()
	_ = d.Bind(pullstream.Count(5))
	if err := d.Attach("p", processorDuplex(func(v int) int { return v }, -1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	for {
		_, _, subs, _ := d.Stats()
		if subs == 1 {
			return
		}
		select {
		case <-deadline:
			t.Fatal("sub-stream never registered in stats")
		case <-time.After(time.Millisecond):
		}
	}
}
