package lender

import (
	"errors"
	"testing"
	"time"

	"pando/internal/pullstream"
)

// ask issues one request on a sub-stream source and waits for the answer.
func ask[T any](t *testing.T, src pullstream.Source[T]) (T, error) {
	t.Helper()
	type ans struct {
		end error
		v   T
	}
	ch := make(chan ans, 1)
	src(nil, func(end error, v T) { ch <- ans{end, v} })
	select {
	case a := <-ch:
		return a.v, a.end
	case <-time.After(5 * time.Second):
		t.Fatal("ask timed out")
		panic("unreachable")
	}
}

// TestSpeculateDuplicateWinsAndLoserDiscarded covers the at-least-once
// semantics behind speculative re-dispatch: a straggler's outstanding
// values are duplicated to an idle sub-stream, the duplicate's results
// answer the stream, and the straggler's late results are discarded — the
// output carries exactly one result per input.
func TestSpeculateDuplicateWinsAndLoserDiscarded(t *testing.T) {
	l := New[int, int]()
	out := l.Bind(pullstream.Values(10, 20))
	outc, errc := collectAsync(out)

	subA, dA := l.LendStream()
	resultsA := make(chan int)
	dA.Sink(pullstream.FromChan(resultsA, nil))
	if v, err := ask(t, dA.Source); err != nil || v != 10 {
		t.Fatalf("subA first value = %d, %v", v, err)
	}
	if v, err := ask(t, dA.Source); err != nil || v != 20 {
		t.Fatalf("subA second value = %d, %v", v, err)
	}

	// subA stalls; both its values are duplicated for re-dispatch.
	if n := l.Speculate(subA, 10); n != 2 {
		t.Fatalf("Speculate = %d, want 2", n)
	}
	if n := l.Speculate(subA, 10); n != 0 {
		t.Fatalf("second Speculate = %d, want 0 (no value duplicated twice)", n)
	}

	_, dB := l.LendStream()
	resultsB := make(chan int)
	dB.Sink(pullstream.FromChan(resultsB, nil))
	if v, err := ask(t, dB.Source); err != nil || v != 10 {
		t.Fatalf("subB first duplicate = %d, %v", v, err)
	}
	if v, err := ask(t, dB.Source); err != nil || v != 20 {
		t.Fatalf("subB second duplicate = %d, %v", v, err)
	}

	// A further ask discovers the input's end (the lazy read only happens
	// on demand); it parks until every value is answered, then reports
	// done.
	askEnd := make(chan error, 1)
	dB.Source(nil, func(end error, v int) { askEnd <- end })

	// The idle sub-stream answers first and wins.
	resultsB <- 100
	resultsB <- 200
	if end := <-askEnd; !errors.Is(end, pullstream.ErrDone) {
		t.Fatalf("parked ask end = %v, want ErrDone", end)
	}
	got := <-outc
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 100 || got[1] != 200 {
		t.Fatalf("output = %v, want [100 200] (each input answered exactly once)", got)
	}

	// The straggler's late results arrive after completion and must be
	// discarded without corrupting state.
	resultsA <- 101
	resultsA <- 201
	close(resultsA)
	close(resultsB)
	deadline := time.Now().Add(2 * time.Second)
	for {
		lentNow, failedQ, _, _ := l.Stats()
		if lentNow == 0 && failedQ == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("zombie copies not drained: %d lent, %d failed", lentNow, failedQ)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSpeculateOriginalStillWins checks the symmetric race: the origin
// answers before the duplicate's holder, its result is delivered, and the
// duplicate's later result is dropped.
func TestSpeculateOriginalStillWins(t *testing.T) {
	l := New[int, int]()
	out := l.Bind(pullstream.Values(10))
	outc, errc := collectAsync(out)

	subA, dA := l.LendStream()
	resultsA := make(chan int)
	dA.Sink(pullstream.FromChan(resultsA, nil))
	if v, err := ask(t, dA.Source); err != nil || v != 10 {
		t.Fatalf("subA value = %d, %v", v, err)
	}
	if n := l.Speculate(subA, 1); n != 1 {
		t.Fatalf("Speculate = %d, want 1", n)
	}

	_, dB := l.LendStream()
	resultsB := make(chan int)
	dB.Sink(pullstream.FromChan(resultsB, nil))
	if v, err := ask(t, dB.Source); err != nil || v != 10 {
		t.Fatalf("subB duplicate = %d, %v", v, err)
	}

	askEnd := make(chan error, 1)
	dB.Source(nil, func(end error, v int) { askEnd <- end })

	resultsA <- 100 // the origin recovers and answers first
	got := <-outc
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 100 {
		t.Fatalf("output = %v, want [100]", got)
	}
	if end := <-askEnd; !errors.Is(end, pullstream.ErrDone) {
		t.Fatalf("parked ask end = %v, want ErrDone", end)
	}
	resultsB <- 999 // losing duplicate, discarded
	close(resultsA)
	close(resultsB)
}

// TestSpeculateNeverHandsDuplicateToOrigin: a sub-stream asking for more
// work must not receive a duplicate of a value it already holds; fresh
// input is preferred and the duplicate stays queued for other workers.
func TestSpeculateNeverHandsDuplicateToOrigin(t *testing.T) {
	l := New[int, int]()
	l.Bind(pullstream.Values(10, 30))

	subA, dA := l.LendStream()
	resultsA := make(chan int)
	dA.Sink(pullstream.FromChan(resultsA, nil))
	if v, err := ask(t, dA.Source); err != nil || v != 10 {
		t.Fatalf("subA value = %d, %v", v, err)
	}
	if n := l.Speculate(subA, 1); n != 1 {
		t.Fatalf("Speculate = %d, want 1", n)
	}
	// subA asks again: the failed queue holds its own duplicate, which it
	// must not receive — it gets the next fresh input instead.
	if v, err := ask(t, dA.Source); err != nil || v != 30 {
		t.Fatalf("subA second value = %d, %v (must skip its own duplicate)", v, err)
	}
	close(resultsA)
}

// TestSpeculateSkipsOriginDevice: a duplicate is kept from the origin's
// device, not only from the origin sub-stream. A sibling sub-stream under
// the same worker name gets fresh input; another device gets the
// duplicate.
func TestSpeculateSkipsOriginDevice(t *testing.T) {
	l := New[int, int]()
	l.Bind(pullstream.Values(10, 30))

	subA, dA := l.LendStreamNamed("dev")
	resultsA := make(chan int)
	dA.Sink(pullstream.FromChan(resultsA, nil))
	if v, err := ask(t, dA.Source); err != nil || v != 10 {
		t.Fatalf("subA value = %d, %v", v, err)
	}
	if n := l.Speculate(subA, 1); n != 1 {
		t.Fatalf("Speculate = %d, want 1", n)
	}
	_, dSib := l.LendStreamNamed("dev")
	resultsSib := make(chan int)
	dSib.Sink(pullstream.FromChan(resultsSib, nil))
	if v, err := ask(t, dSib.Source); err != nil || v != 30 {
		t.Fatalf("sibling value = %d, %v; want fresh 30, not the duplicate of 10", v, err)
	}
	_, dC := l.LendStreamNamed("other")
	resultsC := make(chan int)
	dC.Sink(pullstream.FromChan(resultsC, nil))
	if v, err := ask(t, dC.Source); err != nil || v != 10 {
		t.Fatalf("other device's value = %d, %v; want the duplicate of 10", v, err)
	}
	close(resultsA)
	close(resultsSib)
	close(resultsC)
}

// TestSpeculateNeedsAnotherDevice: at the tail of a stream the only idle
// ask is a sibling of the straggler's device. It may not take the
// duplicate, so the straggler gets none: nothing waits in the failed queue
// for a worker that is not there. Once another device parks an ask, the
// scan's count of two idle asks buys one duplicate, and that device takes
// it.
func TestSpeculateNeedsAnotherDevice(t *testing.T) {
	l := New[int, int]()
	l.Bind(pullstream.Values(10))

	subA, dA := l.LendStreamNamed("dev")
	resultsA := make(chan int)
	dA.Sink(pullstream.FromChan(resultsA, nil))
	if v, err := ask(t, dA.Source); err != nil || v != 10 {
		t.Fatalf("subA value = %d, %v", v, err)
	}
	// The sibling's ask reads the input's end and parks at the tail.
	_, dSib := l.LendStreamNamed("dev")
	resultsSib := make(chan int)
	dSib.Sink(pullstream.FromChan(resultsSib, nil))
	sibGot := make(chan int, 1)
	dSib.Source(nil, func(end error, v int) {
		if end == nil {
			sibGot <- v
		}
	})
	waitIdle := func(want int) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); l.IdleAtTail() != want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d asks idle at the tail, want %d", l.IdleAtTail(), want)
			}
		}
	}
	waitIdle(1)
	if n := l.Speculate(subA, l.IdleAtTail()); n != 0 {
		t.Fatalf("Speculate with only the origin's sibling idle = %d, want 0", n)
	}
	if lentNow, failedQ, _, _ := l.Stats(); lentNow != 1 || failedQ != 0 {
		t.Fatalf("%d lent, %d failed after a refused duplicate, want 1 and 0", lentNow, failedQ)
	}

	_, dC := l.LendStreamNamed("other")
	resultsC := make(chan int)
	dC.Sink(pullstream.FromChan(resultsC, nil))
	got := make(chan int, 1)
	dC.Source(nil, func(end error, v int) {
		if end == nil {
			got <- v
		}
	})
	waitIdle(2)
	if n := l.Speculate(subA, l.IdleAtTail()); n != 1 {
		t.Fatalf("Speculate with another device idle = %d, want 1", n)
	}
	select {
	case v := <-got:
		if v != 10 {
			t.Fatalf("other device's value = %d, want the duplicate of 10", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the other device's parked ask got no duplicate")
	}
	select {
	case v := <-sibGot:
		t.Fatalf("the origin's sibling received %d", v)
	default:
	}
	close(resultsA)
	close(resultsSib)
	close(resultsC)
}

// TestSpeculateCrashedOriginFallsBackToRelend: when the origin dies after
// speculation while the duplicate is already lent to a live sub-stream,
// the dead copy is not re-queued: the live duplicate answers the value,
// once. (When the duplicate is still queued instead, the two copies
// collapse — see TestSingleHolderDeathWithQueuedDuplicate; when every
// holder dies, the value is re-lent once — see
// TestSimultaneousTailFailuresRelendOnce.)
func TestSpeculateCrashedOriginFallsBackToRelend(t *testing.T) {
	l := New[int, int]()
	out := l.Bind(pullstream.Values(10))
	outc, errc := collectAsync(out)

	subA, dA := l.LendStream()
	resultsA := make(chan int)
	errA := make(chan error, 1)
	dA.Sink(pullstream.FromChan(resultsA, errA))
	if v, err := ask(t, dA.Source); err != nil || v != 10 {
		t.Fatalf("subA value = %d, %v", v, err)
	}
	if n := l.Speculate(subA, 1); n != 1 {
		t.Fatalf("Speculate = %d, want 1", n)
	}

	// subB takes the queued duplicate while the origin is still alive...
	_, dB := l.LendStream()
	resultsB := make(chan int)
	dB.Sink(pullstream.FromChan(resultsB, nil))
	if v, err := ask(t, dB.Source); err != nil || v != 10 {
		t.Fatalf("subB duplicate = %d, %v", v, err)
	}

	// ...then the origin crashes with its copy unanswered: subB's copy is
	// live, so nothing is queued for re-lending.
	errA <- pullstream.ErrAborted
	waitStats(t, l, func(_, _, _, ended int) bool { return ended == 1 })
	if _, failedQ, _, _ := l.Stats(); failedQ != 0 {
		t.Fatalf("failed queue = %d, want 0 (subB's live copy answers the value)", failedQ)
	}
	askEnd := make(chan error, 1)
	dB.Source(nil, func(end error, v int) {
		if end == nil {
			t.Errorf("subB received a second copy: %d", v)
		}
		askEnd <- end
	})
	select {
	case end := <-askEnd:
		t.Fatalf("subB's ask answered %v before subB answered, want it parked", end)
	case <-time.After(20 * time.Millisecond):
	}
	resultsB <- 100
	if end := <-askEnd; !errors.Is(end, pullstream.ErrDone) {
		t.Fatalf("parked ask end = %v, want ErrDone", end)
	}
	got := <-outc
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 100 {
		t.Fatalf("output = %v, want [100]", got)
	}
	close(resultsB)
}
