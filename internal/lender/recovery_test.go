package lender

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pando/internal/pullstream"
)

// waitStats polls the lender's counters until ok holds or a deadline
// passes (sub-stream deaths are processed on their own goroutines).
func waitStats(t *testing.T, l *Lender[int, int], ok func(lentNow, failedQ, subs, ended int) bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if ok(l.Stats()) {
			return
		}
		if time.Now().After(deadline) {
			lentNow, failedQ, subs, ended := l.Stats()
			t.Fatalf("stats never settled: lent=%d failed=%d subs=%d ended=%d",
				lentNow, failedQ, subs, ended)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRestoreSkipsAndReplaysOrdered: restored indices are consumed from
// the input without being lent, their results replay to the output in
// index order, and only the unfinished values reach a sub-stream.
func TestRestoreSkipsAndReplaysOrdered(t *testing.T) {
	l := New[int, int]()
	// Indices 0, 1 and 3 completed in a previous run (values 10, 20, 40).
	l.Restore(map[int]int{0: 100, 1: 200, 3: 400})
	out := l.Bind(pullstream.Values(10, 20, 30, 40, 50))
	outc, errc := collectAsync(out)

	_, d := l.LendStream()
	results := make(chan int)
	d.Sink(pullstream.FromChan(results, nil))

	// The sub-stream only ever sees the two unfinished values.
	if v, err := ask(t, d.Source); err != nil || v != 30 {
		t.Fatalf("first lent value = %d, %v; want 30 (0,1 restored)", v, err)
	}
	results <- 300
	if v, err := ask(t, d.Source); err != nil || v != 50 {
		t.Fatalf("second lent value = %d, %v; want 50 (3 restored)", v, err)
	}
	results <- 500
	if _, err := ask(t, d.Source); !errors.Is(err, pullstream.ErrDone) {
		t.Fatalf("third ask = %v, want ErrDone", err)
	}
	close(results)

	got := <-outc
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	want := []int{100, 200, 300, 400, 500}
	if len(got) != len(want) {
		t.Fatalf("output = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output = %v, want %v (replayed and fresh interleaved in order)", got, want)
		}
	}
}

// TestRestoreUnordered: restored results replay (in index order) ahead of
// fresh completion-order results.
func TestRestoreUnordered(t *testing.T) {
	l := New[int, int](Unordered())
	l.Restore(map[int]int{1: 200, 0: 100})
	out := l.Bind(pullstream.Values(10, 20, 30))
	outc, errc := collectAsync(out)

	_, d := l.LendStream()
	results := make(chan int)
	d.Sink(pullstream.FromChan(results, nil))
	if v, err := ask(t, d.Source); err != nil || v != 30 {
		t.Fatalf("lent value = %d, %v; want 30", v, err)
	}
	results <- 300
	if _, err := ask(t, d.Source); !errors.Is(err, pullstream.ErrDone) {
		t.Fatalf("ask = %v, want ErrDone", err)
	}
	close(results)

	got := <-outc
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 100 || got[1] != 200 || got[2] != 300 {
		t.Fatalf("output = %v, want [100 200 300]", got)
	}
}

// TestRestoreShorterInput: leftovers restored past the end of a shorter
// resumed input must still be emitted and the stream must terminate,
// not deadlock waiting for an index the input never produces.
func TestRestoreShorterInput(t *testing.T) {
	l := New[int, int]()
	l.Restore(map[int]int{0: 100, 4: 500})
	out := l.Bind(pullstream.Values(10, 20))
	outc, errc := collectAsync(out)

	_, d := l.LendStream()
	results := make(chan int)
	d.Sink(pullstream.FromChan(results, nil))
	if v, err := ask(t, d.Source); err != nil || v != 20 {
		t.Fatalf("lent value = %d, %v; want 20", v, err)
	}
	results <- 200
	if _, err := ask(t, d.Source); !errors.Is(err, pullstream.ErrDone) {
		t.Fatalf("ask = %v, want ErrDone", err)
	}
	close(results)

	got := <-outc
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 100 || got[1] != 200 || got[2] != 500 {
		t.Fatalf("output = %v, want [100 200 500]", got)
	}
}

// TestOnResultFiresOncePerIndex: the export hook sees each index exactly
// once even when speculation produces a losing duplicate result, and
// never fires for restored indices.
func TestOnResultFiresOncePerIndex(t *testing.T) {
	l := New[int, int]()
	l.Restore(map[int]int{0: 100})
	var mu sync.Mutex
	fired := make(map[int]int)
	l.OnResult(func(idx int, v int) {
		mu.Lock()
		fired[idx]++
		mu.Unlock()
	})
	out := l.Bind(pullstream.Values(10, 20))
	outc, errc := collectAsync(out)

	subA, dA := l.LendStream()
	resultsA := make(chan int)
	dA.Sink(pullstream.FromChan(resultsA, nil))
	if v, err := ask(t, dA.Source); err != nil || v != 20 {
		t.Fatalf("subA value = %d, %v; want 20", v, err)
	}
	if n := l.Speculate(subA, 1); n != 1 {
		t.Fatalf("Speculate = %d, want 1", n)
	}
	_, dB := l.LendStream()
	resultsB := make(chan int)
	dB.Sink(pullstream.FromChan(resultsB, nil))
	if v, err := ask(t, dB.Source); err != nil || v != 20 {
		t.Fatalf("subB duplicate = %d, %v; want 20", v, err)
	}
	resultsB <- 201 // wins
	// A further ask from the origin discovers the input's end (reads are
	// lazy) and lets the output complete.
	if _, err := ask(t, dA.Source); !errors.Is(err, pullstream.ErrDone) {
		t.Fatalf("origin's further ask = %v, want ErrDone", err)
	}
	got := <-outc
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 100 || got[1] != 201 {
		t.Fatalf("output = %v, want [100 201]", got)
	}
	resultsA <- 999 // losing duplicate, discarded
	close(resultsA)
	close(resultsB)

	mu.Lock()
	defer mu.Unlock()
	if len(fired) != 1 || fired[1] != 1 {
		t.Fatalf("OnResult fired %v, want exactly {1:1} (no replay, no dup)", fired)
	}
}

// TestOutputWaitsForExport: a result reaches the output only once its
// export hook has returned — the journal records a result before anyone
// can emit it, and so before its emitter can free it — and the output's
// end waits for every export, so a caller that closes the journal once
// the stream ends loses no record.
func TestOutputWaitsForExport(t *testing.T) {
	l := New[int, int]()
	entered, release := make(chan struct{}), make(chan struct{})
	var exported atomic.Int32
	l.OnResult(func(idx int, v int) {
		if idx == 1 {
			close(entered)
			<-release
		}
		exported.Add(1)
	})
	out := l.Bind(pullstream.Values(10, 20))

	_, d := l.LendStream()
	results := make(chan int)
	d.Sink(pullstream.FromChan(results, nil))
	for _, want := range []int{10, 20} {
		if v, err := ask(t, d.Source); err != nil || v != want {
			t.Fatalf("lent value = %d, %v; want %d", v, err, want)
		}
		results <- want * 10
	}
	<-entered // index 1 is accepted; its export is held in the hook
	if _, err := ask(t, d.Source); !errors.Is(err, pullstream.ErrDone) {
		t.Fatalf("ask after the last result = %v, want ErrDone", err)
	}
	close(results)

	if v, err := ask(t, out); err != nil || v != 100 {
		t.Fatalf("output = %d, %v; want 100", v, err)
	}
	type answer struct {
		end      error
		v        int
		exported int32
	}
	got := make(chan answer, 1)
	out(nil, func(end error, v int) { got <- answer{end, v, exported.Load()} })
	select {
	case a := <-got:
		t.Fatalf("output answered %d, %v while its export was held", a.v, a.end)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case a := <-got:
		if a.end != nil || a.v != 200 || a.exported != 2 {
			t.Fatalf("output = %d, %v with %d of 2 exports returned; want 200 after both", a.v, a.end, a.exported)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("output never emitted after the export returned")
	}
	if _, err := ask(t, out); !errors.Is(err, pullstream.ErrDone) {
		t.Fatalf("output end = %v, want ErrDone", err)
	}
}

// TestSimultaneousTailFailuresRelendOnce covers the satellite scenario:
// near the stream tail several sub-streams hold copies of the same values
// (speculation duplicated them); when all of them fail at once, each
// distinct value must be re-lent exactly once — the failed queue must not
// accumulate one copy per dead holder.
func TestSimultaneousTailFailuresRelendOnce(t *testing.T) {
	l := New[int, int]()
	out := l.Bind(pullstream.Values(10, 20, 30))
	outc, errc := collectAsync(out)

	// subA takes all three values (the tail of the stream).
	subA, dA := l.LendStream()
	resultsA := make(chan int)
	errA := make(chan error, 1)
	dA.Sink(pullstream.FromChan(resultsA, errA))
	for _, want := range []int{10, 20, 30} {
		if v, err := ask(t, dA.Source); err != nil || v != want {
			t.Fatalf("subA value = %d, %v; want %d", v, err, want)
		}
	}
	// subA stalls; all its values are duplicated.
	if n := l.Speculate(subA, 3); n != 3 {
		t.Fatalf("Speculate = %d, want 3", n)
	}
	// subB picks up all three duplicates.
	_, dB := l.LendStream()
	resultsB := make(chan int)
	errB := make(chan error, 1)
	dB.Sink(pullstream.FromChan(resultsB, errB))
	for _, want := range []int{10, 20, 30} {
		if v, err := ask(t, dB.Source); err != nil || v != want {
			t.Fatalf("subB duplicate = %d, %v; want %d", v, err, want)
		}
	}

	// Both sub-streams crash simultaneously, each holding a copy of every
	// value.
	errA <- pullstream.ErrAborted
	errB <- pullstream.ErrAborted

	// Wait until both deaths are processed and the failed queue settles.
	waitStats(t, l, func(lentNow, failedQ, _, ended int) bool {
		return ended == 2 && lentNow == 0
	})
	if _, failedQ, _, _ := l.Stats(); failedQ != 3 {
		t.Fatalf("failed queue = %d, want 3 (one copy per distinct value)", failedQ)
	}

	// A fresh sub-stream receives each distinct value exactly once.
	_, dC := l.LendStream()
	resultsC := make(chan int)
	dC.Sink(pullstream.FromChan(resultsC, nil))
	for _, want := range []int{10, 20, 30} {
		if v, err := ask(t, dC.Source); err != nil || v != want {
			t.Fatalf("subC re-lent value = %d, %v; want %d (each distinct value exactly once)", v, err, want)
		}
	}
	// The next ask parks (nothing left to lend) until results finish the
	// stream — in particular it must NOT receive a second copy.
	askEnd := make(chan error, 1)
	dC.Source(nil, func(end error, v int) {
		if end == nil {
			t.Errorf("subC received an extra copy: %d", v)
		}
		askEnd <- end
	})
	resultsC <- 1
	resultsC <- 2
	resultsC <- 3
	if end := <-askEnd; !errors.Is(end, pullstream.ErrDone) {
		t.Fatalf("parked ask end = %v, want ErrDone", end)
	}
	got := <-outc
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("output = %v, want [1 2 3]", got)
	}
	close(resultsC)
}

// TestSingleHolderDeathWithQueuedDuplicate: the degenerate single-failure
// variant — the origin dies while its duplicate still waits in the failed
// queue; the two queued copies must collapse into one.
func TestSingleHolderDeathWithQueuedDuplicate(t *testing.T) {
	l := New[int, int]()
	l.Bind(pullstream.Values(10))

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
	// The origin dies before any other sub-stream takes the duplicate.
	errA <- pullstream.ErrAborted
	waitStats(t, l, func(lentNow, failedQ, _, ended int) bool {
		return ended == 1
	})
	if _, failedQ, _, _ := l.Stats(); failedQ != 1 {
		t.Fatalf("failed queue = %d, want 1 (copies collapsed)", failedQ)
	}

	_, dB := l.LendStream()
	resultsB := make(chan int)
	dB.Sink(pullstream.FromChan(resultsB, nil))
	if v, err := ask(t, dB.Source); err != nil || v != 10 {
		t.Fatalf("subB value = %d, %v", v, err)
	}
	// Only one copy: the next ask must park rather than hand over a dup.
	askEnd := make(chan error, 1)
	dB.Source(nil, func(end error, v int) {
		if end == nil {
			t.Errorf("subB received an extra copy: %d", v)
		}
		askEnd <- end
	})
	resultsB <- 100
	if end := <-askEnd; !errors.Is(end, pullstream.ErrDone) {
		t.Fatalf("parked ask end = %v, want ErrDone", end)
	}
	close(resultsB)
}
