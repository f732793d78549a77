package lender

import (
	"errors"
	"sync"
	"testing"
	"time"

	"pando/internal/pullstream"
)

// runWorker attaches a synthetic worker to a sub-stream: it repeatedly
// asks for values, applies f, and feeds results back through the sink.
// If crashAfter >= 0, the worker dies (sink errors, source aborts) after
// processing crashAfter values, re-creating a browser tab being closed.
func runWorker[I, O any](t *testing.T, l *Lender[I, O], f func(I) O, delay time.Duration, crashAfter int) *sync.WaitGroup {
	t.Helper()
	_, d := l.LendStream()
	var wg sync.WaitGroup
	wg.Add(1)
	results := make(chan O)
	crash := errors.New("worker crashed")
	go func() {
		defer wg.Done()
		processed := 0
		for {
			type ans struct {
				end error
				v   I
			}
			ch := make(chan ans, 1)
			d.Source(nil, func(end error, v I) { ch <- ans{end, v} })
			a := <-ch
			if a.end != nil {
				close(results)
				return
			}
			if crashAfter >= 0 && processed >= crashAfter {
				// Crash-stop: abort the source, error the sink.
				d.Source(crash, func(error, I) {})
				return
			}
			if delay > 0 {
				time.Sleep(delay)
			}
			results <- f(a.v)
			processed++
		}
	}()
	errOnCrash := make(chan error, 1)
	if crashAfter >= 0 {
		go func() {
			// When the processing goroutine crashes it stops feeding
			// results; signal the sink with an error after it stops.
			wg.Wait()
			errOnCrash <- crash
		}()
	}
	d.Sink(pullstream.FromChan(results, errOnCrash))
	return &wg
}

func collectAsync[O any](src pullstream.Source[O]) (<-chan []O, <-chan error) {
	outc := make(chan []O, 1)
	errc := make(chan error, 1)
	go func() {
		vs, err := pullstream.Collect(src)
		outc <- vs
		errc <- err
	}()
	return outc, errc
}

func TestSingleWorkerOrdered(t *testing.T) {
	l := New[int, int]()
	out := l.Bind(pullstream.Count(20))
	outc, errc := collectAsync(out)
	runWorker(t, l, func(v int) int { return v * v }, 0, -1)
	got := <-outc
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("got %d results, want 20", len(got))
	}
	for i, v := range got {
		want := (i + 1) * (i + 1)
		if v != want {
			t.Fatalf("got[%d] = %d, want %d", i, v, want)
		}
	}
}

func TestMultipleWorkersOrderedOutput(t *testing.T) {
	// Declarative concurrency (paper §2.3): the output must be identical
	// regardless of the number of workers or their relative speeds.
	l := New[int, int]()
	out := l.Bind(pullstream.Count(200))
	outc, errc := collectAsync(out)
	runWorker(t, l, func(v int) int { return v * 2 }, 0, -1)
	runWorker(t, l, func(v int) int { return v * 2 }, time.Millisecond, -1)
	runWorker(t, l, func(v int) int { return v * 2 }, 300*time.Microsecond, -1)
	got := <-outc
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if len(got) != 200 {
		t.Fatalf("got %d results, want 200", len(got))
	}
	for i, v := range got {
		if v != (i+1)*2 {
			t.Fatalf("got[%d] = %d, want %d (output must be ordered)", i, v, (i+1)*2)
		}
	}
}

// TestDeploymentExampleFigure4 reproduces the paper's Figure 4 scenario:
// three inputs; a tablet joins and renders x1; a phone joins and renders
// x3; the tablet crashes while holding x2; the phone takes over x2 and the
// processing completes with ordered outputs.
func TestDeploymentExampleFigure4(t *testing.T) {
	l := New[string, string]()
	out := l.Bind(pullstream.Values("x1", "x2", "x3"))
	outc, errc := collectAsync(out)

	render := func(v string) string { return "f(" + v + ")" }

	// The tablet processes one value then crashes while holding the next.
	tabletGone := runWorker(t, l, render, 0, 1)
	tabletGone.Wait()

	// The phone joins, renders the remaining values including the one the
	// tablet dropped.
	runWorker(t, l, render, 0, -1)

	got := <-outc
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	want := []string{"f(x1)", "f(x2)", "f(x3)"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestPropertyFaultToleranceManyCrashes(t *testing.T) {
	// Liveness: once an input has been read, if there are active
	// participating devices, the lender eventually provides f(x).
	l := New[int, int]()
	out := l.Bind(pullstream.Count(100))
	outc, errc := collectAsync(out)
	// Five workers that each crash after a few values...
	for i := 0; i < 5; i++ {
		runWorker(t, l, func(v int) int { return -v }, 0, 3+i)
	}
	// ...and one reliable worker that survives.
	runWorker(t, l, func(v int) int { return -v }, 0, -1)
	got := <-outc
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("got %d results, want 100", len(got))
	}
	for i, v := range got {
		if v != -(i + 1) {
			t.Fatalf("got[%d] = %d, want %d", i, v, -(i + 1))
		}
	}
}

func TestPropertyLazyInput(t *testing.T) {
	// Lazy: inputs are read only when a worker asks. With no worker, no
	// reads may happen.
	reads := 0
	src := func(abort error, cb pullstream.Callback[int]) {
		if abort != nil {
			cb(abort, 0)
			return
		}
		reads++
		cb(nil, reads)
	}
	l := New[int, int]()
	out := l.Bind(src)
	if reads != 0 {
		t.Fatalf("input read %d times before any worker asked", reads)
	}

	// One worker asks exactly twice; at most two reads may occur.
	_, d := l.LendStream()
	for i := 0; i < 2; i++ {
		done := make(chan struct{})
		d.Source(nil, func(end error, v int) { close(done) })
		<-done
	}
	if reads != 2 {
		t.Fatalf("input read %d times, want exactly 2 (lazy)", reads)
	}
	_ = out
}

func TestPropertyConservativeSingleCopy(t *testing.T) {
	// Conservative: a value is lent to at most one sub-stream at a time.
	var mu sync.Mutex
	lentCount := make(map[int]int)

	l := New[int, int]()
	out := l.Bind(pullstream.Count(50))
	outc, errc := collectAsync(out)

	wrap := func(v int) int {
		mu.Lock()
		lentCount[v]++
		mu.Unlock()
		return v
	}
	for i := 0; i < 4; i++ {
		runWorker(t, l, wrap, 0, -1)
	}
	<-outc
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for v, n := range lentCount {
		if n != 1 {
			t.Fatalf("value %d processed %d times; conservative lending requires exactly 1", v, n)
		}
	}
	if len(lentCount) != 50 {
		t.Fatalf("processed %d distinct values, want 50", len(lentCount))
	}
}

func TestPropertyAdaptiveFasterWorkerGetsMore(t *testing.T) {
	// Adaptive: faster devices receive more inputs.
	var mu sync.Mutex
	counts := make(map[string]int)
	count := func(name string) func(int) int {
		return func(v int) int {
			mu.Lock()
			counts[name]++
			mu.Unlock()
			return v
		}
	}
	l := New[int, int]()
	out := l.Bind(pullstream.Count(60))
	outc, errc := collectAsync(out)
	runWorker(t, l, count("fast"), 200*time.Microsecond, -1)
	runWorker(t, l, count("slow"), 4*time.Millisecond, -1)
	<-outc
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if counts["fast"] <= counts["slow"] {
		t.Fatalf("fast worker processed %d <= slow worker %d; lending must be adaptive",
			counts["fast"], counts["slow"])
	}
}

func TestPropertyDynamicLateJoin(t *testing.T) {
	// Dynamic: a worker joining mid-stream participates immediately.
	l := New[int, int]()
	out := l.Bind(pullstream.Count(40))
	outc, errc := collectAsync(out)
	runWorker(t, l, func(v int) int { return v }, time.Millisecond, -1)
	time.Sleep(5 * time.Millisecond)
	runWorker(t, l, func(v int) int { return v }, 0, -1) // joins late
	got := <-outc
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if len(got) != 40 {
		t.Fatalf("got %d, want 40", len(got))
	}
}

func TestUnorderedMode(t *testing.T) {
	l := New[int, int](Unordered())
	out := l.Bind(pullstream.Count(50))
	outc, errc := collectAsync(out)
	for i := 0; i < 3; i++ {
		runWorker(t, l, func(v int) int { return v }, time.Duration(i)*100*time.Microsecond, -1)
	}
	got := <-outc
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("got %d results, want 50", len(got))
	}
	seen := make(map[int]bool)
	for _, v := range got {
		if seen[v] {
			t.Fatalf("duplicate result %d", v)
		}
		seen[v] = true
	}
}

func TestEmptyInput(t *testing.T) {
	l := New[int, int]()
	out := l.Bind(pullstream.Values[int]())
	outc, errc := collectAsync(out)
	runWorker(t, l, func(v int) int { return v }, 0, -1)
	got := <-outc
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %v, want empty", got)
	}
}

func TestInputErrorPropagates(t *testing.T) {
	boom := errors.New("input boom")
	l := New[int, int]()
	i := 0
	out := l.Bind(func(abort error, cb pullstream.Callback[int]) {
		switch {
		case abort != nil:
			cb(abort, 0)
		case i == 3:
			cb(boom, 0)
		default:
			i++
			cb(nil, i)
		}
	})
	outc, errc := collectAsync(out)
	runWorker(t, l, func(v int) int { return v * 10 }, 0, -1)
	got := <-outc
	err := <-errc
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The three values read before the failure must still be delivered.
	if len(got) != 3 {
		t.Fatalf("got %v, want 3 values before the error", got)
	}
}

// take collects n values from src and then aborts it.
func take[T any](src pullstream.Source[T], n int) ([]T, error) {
	var got []T
	err := pullstream.Drain(src, func(v T) error {
		got = append(got, v)
		if len(got) == n {
			return pullstream.ErrAborted
		}
		return nil
	})
	if errors.Is(err, pullstream.ErrAborted) {
		err = nil
	}
	return got, err
}

func TestDownstreamAbortReleasesWorkers(t *testing.T) {
	l := New[int, int]()
	out := l.Bind(pullstream.Count(1000))
	runWorker(t, l, func(v int) int { return v }, 100*time.Microsecond, -1)

	got, err := take(out, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("got %v, want 5 values", got)
	}
	// After the abort, new sub-stream asks must answer done promptly.
	_, d := l.LendStream()
	done := make(chan error, 1)
	d.Source(nil, func(end error, v int) { done <- end })
	select {
	case end := <-done:
		if end == nil {
			t.Fatal("sub-stream produced a value after downstream abort")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("sub-stream ask hung after downstream abort")
	}
}

func TestLendStreamAfterCompletion(t *testing.T) {
	l := New[int, int]()
	out := l.Bind(pullstream.Count(5))
	outc, errc := collectAsync(out)
	runWorker(t, l, func(v int) int { return v }, 0, -1)
	<-outc
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	// A worker joining after completion is told the stream is done.
	_, d := l.LendStream()
	done := make(chan error, 1)
	d.Source(nil, func(end error, v int) { done <- end })
	if end := <-done; end == nil {
		t.Fatal("late sub-stream received a value after completion")
	}
}

func TestAllWorkersCrashThenRecovery(t *testing.T) {
	// Every worker crashes; values are stranded in the failed queue; a
	// fresh worker joining later must complete the stream (liveness under
	// "if there are active participating devices").
	l := New[int, int]()
	out := l.Bind(pullstream.Count(10))
	outc, errc := collectAsync(out)

	w1 := runWorker(t, l, func(v int) int { return v }, 0, 2)
	w2 := runWorker(t, l, func(v int) int { return v }, 0, 2)
	w1.Wait()
	w2.Wait()

	runWorker(t, l, func(v int) int { return v }, 0, -1)
	got := <-outc
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("got %d results, want 10", len(got))
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("got[%d] = %d, want %d", i, v, i+1)
		}
	}
}

func TestAlgorithm1FailedValueAnsweredFirst(t *testing.T) {
	// Algorithm 1 lines 2-3: when failed is non-empty, an ask must be
	// answered with the oldest failed value, not a fresh input.
	l := New[int, int]()
	reads := 0
	src := func(abort error, cb pullstream.Callback[int]) {
		if abort != nil {
			cb(abort, 0)
			return
		}
		reads++
		if reads > 3 {
			cb(pullstream.ErrDone, 0)
			return
		}
		cb(nil, reads*100)
	}
	_ = l.Bind(src)

	// Worker A takes two values then crashes without answering.
	subA, dA := l.LendStream()
	for i := 0; i < 2; i++ {
		done := make(chan struct{})
		dA.Source(nil, func(end error, v int) { close(done) })
		<-done
	}
	dA.Source(errors.New("crash"), func(error, int) {})
	_ = subA

	// Worker B's first two asks must receive the failed values 100 and
	// 200 (oldest first) without any new input read.
	readsBefore := reads
	_, dB := l.LendStream()
	for want := 100; want <= 200; want += 100 {
		got := make(chan int, 1)
		dB.Source(nil, func(end error, v int) { got <- v })
		if v := <-got; v != want {
			t.Fatalf("re-lent value = %d, want %d (oldest failed first)", v, want)
		}
	}
	if reads != readsBefore {
		t.Fatalf("input was read %d extra times; failed values must be served first", reads-readsBefore)
	}
}

func TestAlgorithm1WaitOnOthers(t *testing.T) {
	// Algorithm 1 lines 4-5 and 20-25: after the input terminates, an
	// asking sub-stream must wait until the last result is received or a
	// failure makes a value available again.
	l := New[int, int]()
	_ = l.Bind(pullstream.Count(1))

	// Worker A holds the only value.
	_, dA := l.LendStream()
	gotA := make(chan int, 1)
	dA.Source(nil, func(end error, v int) { gotA <- v })
	<-gotA

	// Worker B asks; the input is exhausted, so B must park, not get done.
	_, dB := l.LendStream()
	answered := make(chan error, 1)
	dB.Source(nil, func(end error, v int) { answered <- end })
	select {
	case end := <-answered:
		t.Fatalf("B answered %v while A still held the value; must waitOnOthers", end)
	case <-time.After(50 * time.Millisecond):
	}

	// A crashes: B must now be answered with the failed value.
	dA.Source(errors.New("crash"), func(error, int) {})
	select {
	case end := <-answered:
		if end != nil {
			t.Fatalf("B answered end=%v, want the re-lent value", end)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("B was never answered after A crashed")
	}
}

func TestAlgorithm1DoneAfterLastResult(t *testing.T) {
	// waitOnOthers: when the last result is received, parked asks answer done.
	l := New[int, int]()
	out := l.Bind(pullstream.Count(1))
	outc, errc := collectAsync(out)

	_, dA := l.LendStream()
	var lentV int
	got := make(chan struct{})
	dA.Source(nil, func(end error, v int) { lentV = v; close(got) })
	<-got

	_, dB := l.LendStream()
	answered := make(chan error, 1)
	dB.Source(nil, func(end error, v int) { answered <- end })

	// A answers its value: B must then be told done.
	results := make(chan int, 1)
	results <- lentV * 7
	close(results)
	dA.Sink(pullstream.FromChan(results, nil))

	select {
	case end := <-answered:
		if !errors.Is(end, pullstream.ErrDone) {
			t.Fatalf("B end = %v, want done", end)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("B never answered after last result")
	}
	gotOut := <-outc
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if len(gotOut) != 1 || gotOut[0] != 7 {
		t.Fatalf("output = %v, want [7]", gotOut)
	}
}

func TestStatsCounters(t *testing.T) {
	l := New[int, int]()
	_ = l.Bind(pullstream.Count(3))
	_, d := l.LendStream()
	got := make(chan struct{})
	d.Source(nil, func(end error, v int) { close(got) })
	<-got
	lentNow, failedQ, subs, ended := l.Stats()
	if lentNow != 1 || failedQ != 0 || subs != 1 || ended != 0 {
		t.Fatalf("stats = (%d,%d,%d,%d), want (1,0,1,0)", lentNow, failedQ, subs, ended)
	}
	d.Source(errors.New("crash"), func(error, int) {})
	lentNow, failedQ, _, ended = l.Stats()
	if lentNow != 0 || failedQ != 1 || ended != 1 {
		t.Fatalf("after crash stats = (%d,%d,-,%d), want (0,1,-,1)", lentNow, failedQ, ended)
	}
}
