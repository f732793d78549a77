package lender

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pando/internal/pullstream"
	"pando/internal/race"
)

// inputReaders counts the goroutines currently inside readInput.
func inputReaders() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), ").readInput(")
}

// awaitNoReader waits for the test's input reader to exit: the count
// must come back to base, what earlier tests' abandoned lenders left.
func awaitNoReader(t *testing.T, base int, when string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for inputReaders() > base {
		if time.Now().After(deadline) {
			t.Fatalf("input reader goroutine still alive after %s", when)
		}
		time.Sleep(time.Millisecond)
	}
}

// countingSource is an endless (or n-long) input that counts its reads
// and remembers the abort it was released with.
type countingSource struct {
	n       int
	reads   atomic.Int64
	aborted atomic.Value
}

func (c *countingSource) source(abort error, cb pullstream.Callback[int]) {
	if abort != nil {
		c.aborted.Store(abort)
		cb(abort, 0)
		return
	}
	r := int(c.reads.Add(1))
	if c.n > 0 && r > c.n {
		cb(pullstream.ErrDone, 0)
		return
	}
	cb(nil, r)
}

// TestInputReaderIsLazy: the one long-lived reader reads exactly as many
// inputs as sub-streams asked for — never one ahead — however the asks
// are spread over sub-streams and time.
func TestInputReaderIsLazy(t *testing.T) {
	base := inputReaders()
	in := &countingSource{}
	l := New[int, int]()
	l.Bind(in.source)
	var subs []pullstream.Duplex[int, int]
	for i := 0; i < 3; i++ {
		_, d := l.LendStream()
		subs = append(subs, d)
	}
	for k := 1; k <= 50; k++ {
		if _, end := ask(t, subs[k%len(subs)].Source); end != nil {
			t.Fatalf("ask %d: %v", k, end)
		}
		if k%10 == 0 {
			time.Sleep(time.Millisecond) // a reader running ahead would show here
		}
		if got := int(in.reads.Load()); got != k {
			t.Fatalf("after %d asks the input was read %d times", k, got)
		}
	}
	if n := inputReaders() - base; n != 1 {
		t.Fatalf("%d input reader goroutines for one lender, want 1", n)
	}
	l.Abort(errors.New("test over"))
	awaitNoReader(t, base, "Abort")
}

// TestInputReaderExits: the reader goroutine is gone after the input's
// normal end, after a downstream abort (with and without a read in
// flight), and after Abort.
func TestInputReaderExits(t *testing.T) {
	base := inputReaders()
	t.Run("input end", func(t *testing.T) {
		l := New[int, int]()
		out := l.Bind(pullstream.Count(40))
		outc, errc := collectAsync(out)
		runWorker(t, l, func(v int) int { return v }, 0, -1)
		if got, err := <-outc, <-errc; err != nil || len(got) != 40 {
			t.Fatalf("%d results, %v", len(got), err)
		}
		awaitNoReader(t, base, "the input ended")
	})
	t.Run("downstream abort", func(t *testing.T) {
		in := &countingSource{}
		l := New[int, int]()
		out := l.Bind(in.source)
		runWorker(t, l, func(v int) int { return v }, 50*time.Microsecond, -1)
		if got, err := take(out, 5); err != nil || len(got) != 5 {
			t.Fatalf("%v, %v", got, err)
		}
		awaitNoReader(t, base, "a downstream abort")
		if in.aborted.Load() == nil {
			t.Fatal("the input was never told about the abort")
		}
	})
	t.Run("downstream abort during a read", func(t *testing.T) {
		release := make(chan struct{})
		var aborted atomic.Bool
		l := New[int, int]()
		out := l.Bind(func(abort error, cb pullstream.Callback[int]) {
			if abort != nil {
				aborted.Store(true)
				cb(abort, 0)
				return
			}
			<-release // a read that is still in flight when the abort comes
			cb(nil, 1)
		})
		_, d := l.LendStream()
		d.Source(nil, func(error, int) {})
		for inputReaders() == base {
			runtime.Gosched()
		}
		done := make(chan struct{})
		go func() {
			out(pullstream.ErrAborted, func(error, int) {})
			close(done)
		}()
		<-done // the abort does not wait for the read
		close(release)
		awaitNoReader(t, base, "an abort that found a read in flight")
		if !aborted.Load() {
			t.Fatal("the input was never told about the abort")
		}
	})
	t.Run("Abort", func(t *testing.T) {
		in := &countingSource{}
		l := New[int, int]()
		l.Bind(in.source)
		_, d := l.LendStream()
		if _, end := ask(t, d.Source); end != nil {
			t.Fatal(end)
		}
		if inputReaders() != base+1 {
			t.Fatal("no reader after the first read")
		}
		l.Abort(errors.New("owner gave up"))
		awaitNoReader(t, base, "Abort")
	})
}

// TestLenderAllocsPerItem guards the service step: collecting the answers
// of a transition on the stack, typed lent values and the reorder ring
// brought a 512-item stream over two sub-streams from 18 allocations per
// item to about 1 (what is left is per stream, not per item).
func TestLenderAllocsPerItem(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const items = 512
	// serve plays a worker with one reply channel and one callback for
	// its whole stream, so that what is counted is the lender's.
	serve := func(d pullstream.Duplex[int, int]) {
		type ans struct {
			v   int
			end error
		}
		lent := make(chan ans, 1)
		cb := func(end error, v int) { lent <- ans{v, end} }
		results := make(chan int, 16)
		d.Sink(pullstream.FromChan(results, nil))
		for {
			d.Source(nil, cb)
			a := <-lent
			if a.end != nil {
				close(results)
				return
			}
			results <- a.v + 1
		}
	}
	perStream := testing.AllocsPerRun(20, func() {
		l := New[int, int]()
		out := l.Bind(pullstream.Count(items))
		for s := 0; s < 2; s++ {
			_, d := l.LendStream()
			go serve(d)
		}
		if got, err := pullstream.Collect(out); err != nil || len(got) != items {
			t.Fatalf("%d results, %v", len(got), err)
		}
	})
	if perItem := perStream / items; perItem > 3 {
		t.Fatalf("lender allocates %.1f objects per item, want at most 3", perItem)
	}
}
