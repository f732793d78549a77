package pullstream

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
)

// goid returns the calling goroutine's id, parsed from its stack header.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// TestPumpSyncAnswersLoop: a million synchronous answers run as a loop on
// the calling goroutine, every value at the stack depth of the first.
func TestPumpSyncAnswersLoop(t *testing.T) {
	const n = 1_000_000
	var pcs [256]uintptr
	depth, got := 0, 0
	var end error = errors.New("done never called")
	Pump(Count(n), func(v int) {
		got++
		if v != got {
			t.Fatalf("value %d, want %d", v, got)
		}
		if v%1000 != 1 {
			return
		}
		d := runtime.Callers(0, pcs[:])
		if depth == 0 {
			depth = d
		} else if d != depth {
			t.Fatalf("value %d ran at stack depth %d, value 1 at %d", v, d, depth)
		}
	}, func(err error) { end = err })
	if !IsNormalEnd(end) || got != n {
		t.Fatalf("pumped %d values, end %v; want %d and a normal end", got, end, n)
	}
}

// TestPumpAsyncAnswerRunsOnAnswerer: Pump returns once an ask is left
// pending, and the goroutine that answers it runs each and the next ask.
func TestPumpAsyncAnswerRunsOnAnswerer(t *testing.T) {
	parked := make(chan Callback[int], 1)
	var askedOn []uint64
	i := 0
	src := func(abort error, cb Callback[int]) {
		askedOn = append(askedOn, goid())
		if i++; i > 1 {
			cb(ErrDone, 0)
			return
		}
		parked <- cb
	}
	var eachOn uint64
	ended := make(chan error, 1)
	Pump(Source[int](src), func(int) { eachOn = goid() }, func(err error) { ended <- err })
	select {
	case <-ended:
		t.Fatal("the stream ended before its pending ask was answered")
	default:
	}
	caller := goid()
	answerer := make(chan uint64)
	go func() {
		answerer <- goid()
		(<-parked)(nil, 7)
	}()
	id := <-answerer
	if err := <-ended; !IsNormalEnd(err) {
		t.Fatal(err)
	}
	if eachOn != id {
		t.Fatalf("each ran on goroutine %d, want the answerer %d", eachOn, id)
	}
	if len(askedOn) != 2 || askedOn[0] != caller || askedOn[1] != id {
		t.Fatalf("asks ran on %v, want [%d %d] (caller, answerer)", askedOn, caller, id)
	}
}

// TestPumpNeverAsksTwice: whichever way a source answers — at once, or
// later from another goroutine — Pump never has two asks outstanding.
func TestPumpNeverAsksTwice(t *testing.T) {
	const n = 20_000
	var inFlight atomic.Int32
	var next atomic.Int64
	rng := rand.New(rand.NewSource(1))
	src := func(abort error, cb Callback[int]) {
		if inFlight.Add(1) != 1 {
			t.Error("a second ask while one was outstanding")
		}
		async := rng.Intn(3) == 0 // asks are serial, so rng needs no lock
		answer := func() {
			v := int(next.Add(1))
			inFlight.Add(-1)
			if v > n {
				cb(ErrDone, 0)
				return
			}
			cb(nil, v)
		}
		if async {
			go answer()
			return
		}
		answer()
	}
	got := 0
	ended := make(chan error, 1)
	Pump(Source[int](src), func(v int) {
		if got++; v != got {
			t.Errorf("value %d, want %d", v, got)
		}
	}, func(err error) { ended <- err })
	if err := <-ended; !IsNormalEnd(err) {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("pumped %d values, want %d", got, n)
	}
}
