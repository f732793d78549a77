package stubborn

import (
	"errors"
	"sync"
	"testing"

	"pando/internal/pullstream"
)

// result pairs an input with its computed output so classify can identify
// which input to resubmit.
type result struct {
	in  int
	out int
}

func process(src pullstream.Source[int]) pullstream.Source[result] {
	return pullstream.Map(func(v int) result { return result{in: v, out: v * 10} })(src)
}

func TestStubbornAllConfirmFirstTry(t *testing.T) {
	th := Stubborn[int, result](process,
		func(result) error { return nil },
		func(r result) int { return r.in })
	got, err := pullstream.Collect(th(pullstream.Count(10)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("got %d results, want 10", len(got))
	}
	for i, r := range got {
		if r.out != (i+1)*10 {
			t.Fatalf("got[%d] = %+v", i, r)
		}
	}
}

func TestStubbornRetriesFailedDownloads(t *testing.T) {
	// Every input's first "download" fails; the second succeeds. All
	// inputs must still be output exactly once (paper Figure 12).
	var mu sync.Mutex
	attempts := make(map[int]int)
	confirm := func(r result) error {
		mu.Lock()
		defer mu.Unlock()
		attempts[r.in]++
		if attempts[r.in] == 1 {
			return errors.New("download failed")
		}
		return nil
	}
	th := Stubborn[int, result](process, confirm, func(r result) int { return r.in })
	got, err := pullstream.Collect(th(pullstream.Count(20)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("got %d results, want 20", len(got))
	}
	seen := make(map[int]int)
	for _, r := range got {
		seen[r.in]++
	}
	for v := 1; v <= 20; v++ {
		if seen[v] != 1 {
			t.Fatalf("input %d output %d times, want exactly 1", v, seen[v])
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for v := 1; v <= 20; v++ {
		if attempts[v] != 2 {
			t.Fatalf("input %d attempted %d times, want 2", v, attempts[v])
		}
	}
}

func TestStubbornChronicFailureEventuallySucceeds(t *testing.T) {
	var mu sync.Mutex
	attempts := make(map[int]int)
	confirm := func(r result) error {
		mu.Lock()
		defer mu.Unlock()
		attempts[r.in]++
		if attempts[r.in] < 5 {
			return errors.New("still failing")
		}
		return nil
	}
	th := Stubborn[int, result](process, confirm, func(r result) int { return r.in })
	got, err := pullstream.Collect(th(pullstream.Count(3)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d, want 3", len(got))
	}
}

func TestLoopDropVerdict(t *testing.T) {
	th := Loop[int, result](process, func(r result) (Verdict, int) {
		if r.in%2 == 0 {
			return Drop, 0
		}
		return Accept, 0
	})
	got, err := pullstream.Collect(th(pullstream.Count(10)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("got %d results, want 5 odd ones", len(got))
	}
	for _, r := range got {
		if r.in%2 == 0 {
			t.Fatalf("dropped value %d leaked to output", r.in)
		}
	}
}

func TestLoopRetryProducesNewInput(t *testing.T) {
	// Synchronous-parallel-search style: a retry resubmits a *different*
	// input (the next range to mine).
	th := Loop[int, result](process, func(r result) (Verdict, int) {
		if r.in < 100 {
			return Retry, r.in + 100 // "next attempt"
		}
		return Accept, 0
	})
	got, err := pullstream.Collect(th(pullstream.Values(1, 2, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d results, want 3", len(got))
	}
	for _, r := range got {
		if r.in < 100 {
			t.Fatalf("unaccepted input %d leaked", r.in)
		}
	}
}

func TestLoopEmptyInput(t *testing.T) {
	th := Loop[int, result](process, func(r result) (Verdict, int) { return Accept, 0 })
	got, err := pullstream.Collect(th(pullstream.Values[int]()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %v, want empty", got)
	}
}

func TestLoopInputErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	th := Loop[int, result](process, func(r result) (Verdict, int) { return Accept, 0 })
	failing := func(abort error, cb pullstream.Callback[int]) {
		if abort != nil {
			cb(abort, 0)
			return
		}
		cb(boom, 0)
	}
	_, err := pullstream.Collect(th(failing))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
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

func TestLoopAbortPropagates(t *testing.T) {
	th := Loop[int, result](process, func(r result) (Verdict, int) { return Accept, 0 })
	out := th(pullstream.Count(1000))
	got, err := take(out, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("got %d, want 4", len(got))
	}
}

func TestStubbornRetriesServedBeforeFreshInputs(t *testing.T) {
	// A resubmitted input must be served ahead of fresh inputs so failed
	// work is not starved.
	var order []int
	var mu sync.Mutex
	track := func(src pullstream.Source[int]) pullstream.Source[result] {
		return pullstream.Map(func(v int) result {
			mu.Lock()
			order = append(order, v)
			mu.Unlock()
			return result{in: v, out: v}
		})(src)
	}
	first := true
	th := Loop[int, result](track, func(r result) (Verdict, int) {
		if r.in == 1 && first {
			first = false
			return Retry, 1
		}
		return Accept, 0
	})
	if _, err := pullstream.Collect(th(pullstream.Count(5))); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 6 {
		t.Fatalf("order = %v, want 6 processings", order)
	}
	if order[0] != 1 || order[1] != 1 {
		t.Fatalf("order = %v; the retry of 1 must be served before fresh input 2", order)
	}
}
