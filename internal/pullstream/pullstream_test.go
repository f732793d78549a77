package pullstream

import (
	"context"
	"errors"
	"strconv"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// TestPullStreamFigure5 reproduces the paper's Figure 5: a source that
// lazily counts from 1 to n connected to a sink that consumes all values.
func TestPullStreamFigure5(t *testing.T) {
	var got []int
	err := Drain(Count(10), func(v int) error {
		got = append(got, v)
		return nil
	})
	if err != nil {
		t.Fatalf("sink finished with error: %v", err)
	}
	if len(got) != 10 {
		t.Fatalf("got %d values, want 10", len(got))
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("got[%d] = %d, want %d", i, v, i+1)
		}
	}
}

func TestCountLazy(t *testing.T) {
	p := NewPuller(Count(1000))
	// Only three requests are issued; the source must not run ahead.
	for want := 1; want <= 3; want++ {
		v, end := p.Pull(nil)
		if end != nil {
			t.Fatalf("unexpected end: %v", end)
		}
		if v != want {
			t.Fatalf("got %d, want %d", v, want)
		}
	}
	if _, end := p.Pull(ErrAborted); !IsNormalEnd(end) {
		t.Fatalf("abort answer = %v, want normal end", end)
	}
}

func TestValuesAndCollect(t *testing.T) {
	got, err := Collect(Values("a", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("got %v", got)
	}
}

func TestEmpty(t *testing.T) {
	got, err := Collect(Values[int]())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %v, want empty", got)
	}
}

func TestErrorSource(t *testing.T) {
	boom := errors.New("boom")
	_, err := Collect(failAfter(0, boom))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// failAfter returns a source that counts from 1 to n and then fails
// with err.
func failAfter(n int, err error) Source[int] {
	i := 0
	return func(abort error, cb Callback[int]) {
		switch {
		case abort != nil:
			cb(abort, 0)
		case i >= n:
			cb(err, 0)
		default:
			i++
			cb(nil, i)
		}
	}
}

// take pulls at most n values from src and then aborts it, the way a
// consumer that needs only a prefix of a stream releases the rest.
func take[T any](src Source[T], n int) ([]T, error) {
	p := NewPuller(src)
	var got []T
	for len(got) < n {
		v, end := p.Pull(nil)
		if end != nil {
			if IsNormalEnd(end) {
				return got, nil
			}
			return got, end
		}
		got = append(got, v)
	}
	_, end := p.Pull(ErrAborted)
	if !IsNormalEnd(end) {
		return got, end
	}
	return got, nil
}

// TestTakeAbortsUpstream: taking two values through a Through and then
// aborting must carry the abort up to the source.
func TestTakeAbortsUpstream(t *testing.T) {
	aborted := false
	upstream := func(abort error, cb Callback[int]) {
		if abort != nil {
			aborted = true
			cb(abort, 0)
			return
		}
		cb(nil, 7)
	}
	got, err := take(Map(func(v int) int { return v + 1 })(upstream), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1] != 8 {
		t.Fatalf("got %v, want [8 8]", got)
	}
	if !aborted {
		t.Fatal("the abort did not reach the upstream source")
	}
}

func TestMap(t *testing.T) {
	got, err := Collect(Map(strconv.Itoa)(Count(3)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != "1" || got[2] != "3" {
		t.Fatalf("got %v", got)
	}
}

func TestFilter(t *testing.T) {
	even := Filter(func(v int) bool { return v%2 == 0 })
	got, err := Collect(even(Count(10)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || got[0] != 2 || got[4] != 10 {
		t.Fatalf("got %v", got)
	}
}

// TestTap: the observer sees every answer, the end signal included, and
// the stream passes through unchanged.
func TestTap(t *testing.T) {
	var seen int32
	var ended error
	src := Tap(Count(7), func(end error, _ int) {
		if end != nil {
			ended = end
			return
		}
		atomic.AddInt32(&seen, 1)
	})
	got, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 || seen != 7 {
		t.Fatalf("got %v, seen = %d, want 7 values seen", got, seen)
	}
	if !errors.Is(ended, ErrDone) {
		t.Fatalf("observed end = %v, want ErrDone", ended)
	}
}

func TestFromChanToChan(t *testing.T) {
	in := make(chan int, 3)
	in <- 1
	in <- 2
	in <- 3
	close(in)
	out, errc := ToChan(context.Background(), FromChan(in, nil))
	var got []int
	for v := range out {
		got = append(got, v)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestFromChanError(t *testing.T) {
	boom := errors.New("boom")
	in := make(chan int)
	errs := make(chan error, 1)
	errs <- boom
	_, err := Collect(FromChan(in, errs))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestDrainEachError(t *testing.T) {
	boom := errors.New("boom")
	err := Drain(Count(10), func(v int) error {
		if v == 4 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestCheckerCleanStream(t *testing.T) {
	c := NewChecker[int]()
	if _, err := Collect(c.Wrap(Count(50))); err != nil {
		t.Fatal(err)
	}
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	if c.Requests() != 51 { // 50 values + done
		t.Fatalf("requests = %d, want 51", c.Requests())
	}
}

func TestCheckerDetectsDoubleAnswer(t *testing.T) {
	c := NewChecker[int]()
	bad := func(abort error, cb Callback[int]) {
		cb(nil, 1)
		cb(nil, 2) // protocol violation: answers the same request twice
	}
	src := c.Wrap(bad)
	src(nil, func(error, int) {})
	found := false
	for _, v := range c.Violations() {
		if v.Kind == "double-answer" {
			found = true
		}
	}
	if !found {
		t.Fatalf("double-answer not detected: %v", c.Violations())
	}
}

func TestCheckerDetectsAnswerAfterEnd(t *testing.T) {
	c := NewChecker[int]()
	i := 0
	bad := func(abort error, cb Callback[int]) {
		i++
		if i == 1 {
			cb(ErrDone, 0)
			return
		}
		cb(nil, 42) // value after end
	}
	src := c.Wrap(bad)
	src(nil, func(error, int) {})
	src(nil, func(error, int) {})
	var kinds []string
	for _, v := range c.Violations() {
		kinds = append(kinds, v.Kind)
	}
	if len(kinds) == 0 {
		t.Fatal("no violations detected")
	}
}

// QuickCheck property: for any slice, Collect(Values(...)) round-trips.
func TestQuickValuesRoundTrip(t *testing.T) {
	f := func(vs []int64) bool {
		got, err := Collect(Values(vs...))
		if err != nil {
			return false
		}
		if len(got) != len(vs) {
			return false
		}
		for i := range vs {
			if got[i] != vs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// QuickCheck property: Map(f) over Values == mapping the slice.
func TestQuickMapHomomorphism(t *testing.T) {
	f := func(vs []int32) bool {
		double := Map(func(v int32) int64 { return int64(v) * 2 })
		got, err := Collect(double(Values(vs...)))
		if err != nil {
			return false
		}
		for i := range vs {
			if got[i] != int64(vs[i])*2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// QuickCheck property: taking n values yields min(n, len) values.
func TestQuickTakeLength(t *testing.T) {
	f := func(vs []int, n uint8) bool {
		got, err := take(Values(vs...), int(n))
		if err != nil {
			return false
		}
		want := len(vs)
		if int(n) < want {
			want = int(n)
		}
		return len(got) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// QuickCheck property: Filter ∘ Collect == slice filter.
func TestQuickFilterEquivalence(t *testing.T) {
	pred := func(v int16) bool { return v%3 == 0 }
	f := func(vs []int16) bool {
		got, err := Collect(Filter(pred)(Values(vs...)))
		if err != nil {
			return false
		}
		var want []int16
		for _, v := range vs {
			if pred(v) {
				want = append(want, v)
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
