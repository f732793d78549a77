package pullstream

import (
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// TestPullStreamFigure5 reproduces the paper's Figure 5: a source that
// lazily counts from 1 to n connected to a sink that consumes all values.
func TestPullStreamFigure5(t *testing.T) {
	var got []int
	Pipe(Count(10), DrainSink(func(v int) error {
		got = append(got, v)
		return nil
	}, func(err error) {
		if err != nil {
			t.Fatalf("sink finished with error: %v", err)
		}
	}))
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
	got, err := Collect(Empty[int]())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %v, want empty", got)
	}
}

func TestErrorSource(t *testing.T) {
	boom := errors.New("boom")
	_, err := Collect(Error[int](boom))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestInfiniteWithTake(t *testing.T) {
	src := Take[int](5)(Infinite(func(i int) int { return i * i }))
	got, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 4, 9, 16}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

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
	if _, err := Collect(Take[int](2)(upstream)); err != nil {
		t.Fatal(err)
	}
	if !aborted {
		t.Fatal("Take did not abort its upstream after n values")
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

func TestMapErrFailsStream(t *testing.T) {
	boom := errors.New("boom")
	th := MapErr(func(v int) (int, error) {
		if v == 2 {
			return 0, boom
		}
		return v * 10, nil
	})
	got, err := Collect(th(Count(5)))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if len(got) != 1 || got[0] != 10 {
		t.Fatalf("got %v, want [10]", got)
	}
}

func TestAsyncMapOrdering(t *testing.T) {
	// AsyncMap must answer one value at a time in order even when the
	// function answers from another goroutine.
	th := AsyncMap(func(v int, cb func(error, int)) {
		go cb(nil, v*2)
	})
	got, err := Collect(th(Count(100)))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != (i+1)*2 {
			t.Fatalf("got[%d] = %d, want %d", i, v, (i+1)*2)
		}
	}
}

func TestAsyncMapError(t *testing.T) {
	boom := errors.New("boom")
	th := AsyncMap(func(v int, cb func(error, int)) {
		if v == 3 {
			cb(boom, 0)
			return
		}
		cb(nil, v)
	})
	got, err := Collect(th(Count(5)))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if len(got) != 2 {
		t.Fatalf("got %v, want two values before failure", got)
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

func TestTakeWhile(t *testing.T) {
	th := TakeWhile(func(v int) bool { return v < 4 })
	got, err := Collect(th(Count(10)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %v, want [1 2 3]", got)
	}
}

func TestReduce(t *testing.T) {
	sum, err := Reduce(Count(100), 0, func(a, v int) int { return a + v })
	if err != nil {
		t.Fatal(err)
	}
	if sum != 5050 {
		t.Fatalf("sum = %d, want 5050", sum)
	}
}

func TestFirst(t *testing.T) {
	v, err := First(Count(10))
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("v = %d, want 1", v)
	}
	if _, err := First(Empty[int]()); !errors.Is(err, ErrDone) {
		t.Fatalf("err = %v, want ErrDone", err)
	}
}

func TestChain(t *testing.T) {
	th := Chain(
		Filter(func(v int) bool { return v%2 == 1 }),
		Map(func(v int) string { return fmt.Sprintf("v%d", v) }),
	)
	got, err := Collect(th(Count(6)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != "v1" || got[2] != "v5" {
		t.Fatalf("got %v", got)
	}
}

func TestTee(t *testing.T) {
	var seen int32
	th := Tee(func(int) { atomic.AddInt32(&seen, 1) })
	if _, err := Collect(th(Count(7))); err != nil {
		t.Fatal(err)
	}
	if seen != 7 {
		t.Fatalf("seen = %d, want 7", seen)
	}
}

func TestFromChanToChan(t *testing.T) {
	in := make(chan int, 3)
	in <- 1
	in <- 2
	in <- 3
	close(in)
	out, errc := ToChan(FromChan(in, nil))
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

func TestConcat(t *testing.T) {
	got, err := Collect(Concat(Count(2), Values(10, 11), Empty[int]()))
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 10, 11}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestConcatPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	got, err := Collect(Concat(Count(2), Error[int](boom), Count(5)))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if len(got) != 2 {
		t.Fatalf("got %v", got)
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

// QuickCheck property: Take(n) yields min(n, len) values.
func TestQuickTakeLength(t *testing.T) {
	f := func(vs []int, n uint8) bool {
		got, err := Collect(Take[int](int(n))(Values(vs...)))
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
