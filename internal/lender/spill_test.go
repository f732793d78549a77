package lender

import (
	"encoding/binary"
	"errors"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"pando/internal/journal"
	"pando/internal/pullstream"
)

func intEnc(v int) ([]byte, error) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	return b[:], nil
}

func intDec(b []byte) (int, error) {
	if len(b) != 8 {
		return 0, errors.New("bad payload")
	}
	return int(binary.BigEndian.Uint64(b)), nil
}

// slowCollect drains src one value at a time, sleeping between asks, and
// samples the lender's MemStats after each value so tests can assert the
// heap bound held throughout the run.
func slowCollect[I any](l *Lender[I, int], src pullstream.Source[int], delay time.Duration) (vs []int, maxHeap, maxSpilled int, err error) {
	for {
		type ans struct {
			end error
			v   int
		}
		ch := make(chan ans, 1)
		src(nil, func(end error, v int) { ch <- ans{end, v} })
		a := <-ch
		if a.end != nil {
			if a.end != pullstream.ErrDone {
				err = a.end
			}
			return
		}
		vs = append(vs, a.v)
		h, s := l.MemStats()
		if h > maxHeap {
			maxHeap = h
		}
		if s > maxSpilled {
			maxSpilled = s
		}
		if delay > 0 {
			time.Sleep(delay)
		}
	}
}

// TestOrderedSpillBoundsHeap drives fast workers against a slow consumer
// with a real journal spill segment attached: the reorder buffer must
// stay at or under the high-water mark, the overflow must visibly move
// through the spill store, and the output must still be the exact ordered
// stream an unbounded run would produce.
func TestOrderedSpillBoundsHeap(t *testing.T) {
	const n, hw = 400, 8
	store, err := journal.OpenSpill(filepath.Join(t.TempDir(), "spill.seg"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	l := New[int, int]()
	l.SetHighWater(hw)
	l.SetSpill(store, intEnc, intDec)
	out := l.Bind(pullstream.Count(n))
	for i := 0; i < 3; i++ {
		runWorker(t, l, func(v int) int { return v * 3 }, 0, -1)
	}
	got, maxHeap, maxSpilled, err := slowCollect(l, out, 200*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("got %d results, want %d", len(got), n)
	}
	for i, v := range got {
		if v != (i+1)*3 {
			t.Fatalf("got[%d] = %d, want %d (ordered output broken by spilling)", i, v, (i+1)*3)
		}
	}
	if maxHeap > hw {
		t.Fatalf("reorder heap peaked at %d results, high-water mark is %d", maxHeap, hw)
	}
	if maxSpilled == 0 {
		t.Fatal("nothing ever spilled; the test did not exercise the overflow path")
	}
	if h, s := l.MemStats(); h != 0 || s != 0 {
		t.Fatalf("stream done but MemStats = (%d heap, %d spilled)", h, s)
	}
	if store.Len() != 0 || store.Bytes() != 0 {
		t.Fatalf("drained store still holds %d records, %d bytes", store.Len(), store.Bytes())
	}
}

// TestOrderedGatingWithoutSpill runs the same shape with no store: the
// bound must instead propagate as backpressure that pauses fresh input
// reads. Results already lent may still land, so the heap can overshoot
// by the values in flight when the last read was admitted, which
// SetHighWater bounds at hw-1+workers for workers holding one value each.
// The workers are strictly serial, as in TestUnorderedHighWaterBoundsReady
// (runWorker may hold two values).
func TestOrderedGatingWithoutSpill(t *testing.T) {
	const n, hw, workers = 300, 6, 3
	l := New[int, int]()
	l.SetHighWater(hw)
	out := l.Bind(pullstream.Count(n))
	for i := 0; i < workers; i++ {
		_, d := l.LendStream()
		d.Sink(pullstream.Map(func(v int) int { return v + 1000 })(d.Source))
	}
	got, maxHeap, _, err := slowCollect(l, out, 200*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("got %d results, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i+1+1000 {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
	if maxHeap > hw-1+workers {
		t.Fatalf("heap peaked at %d results; the bound is hw-1+workers = %d", maxHeap, hw-1+workers)
	}
}

// TestUnorderedHighWaterBoundsReady checks the unordered mode's bound:
// with nothing to reorder, the high-water mark is pure backpressure on
// the ready queue, which peaks at hw-1 plus the values in flight when the
// last read was admitted (see SetHighWater). The workers are therefore
// strictly serial — each pulls its next input only when the lender asks
// for its next result, after the previous one was recorded — so exactly
// one value per worker is in flight. (runWorker hands a result to a
// channel and asks again before the lender has recorded it: up to two in
// flight per worker, which no bound stated in workers can cover.)
func TestUnorderedHighWaterBoundsReady(t *testing.T) {
	const n, hw, workers = 300, 5, 3
	l := New[int, int](Unordered())
	l.SetHighWater(hw)
	out := l.Bind(pullstream.Count(n))
	for i := 0; i < workers; i++ {
		_, d := l.LendStream()
		d.Sink(d.Source) // the identity worker: a result is the input, pulled on demand
	}
	got, maxReady, _, err := slowCollect(l, out, 200*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("got %d results, want %d", len(got), n)
	}
	seen := make(map[int]bool, n)
	for _, v := range got {
		seen[v] = true
	}
	if len(seen) != n {
		t.Fatalf("duplicate or missing results: %d distinct of %d", len(seen), n)
	}
	t.Logf("ready queue peaked at %d (hw %d, %d workers)", maxReady, hw, workers)
	if maxReady > hw-1+workers {
		t.Fatalf("ready queue peaked at %d; the bound is hw-1+workers = %d", maxReady, hw-1+workers)
	}
}

// failingStore accepts Puts but cannot give the payloads back — the
// disk-gone-bad case. Losing a spilled result must fail the output stream
// rather than skip or reorder it.
type failingStore struct {
	mu   sync.Mutex
	held map[int][]byte
}

var errStoreGone = errors.New("spill store unreadable")

func (s *failingStore) Put(idx int, p []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.held == nil {
		s.held = make(map[int][]byte)
	}
	s.held[idx] = append([]byte(nil), p...)
	return nil
}
func (s *failingStore) Load(int) ([]byte, error) { return nil, errStoreGone }
func (s *failingStore) Forget(int)               {}

func TestSpillLoadFailureFailsStream(t *testing.T) {
	const n, hw = 100, 2
	l := New[int, int]()
	l.SetHighWater(hw)
	l.SetSpill(&failingStore{}, intEnc, intDec)
	out := l.Bind(pullstream.Count(n))
	runWorker(t, l, func(v int) int { return v }, 0, -1)
	_, _, maxSpilled, err := slowCollect(l, out, time.Millisecond)
	if maxSpilled == 0 && err == nil {
		t.Skip("nothing spilled; cannot exercise the load-failure path")
	}
	if !errors.Is(err, errStoreGone) {
		t.Fatalf("output ended with %v, want the store's load error", err)
	}
}

// brokenPutStore rejects every Put: spilling must degrade to read gating
// (spillBroken) and the stream must still complete correctly with the
// heap merely gated rather than bounded by the store.
type brokenPutStore struct{}

func (brokenPutStore) Put(int, []byte) error    { return errors.New("disk full") }
func (brokenPutStore) Load(int) ([]byte, error) { return nil, errors.New("disk full") }
func (brokenPutStore) Forget(int)               {}

func TestSpillPutFailureDegradesToGating(t *testing.T) {
	const n, hw = 200, 4
	l := New[int, int]()
	l.SetHighWater(hw)
	l.SetSpill(brokenPutStore{}, intEnc, intDec)
	out := l.Bind(pullstream.Count(n))
	for i := 0; i < 2; i++ {
		runWorker(t, l, func(v int) int { return v * 7 }, 0, -1)
	}
	got, _, _, err := slowCollect(l, out, 100*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("got %d results, want %d", len(got), n)
	}
	for i, v := range got {
		if v != (i+1)*7 {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

// TestLongStreamBoundedMemory is the acceptance check for the
// memory-bounded streaming work: a million-item ordered stream with a
// straggler worker holding an early index while a fast worker races far
// ahead. Without bounding, the reorder buffer would grow to hundreds of
// thousands of results; with the high-water mark and journal spilling the
// heap must stay at O(window) the whole run and the output must be
// byte-identical to an unbounded run's.
func TestLongStreamBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("long-stream test skipped in -short mode")
	}
	const (
		n         = 1_000_000
		hw        = 64
		holdUntil = 20_000 // straggler releases after the fast worker is this far ahead
	)
	store, err := journal.OpenSpill(filepath.Join(t.TempDir(), "spill.seg"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	l := New[int, string]()
	l.SetHighWater(hw)
	l.SetSpill(store,
		func(s string) ([]byte, error) { return []byte(s), nil },
		func(b []byte) (string, error) { return string(b), nil },
	)
	out := l.Bind(pullstream.Count(n))

	f := func(v int) string { return "r" + strconv.Itoa(v*2) }

	release := make(chan struct{})
	var releaseOnce sync.Once
	var processed int64
	var statsMu sync.Mutex
	maxHeap, maxSpilled := 0, 0

	// Straggler: takes the first value it is lent and sits on it until
	// released, forcing everything the fast worker produces to buffer.
	runWorker(t, l, func(v int) string {
		<-release
		return f(v)
	}, 0, -1)
	// Fast worker: samples MemStats periodically and trips the release
	// once it is far enough ahead.
	runWorker(t, l, func(v int) string {
		processed++
		if processed == holdUntil {
			releaseOnce.Do(func() { close(release) })
		}
		if processed%512 == 0 {
			h, s := l.MemStats()
			statsMu.Lock()
			if h > maxHeap {
				maxHeap = h
			}
			if s > maxSpilled {
				maxSpilled = s
			}
			statsMu.Unlock()
		}
		return f(v)
	}, 0, -1)

	got, err := pullstream.Collect(out)
	releaseOnce.Do(func() { close(release) }) // belt-and-braces if the straggler never got a value
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("got %d results, want %d", len(got), n)
	}
	for i, v := range got {
		if want := f(i + 1); v != want {
			t.Fatalf("got[%d] = %q, want %q (spilling must not change the output)", i, v, want)
		}
	}
	statsMu.Lock()
	defer statsMu.Unlock()
	if maxHeap > hw {
		t.Fatalf("reorder heap peaked at %d results over a %d-item stream; bound is %d", maxHeap, n, hw)
	}
	if maxSpilled < holdUntil/4 {
		t.Fatalf("spill peaked at only %d records; the straggler window never built up", maxSpilled)
	}
	t.Logf("peak heap %d (bound %d), peak spilled %d over %d items", maxHeap, hw, maxSpilled, n)
}

// TestRestoreLargeSetThroughSpill restores 200k completed results at a
// high-water mark of 64 with a spill store attached: the overflow pages
// out in one sorted pass (a rescan of the reorder buffer per spilled
// result made this quadratic, minutes at this size), and the replay is
// the exact ordered stream, followed by the results of the two inputs
// past the restored set.
func TestRestoreLargeSetThroughSpill(t *testing.T) {
	const restored, n, hw = 200_000, 200_002, 64
	store, err := journal.OpenSpill(filepath.Join(t.TempDir(), "spill.seg"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	l := New[int, int]()
	l.SetHighWater(hw)
	l.SetSpill(store, intEnc, intDec)
	completed := make(map[int]int, restored)
	for i := 0; i < restored; i++ {
		completed[i] = (i + 1) * 3
	}
	start := time.Now()
	l.Restore(completed)
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("restoring %d results took %v", restored, d)
	}
	if heap, spilled := l.MemStats(); heap != hw || spilled != restored-hw {
		t.Fatalf("after restore: %d on the heap, %d spilled; want %d and %d", heap, spilled, hw, restored-hw)
	}
	out := l.Bind(pullstream.Count(n))
	runWorker(t, l, func(v int) int { return v * 3 }, 0, -1)
	got, err := pullstream.Collect(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("got %d results, want %d", len(got), n)
	}
	for i, v := range got {
		if v != (i+1)*3 {
			t.Fatalf("got[%d] = %d, want %d", i, v, (i+1)*3)
		}
	}
}
