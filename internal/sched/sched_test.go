package sched

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"pando/internal/pullstream"
)

// meter tracks in-flight values between two pipeline points.
type meter struct {
	mu      sync.Mutex
	current int
	peak    int
}

func (m *meter) Inc() {
	m.mu.Lock()
	m.current++
	if m.current > m.peak {
		m.peak = m.current
	}
	m.mu.Unlock()
}

func (m *meter) Dec() {
	m.mu.Lock()
	m.current--
	m.mu.Unlock()
}

func (m *meter) Peak() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.peak
}

// feedResult injects a synthetic in-flight value whose dispatch happened
// exactly rtt before its result — a deterministic way to drive the
// adaptive window without real sleeps or the host's clock jitter.
func feedResult(c *Controller, rtt time.Duration) { feedResultAt(c, time.Now(), rtt) }

// feedResultAt is feedResult with the result's arrival time given.
func feedResultAt(c *Controller, now time.Time, rtt time.Duration) {
	c.mu.Lock()
	c.inFlight++
	c.sends = append(c.sends, now.Add(-rtt))
	c.mu.Unlock()
	c.resultAt(now)
}

func TestControllerSlowStartGrowsToMax(t *testing.T) {
	c := NewController(Adaptive(1, 16))
	for i := 0; i < 20; i++ {
		feedResult(c, 10*time.Millisecond)
	}
	if got := c.Window(); got != 16 {
		t.Fatalf("window after steady round-trips = %d, want 16 (slow start to max)", got)
	}
}

// queueModel is a single-server queue behind a fixed delay: a value
// nothing queues ahead of comes back after d, the server takes s per
// value, so the path holds knee = d/s values and each one beyond them
// waits another s: RTT = d + queued·s. With a bandwidth bw (bytes per
// second) the server is a link instead: value i takes size(i)/bw of it
// (link, in sized_test.go). Each result arrives up to jitter later,
// drawn from a stream seed picks, but never before the result ahead of
// it, as on a netsim link. A stamp > 0 is the service time the worker
// reports with its first result, as the master duplex passes it on.
type queueModel struct {
	d, s   time.Duration
	bw     float64
	size   func(i int) int
	jitter time.Duration
	seed   uint64
	stamp  time.Duration
}

// noise is a model's seeded jitter: xorshift64 draws in [0, max].
type noise uint64

func (q queueModel) noise() *noise {
	n := noise(88172645463325252 ^ q.seed)
	return &n
}

func (n *noise) draw(max time.Duration) time.Duration {
	*n ^= *n << 13
	*n ^= *n >> 7
	*n ^= *n << 17
	return time.Duration(uint64(*n) % uint64(max+1))
}

// served hands c the model's service stamp ahead of the first result.
func (q queueModel) served(c *Controller, result int) {
	if result == 0 && q.stamp > 0 {
		c.Served(q.stamp)
	}
}

func (q queueModel) knee() int { return int(q.d / q.s) }

// drive feeds c the round-trips the model gives a sender that keeps c's
// window full: every value is charged the queue it met when it was sent,
// so the controller sees a window change one windowful late, as it does
// on a real path. Results leave the server one per s, in virtual time
// that goes on from c's last result, and the link's jitter delays their
// arrival, in order. each, when set, is called with the window after
// every result.
func (q queueModel) drive(c *Controller, results int, each func(window int)) {
	var ahead []int // per outstanding value, the values in flight when it left, itself included
	now, jitter := time.Now(), q.noise()
	c.mu.Lock()
	if !c.lastResult.IsZero() {
		now = c.lastResult
	}
	c.mu.Unlock()
	arrived := now // results arrive in order: none before the one ahead of it
	for i := 0; i < results; i++ {
		for len(ahead) < c.Window() {
			ahead = append(ahead, len(ahead)+1)
		}
		queued := max(ahead[0]-q.knee(), 0)
		ahead = ahead[1:]
		now = now.Add(q.s)
		if at := now.Add(jitter.draw(q.jitter)); at.After(arrived) {
			arrived = at
		}
		q.served(c, i)
		feedResultAt(c, arrived, q.d+time.Duration(queued)*q.s+arrived.Sub(now))
		if each != nil {
			each(c.Window())
		}
	}
}

// TestControllerSettlesAtKnee: whatever the path's depth, the window
// finds it, keeps at most a few values queueing beyond it, and stays
// there — it neither starves the path nor creeps up to Max as the base
// buckets rotate over a standing queue.
func TestControllerSettlesAtKnee(t *testing.T) {
	for _, knee := range []int{2, 6, 11} {
		q := queueModel{d: time.Duration(knee) * 4 * time.Millisecond, s: 4 * time.Millisecond}
		c := NewController(Adaptive(1, 16))
		q.drive(c, 300, nil)
		q.drive(c, 500, func(w int) {
			if w < knee || w > knee+4 {
				t.Fatalf("knee %d: window %d left [%d, %d]", knee, w, knee, knee+4)
			}
		})
	}
}

// TestControllerRebasesAfterPayloadChange is the tiles-16k phase change:
// the round-trip of an uncongested value doubles because the payloads got
// larger, then halves again. Against a lifetime minimum the larger
// payloads read as congestion for ever; the windowed base forgets the
// small ones after two bucket rotations and the window opens again.
func TestControllerRebasesAfterPayloadChange(t *testing.T) {
	c := NewController(Adaptive(1, 16))
	for i := 0; i < 100; i++ {
		feedResult(c, 4*time.Millisecond)
	}
	if got := c.Window(); got != 16 {
		t.Fatalf("window on the small payloads = %d, want 16", got)
	}
	rotations := 2 * max(baseBucket, 4*16)
	for i := 0; i < rotations; i++ {
		feedResult(c, 8*time.Millisecond)
	}
	if got := c.Window(); got <= 1 {
		t.Fatalf("window = %d after two bucket rotations on the larger payloads, want it off Min", got)
	}
	c.mu.Lock()
	base := c.bestRTT
	c.mu.Unlock()
	if base < 0.008 {
		t.Fatalf("base round-trip = %vs after two rotations, want the larger payloads' 8ms", base)
	}
	for i := 0; i < 200; i++ {
		feedResult(c, 8*time.Millisecond)
	}
	if got := c.Window(); got != 16 {
		t.Fatalf("window = %d on steady larger payloads, want it back at 16", got)
	}
	for i := 0; i < 20; i++ {
		feedResult(c, 4*time.Millisecond)
	}
	if got := c.Window(); got != 16 {
		t.Fatalf("window = %d after the payloads shrank again, want 16 (a shorter round-trip is no congestion)", got)
	}
}

// TestControllerOneQueuedValueCostsAtMostOneCredit: at window 3 one
// queued value already stretches the round-trip by more than half (13 ms
// against a base of 8). That is a queue of one, not congestion: the
// window may give a credit back but must not halve to Min.
func TestControllerOneQueuedValueCostsAtMostOneCredit(t *testing.T) {
	c := NewController(Adaptive(1, 16))
	for i := 0; i < 40; i++ {
		feedResult(c, 8*time.Millisecond)
	}
	c.mu.Lock()
	c.window, c.slowStart = 3, false
	c.mu.Unlock()
	for i := 0; i < 30; i++ {
		feedResult(c, 13*time.Millisecond)
		if got := c.Window(); got < 2 {
			t.Fatalf("window = %d after %d round-trips with one value queued, want >= 2", got, i+1)
		}
	}
}

// TestControllerBacksOffOnCongestionAndRecovers: gross inflation (the
// device stalled or throttled) still collapses the window, within two
// windowfuls, and the way back up is additive.
func TestControllerBacksOffOnCongestionAndRecovers(t *testing.T) {
	c := NewController(Adaptive(1, 16))
	for i := 0; i < 40; i++ {
		feedResult(c, 10*time.Millisecond)
	}
	// Round-trips inflate 10×: the in-flight values are queueing on the
	// worker, not hiding latency; the window must collapse to min, one
	// halving per windowful.
	collapsed := 0
	for c.Window() > 1 {
		if collapsed++; collapsed > 2*16 {
			t.Fatalf("window = %d after two windowfuls of 10× round-trips, want 1", c.Window())
		}
		feedResult(c, 100*time.Millisecond)
	}
	// Round-trips return to baseline: the window probes back up one
	// credit per windowful (no second slow start, which would be at 16
	// within 15 results of the smoothed round-trip settling).
	for i := 0; i < 40; i++ {
		before := c.Window()
		feedResult(c, 10*time.Millisecond)
		if got := c.Window(); got > before+1 {
			t.Fatalf("window jumped %d -> %d during recovery", before, got)
		}
	}
	if got := c.Window(); got < 3 || got > 10 {
		t.Fatalf("window after 40 recovering results = %d, want additive growth above min (3..10)", got)
	}
}

func TestControllerStaticWindowNeverMoves(t *testing.T) {
	c := NewController(Static(3))
	rtts := []time.Duration{time.Millisecond, 100 * time.Millisecond, 10 * time.Microsecond, time.Second}
	for _, rtt := range rtts {
		feedResult(c, rtt)
		if got := c.Window(); got != 3 {
			t.Fatalf("static window moved to %d after rtt %v", got, rtt)
		}
	}
}

func TestControllerRateEstimate(t *testing.T) {
	c := NewController(Static(2))
	for i := 0; i < 10; i++ {
		time.Sleep(2 * time.Millisecond)
		feedResult(c, time.Millisecond)
	}
	rate := c.Rate()
	if rate <= 0 {
		t.Fatal("no rate estimate after 10 results")
	}
	if rate > 2000 {
		t.Fatalf("rate %.0f/s implausible for ~2ms intervals", rate)
	}
}

// echoDuplex simulates a worker behind a network channel with an eager
// sending side, the scenario the gate must bound.
func echoDuplex(delay time.Duration) (pullstream.Duplex[int, int], *meter) {
	m := &meter{}
	pending := make(chan int, 1024)
	endc := make(chan error, 1)
	d := pullstream.Duplex[int, int]{
		Sink: func(src pullstream.Source[int]) {
			for {
				type ans struct {
					end error
					v   int
				}
				ch := make(chan ans, 1)
				src(nil, func(end error, v int) { ch <- ans{end, v} })
				a := <-ch
				if a.end != nil {
					endc <- a.end
					close(pending)
					return
				}
				m.Inc()
				pending <- a.v
			}
		},
		Source: func(abort error, cb pullstream.Callback[int]) {
			if abort != nil {
				cb(abort, 0)
				return
			}
			v, ok := <-pending
			if !ok {
				end := <-endc
				if pullstream.IsNormalEnd(end) {
					end = pullstream.ErrDone
				}
				cb(end, 0)
				return
			}
			if delay > 0 {
				time.Sleep(delay)
			}
			m.Dec()
			cb(nil, v*2)
		},
	}
	return d, m
}

func TestGateBoundsInFlight(t *testing.T) {
	for _, p := range []Policy{Static(1), Static(4), Adaptive(1, 8), Adaptive(2, 3)} {
		d, meter := echoDuplex(0)
		c := NewController(p)
		got, err := pullstream.Collect(Gate(c, d)(pullstream.Count(100)))
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		if len(got) != 100 {
			t.Fatalf("%+v: got %d results", p, len(got))
		}
		for i, v := range got {
			if v != (i+1)*2 {
				t.Fatalf("%+v: got[%d] = %d", p, i, v)
			}
		}
		if meter.Peak() > p.Max {
			t.Fatalf("%+v: peak in flight %d exceeds max window", p, meter.Peak())
		}
	}
}

// static gates d with the paper's Limiter: a fixed window of n.
func static(d pullstream.Duplex[int, int], n int) pullstream.Through[int, int] {
	return Gate(NewController(Static(n)), d)
}

func TestUngatedDuplexDrainsEagerly(t *testing.T) {
	// Control experiment: without the gate the eager sink drains far more
	// than any window, demonstrating why the module exists.
	d, meter := echoDuplex(time.Millisecond)
	done := make(chan struct{})
	go func() {
		d.Sink(pullstream.Count(100))
		close(done)
	}()
	if _, err := pullstream.Collect(d.Source); err != nil {
		t.Fatal(err)
	}
	<-done
	if meter.Peak() < 50 {
		t.Fatalf("eager sink peaked at %d in flight; expected it to drain most of the input", meter.Peak())
	}
}

func TestGateMinimumWindowOfOne(t *testing.T) {
	d, meter := echoDuplex(0)
	got, err := pullstream.Collect(static(d, 0)(pullstream.Count(5))) // clamped to 1
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || meter.Peak() > 1 {
		t.Fatalf("got %d results with peak %d in flight, want 5 with peak 1", len(got), meter.Peak())
	}
}

func TestGatePropagatesWorkerFailure(t *testing.T) {
	boom := errors.New("boom")
	inner, _ := echoDuplex(0)
	d := pullstream.Duplex[int, int]{
		Sink: inner.Sink,
		Source: func(abort error, cb pullstream.Callback[int]) {
			inner.Source(abort, func(end error, v int) {
				if end == nil && v == 3*2 {
					cb(boom, 0) // the channel fails mid-stream
					return
				}
				cb(end, v)
			})
		},
	}
	got, err := pullstream.Collect(static(d, 2)(pullstream.Count(10)))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if len(got) != 2 {
		t.Fatalf("got %v, want the two results before the failure", got)
	}
}

func TestGateEmptyUpstream(t *testing.T) {
	d, _ := echoDuplex(0)
	got, err := pullstream.Collect(static(d, 4)(pullstream.Values[int]()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %v, want empty", got)
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

func TestGateAbortClosesGate(t *testing.T) {
	d, _ := echoDuplex(0)
	out := static(d, 2)(pullstream.Count(1000))
	got, err := take(out, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %v, want 3 values", got)
	}
}

// TestGateStressConcurrentAbortClose hammers the gate with concurrent
// streams that are aborted mid-flight, verifying under -race that the
// bound is never exceeded and every goroutine drains after shutdown.
func TestGateStressConcurrentAbortClose(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const rounds = 40
	var wg sync.WaitGroup
	for i := 0; i < rounds; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := Adaptive(1, 4)
			d, meter := echoDuplex(0)
			c := NewController(p)
			out := Gate(c, d)(pullstream.Count(200))
			if i%5 == 0 {
				// Race a close against the transfer.
				go c.Close()
			}
			if i%3 == 0 {
				// Abort downstream mid-stream.
				_, _ = take(out, 5+i%7)
			} else {
				_, _ = pullstream.Collect(out)
			}
			if meter.Peak() > p.Max {
				t.Errorf("round %d: peak %d exceeds max %d", i, meter.Peak(), p.Max)
			}
		}(i)
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after shutdown: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fakeSub is a controllable sub-stream view for straggler-scan tests:
// it holds n values it can duplicate.
type fakeSub struct {
	mu         sync.Mutex
	n          int
	speculated int
}

func (f *fakeSub) Speculate(max int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	k := f.n
	if k > max {
		k = max
	}
	f.speculated += k
	return k
}

func TestSchedulerSpeculatesOnlyStragglers(t *testing.T) {
	parked := 2
	s := New(Policy{Min: 1, Max: 4, Speculation: 4}, func() int { return parked })
	defer s.Close()

	fast := &fakeSub{}
	slow := &fakeSub{n: 3}
	fastCtrl := s.Attach("fast", fast)
	slowCtrl := s.Attach("slow", slow)
	// The fast worker's smoothed service time defines the fleet median;
	// the stalled worker has produced nothing and holds three values, the
	// oldest dispatched 500ms ago.
	fastCtrl.mu.Lock()
	fastCtrl.ewmaGap = 0.001 // 1ms per item
	fastCtrl.mu.Unlock()
	now := time.Now()
	slowCtrl.mu.Lock()
	slowCtrl.sends = []time.Time{now.Add(-500 * time.Millisecond), now.Add(-400 * time.Millisecond), now.Add(-300 * time.Millisecond)}
	slowCtrl.mu.Unlock()
	// A worker whose values went out just now is no straggler.
	young := &fakeSub{n: 2}
	youngCtrl := s.Attach("young", young)
	youngCtrl.mu.Lock()
	youngCtrl.sends = []time.Time{now, now}
	youngCtrl.mu.Unlock()

	s.scanOnce()

	if fast.speculated != 0 {
		t.Fatalf("fast worker speculated %d times; it has nothing outstanding", fast.speculated)
	}
	if young.speculated != 0 {
		t.Fatalf("young worker speculated %d times; its values are fresh", young.speculated)
	}
	if slow.speculated != 2 {
		t.Fatalf("straggler speculated %d values, want 2 (bounded by idle workers)", slow.speculated)
	}
	flows := s.Flows()
	bySpec := map[string]int{}
	for _, f := range flows {
		bySpec[f.Name] = f.Speculated
	}
	if bySpec["slow"] != 2 || bySpec["fast"] != 0 {
		t.Fatalf("flow snapshots = %v", bySpec)
	}

	// No idle workers → no speculation, however old the values are.
	parked = 0
	before := slow.speculated
	s.scanOnce()
	if slow.speculated != before {
		t.Fatal("speculated without idle capacity")
	}
}

func TestSchedulerDetachRemovesWorker(t *testing.T) {
	s := New(Static(2), nil)
	defer s.Close()
	c := s.Attach("w", &fakeSub{})
	if len(s.Flows()) != 1 {
		t.Fatal("worker not registered")
	}
	s.Detach(c)
	if len(s.Flows()) != 0 {
		t.Fatal("worker not removed")
	}
	if c.Acquire() {
		t.Fatal("detached controller still grants credits")
	}
}

func TestSchedulerStopLeavesControllersRunning(t *testing.T) {
	s := New(Static(2), nil)
	c := s.Attach("w", &fakeSub{})
	s.Stop()
	if !c.Acquire() {
		t.Fatal("Stop must not close live controllers (in-flight processors finish normally)")
	}
	c.Cancel()
	s.Close()
}

func TestSchedulerCreditWeightShrinksWindow(t *testing.T) {
	s := New(Static(4), nil)
	weights := map[string]float64{"suspect": 0.25, "expelled": 0}
	s.SetCreditWeight(func(name string) float64 {
		if w, ok := weights[name]; ok {
			return w
		}
		return 1
	})
	find := func(name string) WorkerFlow {
		for _, f := range s.Flows() {
			if f.Name == name {
				return f
			}
		}
		t.Fatalf("worker %s not attached", name)
		panic("unreachable")
	}
	s.Attach("honest", &fakeSub{})
	s.Attach("suspect", &fakeSub{})
	s.Attach("expelled", &fakeSub{})
	if w := find("honest").Window; w != 4 {
		t.Fatalf("honest window = %d, want full 4", w)
	}
	if w := find("suspect").Window; w != 1 {
		t.Fatalf("suspect window = %d, want 1 (4 * 0.25)", w)
	}
	// Even zero weight keeps a window of 1: starving a worker the fleet
	// still lends to would deadlock its sub-stream, and expulsion is the
	// fleet layer's job.
	if w := find("expelled").Window; w != 1 {
		t.Fatalf("expelled window = %d, want floor 1", w)
	}
	s.Close()
}

func TestSchedulerCreditWeightCapsAdaptiveCeiling(t *testing.T) {
	s := New(Adaptive(2, 8), nil)
	s.SetCreditWeight(func(name string) float64 {
		if name == "suspect" {
			return 0.5
		}
		return 1
	})
	c := s.Attach("suspect", &fakeSub{})
	// Drive the controller well past where the capped ceiling sits: the
	// window must stop at 4 (8 * 0.5), not the policy's 8.
	for i := 0; i < 64; i++ {
		if !c.Acquire() {
			break
		}
		c.Sent()
		c.Result()
	}
	got := -1
	for _, f := range s.Flows() {
		if f.Name == "suspect" {
			got = f.Window
		}
	}
	if got > 4 {
		t.Fatalf("suspect adaptive window = %d, want capped at 4", got)
	}
	s.Close()
}
