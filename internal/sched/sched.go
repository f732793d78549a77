// Package sched is the per-worker dispatch policy of the engine: it
// replaces the static pull-limit of the paper's Limiter (§2.4.3, Figure 7)
// with an adaptive credit controller per attached worker, plus straggler
// detection and speculative re-dispatch near the tail of the stream.
//
// The paper's evaluation (§5.2–5.4) shows throughput is highly sensitive
// to the batch size — the single static bound on values in flight per
// worker — and volunteer fleets are heterogeneous by definition: a fast
// desktop and a throttled phone should not share one window. Each
// Controller therefore sizes its worker's window in wire bytes as
// delay-based congestion control (TCP Vegas) does, counting thresholds and
// moves in units, the EWMA wire size of one value. It smooths the result
// round-trip (ewmaRTT) and keeps a base, the smallest round-trip of its
// last two sample buckets: what a value costs when none of ours queues
// ahead of it. window × (1 − base/ewmaRTT) estimates the bytes queueing
// beyond what the path needs to stay busy. Under queueLow (α) units they
// still hide transmission latency, the purpose of batching in §5.5, and
// the window gains a unit per windowful (per result in the initial slow
// start); over queueHigh (β) they only wait on the device, costing
// fault-tolerance granularity and tail latency for no throughput, and it
// loses one; a round-trip of grossRatio × base (a stalled or throttled
// device) halves it. Moves other than slow start's are a windowful apart:
// the results in flight were queued under the window before. It grows
// neither past Max units nor, after slow start, while Policy.Max (a cap on
// values) or the input held values back, lest 60 B dedup references
// inflate it into a burst of 16 KiB tiles. The base is windowed because a
// lifetime minimum, taken on small or deduplicated payloads, makes every
// larger payload read as permanent congestion; two rotating buckets
// re-base after a change of payload mix, and a result rebaseGrowth units
// large restarts them. Lest a standing queue of our own become the base,
// a rotation that finds one (even the newer bucket's smallest round-trip
// met a queue) takes the estimated queue out of the window.
//
// A window starts at DefaultBatch, where a static one sits, in slow
// start. Volunteers arrive all through a run, so it does not wait out
// slow start's round-trips to reach its path: the second result, or the
// first after it once the worker's service stamp came (Served: how long f
// took on the session's first value), sets it to ⌈base / pace +
// queueLow⌉ units and ends slow start. The pace is the stamp: a link's
// jitter stretches or bunches single result gaps, so only a gap of more
// than grossRatio × the stamp says that the link, not the worker, spaces
// the results, and then the gap is the pace. base / pace values keep the
// path busy for one round-trip, and queueLow more put the estimated queue
// inside the band where the rule holds, so the window does not climb
// there a windowful at a time. The values the old window put in flight
// met none of that queue, so the first windowful is counted after them.
// The jump only raises the window, stays within [Min, Max] and comes
// once; a worker that sends no stamp leaves slow start to run its course.
//
// A value is charged from admission: Sent charges a unit, Charge raises it
// to the encoded length before the next admission and sets the wire
// length, after dedup and compression, once the frame is written; its
// result or Drop releases it, FIFO. Blob fetches (a payload resent on a
// cache miss) are not charged. Until a wire length is known the window
// counts values, and equal sizes move it exactly as values do. Static
// policies keep no charges: Static(n) holds n values whatever their size.
//
// The Scheduler aggregates the controllers of one engine. When the stream
// nears its tail — workers are idle with parked asks at the StreamLender —
// it scans for stragglers: a worker whose oldest outstanding value is
// older than k× the fleet's median per-item service time has its items
// duplicated to an idle worker on another device and the first result
// wins. The lender tracks each duplicate as one more replica of the value,
// so the duplicates are safe: later results are discarded, and a crashed
// straggler's value is re-lent only when no copy of it is left (see
// lender.Speculate).
//
// # Round-trip accounting and Drop
//
// A Controller matches results to dispatches FIFO: Sent pushes the
// dispatch time of a value going in flight, Result pops the oldest and
// feeds the window with the measured round-trip. A dispatched value that
// will never produce a result frame — the worker crashed mid-flight, or
// the caller deduplicated the value upstream before its result could
// arrive — must be removed with Drop, or the stale dispatch time would be
// paired with the NEXT result and every later round-trip would be
// measured from the wrong, ever-older send: the inflated EWMA reads as
// permanent congestion and collapses the window to its minimum. The
// scheduler drops on detach (Detach and Close clear all pending
// dispatches); an embedder driving a Controller through its own gate
// calls Drop itself when it discards an in-flight value. The dispatch
// queue is a ring buffer: popping the head does not pin the backing array,
// so a long-lived worker's queue stays proportional to its window, not its
// history.
package sched

import (
	"math"
	"sort"
	"sync"
	"time"

	"pando/internal/pullstream"
)

// Policy is the per-worker flow-control policy of one engine.
type Policy struct {
	// Min and Max bound the values in flight. Min == Max freezes the
	// window — the static pull-limit of the original design.
	Min, Max int
	// Speculation enables speculative re-dispatch when > 0: near the tail
	// of the stream, a worker whose oldest outstanding value is older than
	// Speculation × the fleet's median service time is treated as a
	// straggler and its values are duplicated to idle workers.
	Speculation float64
}

// DefaultBatch is the default number of values in flight per worker, and
// where an adaptive window starts. The paper used 2 on LAN and VPN
// ("effectively enabling one input to be transferred while the other is
// processed") and 4 on the WAN.
const DefaultBatch = 2

// Static returns the original fixed-window behavior: exactly n values in
// flight per worker, no speculation.
func Static(n int) Policy { return Policy{Min: n, Max: n}.norm() }

// Adaptive returns an adaptive policy probing each worker's window within
// [min, max].
func Adaptive(min, max int) Policy { return Policy{Min: min, Max: max}.norm() }

// Adaptive reports whether the window may move.
func (p Policy) Adaptive() bool { return p.Max > p.Min }

// Start is where a window under p starts: DefaultBatch, clamped to
// [Min, Max].
func (p Policy) Start() int {
	p = p.norm()
	return min(max(DefaultBatch, p.Min), p.Max)
}

// norm keeps at least one value in flight and Max no smaller than Min.
func (p Policy) norm() Policy {
	p.Min = max(p.Min, 1)
	p.Max = max(p.Max, p.Min)
	return p
}

// The window rule's constants (package comment): hold while the estimated
// queue is within [queueLow, queueHigh], halve at grossRatio × base. A base
// bucket lasts at least baseBucket results and four windowfuls, so that it
// outlasts the drain-and-regrow cycle its rotation can start.
const (
	queueLow, queueHigh = 1.5, 3.0
	grossRatio          = 3.0
	baseBucket          = 32
)

// EWMA factors for round-trips, result gaps and the wire size of one
// value; a result rebaseGrowth times that size restarts the base.
const rttAlpha, rateAlpha, unitAlpha, rebaseGrowth = 0.3, 0.2, 0.25, 4

// Controller is the adaptive credit gate of one attached worker. It is a
// generalization of the Limiter's token gate: values acquire a credit
// before going in flight, results release one, and the window moves with
// the measured round-trip when the policy is adaptive.
type Controller struct {
	policy Policy

	mu   sync.Mutex
	cond *sync.Cond

	// window is in wire bytes once sized by a wire length, in values
	// before; unit is the EWMA wire size of one value (1 until sized).
	window   float64
	unit     float64
	bytes    float64 // charges of the values in flight
	sized    bool
	inFlight int
	closed   bool

	// sends[sendHead:] holds the dispatch time of each in-flight value and
	// charges[chargeHead:] its charge, oldest first; results match FIFO,
	// like the lender's own matching. released counts charges popped, so
	// the k-th value Sent is charges[chargeHead+k-released-1].
	sends      []time.Time
	sendHead   int
	charges    []float64
	chargeHead int
	released   uint64

	slowStart bool
	sinceMove float64 // units released since the window last moved
	filled    bool    // the window, not Max or the input, held back a value since then

	bestRTT    float64 // seconds; base round-trip: min(baseCur, basePrev)
	baseCur    float64 // seconds; smallest of the baseN latest round-trips
	basePrev   float64 // seconds; smallest of the bucket before; +Inf if none
	baseN      int
	ewmaRTT    float64       // seconds; smoothed round-trip
	ewmaGap    float64       // seconds; smoothed inter-result interval
	service    time.Duration // the worker's service stamp, 0 until one came
	lastResult time.Time
	speculated int
}

// NewController returns a credit gate. An adaptive window starts at
// DefaultBatch, clamped to [Min, Max], in slow start. At the first result
// after the first, a gap of 0 included, that finds the worker's service
// stamp (Served) while still in slow start, it sizes itself to the path:
// ⌈base round-trip / pace + queueLow⌉ units, clamped to [Min, Max], where
// the pace is the stamp, or the smoothed result gap if that is more than
// grossRatio × the stamp. That jump only raises the window, ends slow start
// and restarts the windowful count behind the values already in flight;
// it happens at most once. Without a stamp the window grows a unit per
// result until slow start ends.
func NewController(p Policy) *Controller {
	p = p.norm()
	c := &Controller{policy: p, window: float64(p.Start()), unit: 1, slowStart: p.Adaptive(), baseCur: math.Inf(1), basePrev: math.Inf(1)}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Acquire blocks until a credit is available or the gate is closed,
// reporting whether one was acquired.
func (c *Controller) Acquire() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for !c.closed && !c.admitLocked() {
		c.cond.Wait()
	}
	return !c.closed
}

// admitLocked takes a credit if Min to Max values are in flight and their
// charges plus half a unit fit the window (so equal sizes admit exactly
// window/unit values); else it notes whether the window, not Max, held
// the value back. Caller holds mu.
func (c *Controller) admitLocked() bool {
	if c.inFlight >= c.policy.Max || c.inFlight >= c.policy.Min && c.bytes+c.unit/2 > c.window {
		c.filled = c.filled || c.inFlight < c.policy.Max
		return false
	}
	c.inFlight++
	return true
}

// Sent records the dispatch time of a value that just went in flight and,
// under an adaptive policy, charges it one unit until Charge says more.
// It is deliberately separate from Acquire: a credit may be held for a
// long time waiting for the upstream to produce a value, and that wait
// must not count as worker round-trip.
func (c *Controller) Sent() {
	c.mu.Lock()
	c.sends = append(c.sends, time.Now())
	if c.policy.Adaptive() {
		c.charges, c.bytes = append(c.charges, c.unit), c.bytes+c.unit
	}
	c.mu.Unlock()
}

// Charge sets the bytes, n > 0, that the k-th value Sent (from 1) costs:
// the encoded length, which only raises the charge, then the wire length
// (wire), the first of which turns the window from values into bytes.
// Static policies keep no charges.
func (c *Controller) Charge(k uint64, n int, wire bool) {
	if !c.policy.Adaptive() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	bytes, window, size := c.bytes, c.window, float64(n)
	if i := c.chargeHead + int(k-c.released) - 1; k > c.released && i < len(c.charges) {
		if !wire {
			size = max(size, c.charges[i])
		}
		c.bytes, c.charges[i] = c.bytes+size-c.charges[i], size
	}
	if wire && !c.sized {
		c.sized, c.window, c.unit = true, c.window/c.unit*size, size
	}
	if c.bytes < bytes || c.window > window {
		c.cond.Signal()
	}
}

// Cancel returns an acquired credit whose value never went in flight
// (the upstream ended between acquire and read; Sent was never called).
func (c *Controller) Cancel() {
	c.mu.Lock()
	if c.inFlight > 0 {
		c.inFlight--
	}
	c.mu.Unlock()
	c.cond.Signal()
}

// popFront removes and returns the oldest entry of the FIFO (*q)[*head:].
// The head index advances instead of re-slicing, and the live part is
// copied down once the dead prefix dominates, so the backing array never
// pins the full history of a long-lived worker.
func popFront[T any](q *[]T, head *int) (T, bool) {
	var zero T
	if *head >= len(*q) {
		return zero, false
	}
	v := (*q)[*head]
	(*q)[*head] = zero
	*head++
	if *head == len(*q) {
		*q, *head = (*q)[:0], 0
	} else if *head > 32 && *head > len(*q)/2 {
		n := copy(*q, (*q)[*head:])
		*q, *head = (*q)[:n], 0
	}
	return v, true
}

// releaseLocked pops the oldest charge; an uncharged value (every value
// under a static policy) costs a unit.
func (c *Controller) releaseLocked() float64 {
	charge, ok := popFront(&c.charges, &c.chargeHead)
	if !ok {
		return c.unit
	}
	c.released++
	c.bytes -= charge
	return charge
}

// Served records the worker's service stamp: how long its processing
// function took on one value. It sizes the window once (NewController) and
// is shown in Flows.
func (c *Controller) Served(d time.Duration) {
	c.mu.Lock()
	c.service = d
	c.mu.Unlock()
}

// Drop discards the oldest pending dispatch and releases its credit and
// charge: the caller knows that value will never produce a result frame
// (worker detached mid-flight, or the value was deduplicated upstream), so
// pairing its dispatch time with the next result would mis-measure every
// later round-trip. It reports whether a pending dispatch existed.
func (c *Controller) Drop() bool {
	c.mu.Lock()
	_, ok := popFront(&c.sends, &c.sendHead)
	if ok {
		c.releaseLocked()
		if c.inFlight > 0 {
			c.inFlight--
		}
	}
	c.mu.Unlock()
	c.cond.Signal()
	return ok
}

// Result releases one credit and the oldest charge for a returned result
// and feeds the adaptive window with the measured round-trip.
func (c *Controller) Result() { c.resultAt(time.Now()) }

// resultAt is Result with the arrival time given (tests pass exact ones).
func (c *Controller) resultAt(now time.Time) {
	c.mu.Lock()
	if c.inFlight > 0 {
		c.inFlight--
	}
	var rtt float64
	if at, ok := popFront(&c.sends, &c.sendHead); ok {
		rtt = now.Sub(at).Seconds()
	}
	charge, released := c.releaseLocked(), 1.0 // a value until a wire length sizes the window
	if c.sized {
		released = charge / c.unit
		if charge > rebaseGrowth*c.unit {
			// A base taken on far smaller values says nothing of this one's.
			c.bestRTT, c.baseCur, c.basePrev, c.baseN = math.Inf(1), math.Inf(1), math.Inf(1), 0
		}
		c.unit += unitAlpha * (charge - c.unit)
	}
	gapped := !c.lastResult.IsZero() // a result came before: this one has a gap, if only 0
	if gapped {
		gap := now.Sub(c.lastResult).Seconds()
		if c.ewmaGap == 0 {
			c.ewmaGap = gap
		} else {
			c.ewmaGap = (1-rateAlpha)*c.ewmaGap + rateAlpha*gap
		}
	}
	c.lastResult = now
	if rtt > 0 {
		if c.ewmaRTT == 0 || rtt < c.bestRTT {
			// First sample, or a shorter path: the old average would read as a queue.
			c.ewmaRTT = rtt
		} else {
			c.ewmaRTT = (1-rttAlpha)*c.ewmaRTT + rttAlpha*rtt
		}
		c.baseCur = min(c.baseCur, rtt)
		c.baseN++
		c.bestRTT = min(c.baseCur, c.basePrev)
		// Rotate. A queue that never emptied while the newer bucket filled
		// (its smallest round-trip met half a value or more) is standing.
		standing := false
		if w := c.window / c.unit; c.baseN >= baseBucket && float64(c.baseN) >= 4*w {
			standing = w*(1-c.bestRTT/c.baseCur) >= 0.5
			c.basePrev, c.baseCur, c.baseN = c.baseCur, math.Inf(1), 0
		}
		if c.slowStart && c.service > 0 && gapped {
			c.sizeLocked()
		} else {
			c.adaptLocked(standing, released)
		}
	}
	c.mu.Unlock()
	c.cond.Signal()
}

// queuedLocked estimates how many units in flight queue beyond what the
// path needs: window × (1 − base/ewmaRTT). Caller holds c.mu.
func (c *Controller) queuedLocked() float64 {
	if c.ewmaRTT <= c.bestRTT {
		return 0
	}
	return c.window / c.unit * (1 - c.bestRTT/c.ewmaRTT)
}

// adaptLocked moves the window by the rule in the package comment;
// standing reports a bucket rotation that found a queue, released the
// units the result gave back. Caller holds c.mu.
func (c *Controller) adaptLocked(standing bool, released float64) {
	if !c.policy.Adaptive() {
		return
	}
	w := c.window / c.unit
	queued := c.queuedLocked()
	gross := c.ewmaRTT >= grossRatio*c.bestRTT
	c.slowStart = c.slowStart && queued < queueLow && !gross
	c.sinceMove += released
	nw := w
	switch {
	case standing:
		nw -= math.Floor(queued + 0.5)
	case c.slowStart:
		nw++
	case c.sinceMove < w: // results in flight still carry the last window's queue
	case gross:
		nw = math.Floor(nw / 2)
	case queued < queueLow:
		nw++
	case queued > queueHigh:
		nw--
	}
	// Past slow start a sized window grows only if it held a value back.
	if nw > w && c.sized && !c.filled && !c.slowStart {
		nw = w
	}
	nw = max(min(nw, max(w, float64(c.policy.Max))), float64(c.policy.Min))
	if nw == w {
		return
	}
	if nw > w {
		c.cond.Broadcast()
	}
	// After a cut, the values beyond the new window are in flight as well.
	c.window, c.sinceMove, c.filled = nw*c.unit, min(0, nw-w), false
}

// sizeLocked is the one jump out of slow start (NewController): the
// window becomes the values that keep the path busy for a base round-trip
// and queueLow more, if that is more. Caller holds c.mu.
func (c *Controller) sizeLocked() {
	w := c.window / c.unit
	pace := c.service.Seconds()
	if c.ewmaGap > grossRatio*pace {
		pace = c.ewmaGap // the link, not the worker, spaces the results
	}
	nw := max(w, min(math.Ceil(c.bestRTT/pace+queueLow), float64(c.policy.Max)))
	if nw > w {
		c.cond.Broadcast()
	}
	// The values the old window put in flight come back first, and they
	// met none of the new window's queue: the windowful starts after them.
	c.window, c.slowStart, c.sinceMove, c.filled = nw*c.unit, false, -w, false
}

// Close releases all blocked acquirers; they report failure. Pending
// dispatches are dropped: a closing worker's in-flight values will never
// answer, and their stale send times must not leak into any later
// measurement.
func (c *Controller) Close() {
	c.mu.Lock()
	c.closed = true
	c.sends, c.sendHead = nil, 0
	c.charges, c.chargeHead, c.bytes = nil, 0, 0
	c.mu.Unlock()
	c.cond.Broadcast()
}

// pendingSends reports how many dispatches await a result and the age of
// the oldest: the values the worker holds, as the straggler scan reads
// them.
func (c *Controller) pendingSends() (n int, oldest time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n = len(c.sends) - c.sendHead; n > 0 {
		oldest = time.Since(c.sends[c.sendHead])
	}
	return n, oldest
}

// Window returns the credit window in values of the EWMA wire size.
func (c *Controller) Window() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.windowLocked()
}

func (c *Controller) windowLocked() int {
	return min(max(int(c.window/c.unit+0.5), c.policy.Min), c.policy.Max)
}

// InFlight returns how many values currently hold a credit.
func (c *Controller) InFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inFlight
}

// serviceEstimate returns the smoothed per-item service interval in
// seconds, or 0 when the worker has not produced enough results.
func (c *Controller) serviceEstimate() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ewmaGap
}

// Rate returns the smoothed throughput in items per second.
func (c *Controller) Rate() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ewmaGap <= 0 {
		return 0
	}
	return 1 / c.ewmaGap
}

// Gate wraps the duplex endpoint d into a Through that lets at most the
// controller's current window in flight: pull(sub.Source, Gate(c, d),
// sub.Sink); a duplex charging its values to c (transport.MasterDuplex)
// makes it a window of wire bytes. With a Static(n) controller it
// is the paper's Limiter (pull-limit, §2.4.3 and Figure 9): network
// duplexes read eagerly on their sending side, and without a bound they
// would drain the whole input into one worker's buffers, destroying
// laziness, adaptivity and fault-tolerance granularity; with a large
// enough window, transfers in both directions overlap the computation and
// hide transmission latency (the "batch size" of §5.2-5.4).
//
// The duplex's Sink is driven on a new goroutine; the goroutine
// terminates when the upstream source ends or the gate is closed by a
// terminating result stream.
func Gate[I, O any](c *Controller, d pullstream.Duplex[I, O]) pullstream.Through[I, O] {
	return func(src pullstream.Source[I]) pullstream.Source[O] {
		asks := pullstream.Tap(src, func(end error, _ I) {
			if end != nil {
				// The value never went in flight; return the credit so
				// a concurrent shutdown isn't blocked.
				c.Cancel()
			} else {
				c.Sent()
			}
		})
		go d.Sink(func(abort error, cb pullstream.Callback[I]) {
			if abort != nil {
				src(abort, cb)
				return
			}
			if !c.Acquire() {
				var zero I
				cb(pullstream.ErrDone, zero)
				return
			}
			asks(nil, cb)
		})

		results := pullstream.Tap(d.Source, func(end error, _ O) {
			if end != nil {
				c.Close()
			} else {
				c.Result()
			}
		})
		return func(abort error, cb pullstream.Callback[O]) {
			if abort != nil {
				c.Close()
			}
			results(abort, cb)
		}
	}
}

// SubHandle is the scheduler's view of one worker's lending sub-stream,
// implemented by the engine over lender.SubStream. What the sub-stream
// holds, and since when, the worker's controller already knows from its
// dispatches.
type SubHandle interface {
	// Speculate duplicates up to max of the sub-stream's oldest
	// outstanding values for re-dispatch to other workers, returning how
	// many were duplicated.
	Speculate(max int) int
}

// WorkerFlow is a snapshot of one worker's flow-control state, surfaced
// through the master's stats so operators can watch the controller work.
type WorkerFlow struct {
	Name string
	// InFlight is how many values currently hold a credit.
	InFlight int
	// Window is the credit window in values of the EWMA wire size.
	Window int
	// Rate is the smoothed throughput in items per second.
	Rate float64
	// Speculated counts values duplicated away from this worker by
	// straggler re-dispatch.
	Speculated int
	// RTT, BaseRTT and Queued are what the window rule decides on: smoothed
	// and windowed-minimum round-trip, values estimated to queue beyond need.
	RTT, BaseRTT time.Duration
	Queued       float64
	// Service is the worker's service stamp: how long its processing
	// function took on one value of its session; 0 until one came.
	Service time.Duration
}

// entry pairs a controller with its sub-stream handle.
type entry struct {
	name string
	ctrl *Controller
	sub  SubHandle
}

// Scheduler owns the dispatch policy of one engine: it creates a
// controller per attached worker and, when speculation is enabled, runs
// the straggler scan over them.
type Scheduler struct {
	policy Policy
	parked func() int // idle asks parked at the lender (tail signal)

	mu       sync.Mutex
	weight   func(name string) float64 // reputation-based credit weight
	entries  map[*Controller]*entry
	started  bool
	closed   bool
	stop     chan struct{}
	stopOnce sync.Once
}

// New creates a scheduler. parked reports how many worker asks are
// parked idle at the lender after the input ended (lender.IdleAtTail) —
// non-zero means the stream is near its tail and spare capacity exists;
// it may be nil when speculation is disabled.
func New(p Policy, parked func() int) *Scheduler {
	return &Scheduler{
		policy:  p.norm(),
		parked:  parked,
		entries: make(map[*Controller]*entry),
		stop:    make(chan struct{}),
	}
}

// SetCreditWeight installs a per-worker credit weight in [0, 1],
// consulted at Attach time: the verification layer's reputation ledger
// feeds it, so a worker under suspicion re-attaches with a shrunken
// window (its blast radius — in-flight values it could poison — shrinks
// with its score) and a quarantined worker with the minimum one. A nil
// fn restores uniform windows.
func (s *Scheduler) SetCreditWeight(fn func(name string) float64) {
	s.mu.Lock()
	s.weight = fn
	s.mu.Unlock()
}

// weightedPolicy scales the scheduler's policy by the worker's credit
// weight: an adaptive policy keeps its floor but lowers its probing
// ceiling; a static policy shrinks its fixed window. The window never
// drops below 1 — flow control must not deadlock a worker the fleet
// still lends to (a zero-weight worker is quarantined at the fleet
// layer, not starved here).
func (s *Scheduler) weightedPolicy(name string) Policy {
	s.mu.Lock()
	fn := s.weight
	s.mu.Unlock()
	p := s.policy
	if fn == nil {
		return p
	}
	w := fn(name)
	if w >= 1 {
		return p
	}
	scale := func(n int) int { return max(int(float64(n)*max(w, 0)+0.5), 1) }
	if p.Adaptive() {
		p.Max = scale(p.Max)
		p.Min = min(p.Min, p.Max)
		return p
	}
	p.Min = scale(p.Min)
	p.Max = p.Min
	return p
}

// Attach registers a worker and returns its credit controller. The
// straggler scan starts lazily with the first attachment when the policy
// enables speculation.
func (s *Scheduler) Attach(name string, sub SubHandle) *Controller {
	c := NewController(s.weightedPolicy(name))
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		c.Close()
		return c
	}
	s.entries[c] = &entry{name: name, ctrl: c, sub: sub}
	if s.policy.Speculation > 0 && s.parked != nil && !s.started {
		s.started = true
		go s.scan()
	}
	s.mu.Unlock()
	return c
}

// Detach closes a worker's controller and removes it from the scan. Any
// dispatches still awaiting a result are dropped (the Drop path): a
// detached worker's in-flight values never answer, and their stale send
// times must not be paired with later results.
func (s *Scheduler) Detach(c *Controller) {
	for c.Drop() {
	}
	c.Close()
	s.mu.Lock()
	delete(s.entries, c)
	s.mu.Unlock()
}

// Flows snapshots every attached worker's flow-control state.
func (s *Scheduler) Flows() []WorkerFlow {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]WorkerFlow, 0, len(s.entries))
	for _, e := range s.entries {
		e.ctrl.mu.Lock()
		out = append(out, WorkerFlow{
			Name:       e.name,
			InFlight:   e.ctrl.inFlight,
			Window:     e.ctrl.windowLocked(),
			Speculated: e.ctrl.speculated,
			RTT:        time.Duration(e.ctrl.ewmaRTT * float64(time.Second)),
			BaseRTT:    time.Duration(e.ctrl.bestRTT * float64(time.Second)),
			Queued:     e.ctrl.queuedLocked(),
			Service:    e.ctrl.service,
		})
		gap := e.ctrl.ewmaGap
		e.ctrl.mu.Unlock()
		if gap > 0 {
			out[len(out)-1].Rate = 1 / gap
		}
	}
	return out
}

// Stop halts the straggler scan and refuses new attachments; existing
// controllers keep gating until their own streams end, so in-flight
// processors finish normally.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stop) })
}

// Close stops the scan and closes every controller, releasing any
// goroutine blocked on a credit.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	entries := make([]*entry, 0, len(s.entries))
	for _, e := range s.entries {
		entries = append(entries, e)
	}
	s.entries = make(map[*Controller]*entry)
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stop) })
	for _, e := range entries {
		e.ctrl.Close()
	}
}

// scan bounds on how often the straggler detector runs.
const (
	minScanInterval = 200 * time.Microsecond
	maxScanInterval = 100 * time.Millisecond
	idleScan        = 5 * time.Millisecond
)

// scan is the straggler detector: while workers are idle near the tail
// of the stream, values stuck on a worker far beyond the fleet's median
// service time are duplicated to the idle workers; the first result wins.
func (s *Scheduler) scan() {
	interval := idleScan
	for {
		timer := time.NewTimer(interval)
		select {
		case <-s.stop:
			timer.Stop()
			return
		case <-timer.C:
		}
		interval = s.scanOnce()
	}
}

// scanOnce runs one straggler pass and returns the next scan interval,
// derived from the fleet's median service time so the scan keeps pace
// with the workload without spinning.
func (s *Scheduler) scanOnce() time.Duration {
	median := s.medianService()
	interval := idleScan
	if median > 0 {
		interval = time.Duration(median * s.policy.Speculation / 4 * float64(time.Second))
		interval = min(max(interval, minScanInterval), maxScanInterval)
	}
	idle := s.parked()
	if idle <= 0 || median <= 0 {
		return interval
	}
	threshold := time.Duration(s.policy.Speculation * median * float64(time.Second))
	s.mu.Lock()
	entries := make([]*entry, 0, len(s.entries))
	for _, e := range s.entries {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	for _, e := range entries {
		n, oldest := e.ctrl.pendingSends()
		if n == 0 || oldest < threshold {
			continue
		}
		k := e.sub.Speculate(idle)
		if k > 0 {
			e.ctrl.mu.Lock()
			e.ctrl.speculated += k
			e.ctrl.mu.Unlock()
			idle -= k
			if idle <= 0 {
				break
			}
		}
	}
	return interval
}

// medianService returns the fleet's median smoothed per-item service
// interval in seconds, over the workers with enough history.
func (s *Scheduler) medianService() float64 {
	s.mu.Lock()
	var samples []float64
	for _, e := range s.entries {
		if g := e.sub; g == nil {
			continue
		}
		if gap := e.ctrl.serviceEstimate(); gap > 0 {
			samples = append(samples, gap)
		}
	}
	s.mu.Unlock()
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	return samples[len(samples)/2]
}
