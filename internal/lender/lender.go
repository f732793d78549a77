// Package lender implements StreamLender, the novel abstraction at the
// core of Pando (paper §3, Algorithm 1): it splits an input stream into
// multiple concurrent sub-streams — one per participating worker — and
// merges the results back into a single output stream.
//
// StreamLender encapsulates the streaming, ordered, dynamic, unbounded,
// lazy, fault-tolerant, conservative and adaptive properties of Pando's
// programming model (paper Table 1) independently of any communication
// protocol or input-output library:
//
//   - Streaming/ordered: the output delivers f(x_i) in the order of the
//     corresponding inputs x_i (an unordered mode is available for
//     applications such as crypto-currency mining, paper §4.2).
//   - Dynamic/unbounded: sub-streams are created as workers join, at any
//     time, with no a priori limit.
//   - Lazy: a new input is read only when a sub-stream asks for a value
//     and no failed value is waiting to be re-lent.
//   - Fault-tolerant: when a sub-stream terminates while still holding
//     lent values, those values are moved to the failed queue and re-lent,
//     oldest first, to the next asking sub-stream.
//   - Conservative: a value is lent to at most one sub-stream at a time.
//   - Adaptive: faster workers ask more often and therefore receive more
//     values.
package lender

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"pando/internal/pullstream"
)

// lent is a value borrowed from the input together with its stream index
// and, while a sub-stream holds it, when it was handed over.
type lent[I any] struct {
	idx int
	v   I
	at  time.Time
}

// waiter is a parked sub-stream ask: a request that could not be answered
// immediately (Algorithm 1's waitOnOthers) and will be answered when a
// failed value becomes available, a new input can be read, or the stream
// completes.
type waiter[I any] struct {
	sub *SubStream[I]
	cb  pullstream.Callback[I]
}

// fifo is a slice-backed queue that reuses its backing array: popping
// advances a head index and the live part is copied down once the dead
// prefix dominates, so a long-lived queue neither allocates per item nor
// pins everything it ever held.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) len() int  { return len(q.items) - q.head }
func (q *fifo[T]) live() []T { return q.items[q.head:] }
func (q *fifo[T]) push(v T)  { q.items = append(q.items, v) }

func (q *fifo[T]) pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	if q.head++; q.head > len(q.items)/2 {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	return v
}

// removeAt drops the i-th live element, keeping the order of the rest.
func (q *fifo[T]) removeAt(i int) T {
	if i == 0 {
		return q.pop()
	}
	live := q.live()
	v := live[i]
	copy(live[i:], live[i+1:])
	var zero T
	live[len(live)-1] = zero
	q.items = q.items[:len(q.items)-1]
	return v
}

// step collects what one locked transition decided to tell the outside
// world, for run to deliver once the lock is released. It lives on the
// caller's stack and holds the common case (one ask answered, one result
// exported and emitted) in place, so a transition allocates nothing; only
// verification's verdict and audit callbacks, rare and varied, ride as
// closures.
type step[I, O any] struct {
	hooks []func()

	export    func(idx int, v O)
	exportIdx int
	exportV   O
	exportOf  *Lender[I, O] // told once the export has returned

	lend  answerTo[I] // first sub-stream answer, in place
	lends []answerTo[I]

	out answerTo[O]
}

// answerTo is one pull-stream answer awaiting delivery.
type answerTo[T any] struct {
	cb  pullstream.Callback[T]
	end error
	v   T
}

func (st *step[I, O]) answer(cb pullstream.Callback[I], end error, v I) {
	a := answerTo[I]{cb: cb, end: end, v: v}
	if st.lend.cb == nil {
		st.lend = a
		return
	}
	st.lends = append(st.lends, a)
}

// run delivers the step outside the lender's lock: hooks and the export
// first, so a journaling hook records a result no later than the emission
// this step carries. Another goroutine may emit the result before the
// export returns, but the output's end waits for every export (see
// exportDone).
func (st *step[I, O]) run() {
	for _, h := range st.hooks {
		h()
	}
	if st.export != nil {
		st.export(st.exportIdx, st.exportV)
		st.exportOf.exportDone()
	}
	if st.lend.cb != nil {
		st.lend.cb(st.lend.end, st.lend.v)
	}
	for _, a := range st.lends {
		a.cb(a.end, a.v)
	}
	if st.out.cb != nil {
		st.out.cb(st.out.end, st.out.v)
	}
}

// Lender is the StreamLender state machine. Create one with New, bind the
// input with Bind (or use Through), and create one sub-stream per worker
// with LendStream.
type Lender[I, O any] struct {
	ordered bool

	mu      sync.Mutex
	input   pullstream.Source[I]
	reading bool  // an input read is in flight
	inEnd   error // non-nil once the input terminated (ErrDone or failure)
	nextIdx int   // index assigned to the next value read

	// readReq wakes the input reader (readInput) for one read; it is made
	// with the reader at the first read and closed — retiring the reader —
	// once no read can follow.
	readReq     chan struct{}
	readRetired bool

	// done marks indices restored from a checkpoint (see Restore): their
	// values are consumed from the input but never lent, and their results
	// are replayed to the output from the reorder buffer.
	done map[int]bool
	// onResult, when set, is told each newly accepted (index, result)
	// pair — after speculation dedup, so each index fires at most once.
	// It is the journaling export hook; replayed (restored) results do
	// not fire it.
	onResult func(idx int, v O)
	// exporting counts accepted results whose onResult call has not
	// returned yet; the output does not end while it is non-zero, so a
	// caller that closes the journal after the stream's end loses no
	// record.
	exporting int

	failed fifo[lent[I]] // values to re-lend, oldest first

	// Ordered mode: reorder buffer keyed by input index.
	results map[int]O
	nextOut int
	// Unordered mode: results ready to emit, arrival order.
	ready fifo[O]

	outstanding int // value copies currently lent to live sub-streams
	pending     int // distinct values read from the input but not yet answered

	// spec tracks values with more than one copy in flight, created by
	// Speculate: the first result for the value wins and later copies'
	// results are discarded on arrival.
	spec map[int]*specState[I]

	// verify, when set (SetVerify), replaces the single-copy lending
	// discipline with k-replication and vote-gated completion; votes is
	// the per-index vote state. See verify.go.
	verify *VerifyConfig[I, O]
	votes  map[int]*voteState[I, O]

	// Memory bounding (SetHighWater/SetSpill). highWater caps how many
	// buffered results the lender holds on the heap; beyond it, ordered
	// results far ahead of the output cursor move to the spill store when
	// one is attached, and fresh input reads pause otherwise (output
	// backpressure propagating all the way to the input source).
	highWater   int
	spill       SpillStore
	spillEnc    func(O) ([]byte, error)
	spillDec    func([]byte) (O, error)
	spilled     map[int]struct{} // indices parked in the spill store
	spillBroken bool             // a Put failed; stop spilling, keep correctness

	waiters fifo[waiter[I]]        // parked sub-stream asks, FIFO
	out     pullstream.Callback[O] // parked output ask (at most one)

	aborted error // set when the output consumer aborts
	outDone bool  // the output already delivered its end signal

	nextSubID int
	subsEnded int
	subsMade  int

	// state below is only written under mu; subStream structs hold
	// per-sub-stream queues and are also guarded by mu.
}

// Option configures a Lender.
type Option func(*config)

type config struct {
	ordered bool
}

// Unordered makes the lender emit results in completion order instead of
// input order. The paper (§4.2) notes this relaxation lets a valid nonce
// be reported as soon as possible in synchronous parallel search.
func Unordered() Option {
	return func(c *config) { c.ordered = false }
}

// New returns a StreamLender for inputs of type I and results of type O.
// By default results are emitted in input order.
func New[I, O any](opts ...Option) *Lender[I, O] {
	cfg := config{ordered: true}
	for _, o := range opts {
		o(&cfg)
	}
	return &Lender[I, O]{
		ordered: cfg.ordered,
		results: make(map[int]O),
	}
}

// SpillStore is the overflow segment the lender parks far-ahead results
// in when the reorder buffer exceeds the high-water mark. It is the
// byte-level subset of journal.SpillStore the lender needs; payloads are
// produced and consumed through the encode/decode pair given to SetSpill.
type SpillStore interface {
	Put(idx int, payload []byte) error
	Load(idx int) ([]byte, error)
	Forget(idx int)
}

// SetHighWater bounds the lender's buffered-result memory at hw results.
// In ordered mode the bound applies to the reorder buffer: past it,
// results whose index is farthest ahead of the output cursor spill to the
// attached store (SetSpill), or — with no store — fresh input reads pause
// until the output consumer catches up. In unordered mode there is
// nothing to reorder, so the bound is pure backpressure on the ready
// queue. hw <= 0 (the default) disables the bound. Call before Bind.
//
// The gate pauses fresh input reads; it does not recall work. A read is
// admitted while fewer than hw results are buffered, and the values in
// flight at that moment — everything lent to the sub-streams plus the
// read itself — still land afterwards, as do re-lent values, which are
// never gated. The buffer therefore peaks at hw-1 plus the values in
// flight when the last read was admitted, which the sub-streams' credit
// windows bound: hw-1+w for w sub-streams holding one value each. That
// overshoot is configuration-sized, not stream-sized, which is what the
// bound is for.
func (l *Lender[I, O]) SetHighWater(hw int) {
	l.mu.Lock()
	l.highWater = hw
	l.mu.Unlock()
}

// SetSpill attaches an overflow store for ordered results beyond the
// high-water mark, with the encode/decode pair that maps results to
// stored payloads. Spilled results return to the heap exactly when the
// output stream reaches their index; a store that fails to load back
// fails the output stream (the payload is gone, exactly-once emission
// cannot be preserved by recomputing silently). Call before Bind.
func (l *Lender[I, O]) SetSpill(store SpillStore, enc func(O) ([]byte, error), dec func([]byte) (O, error)) {
	l.mu.Lock()
	l.spill = store
	l.spillEnc = enc
	l.spillDec = dec
	if l.spilled == nil {
		l.spilled = make(map[int]struct{})
	}
	l.mu.Unlock()
}

// MemStats reports the reorder state: results buffered on the heap and
// results parked in the spill store. The long-stream memory-bound tests
// watch these.
func (l *Lender[I, O]) MemStats() (heap, spilled int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ordered {
		return len(l.results), len(l.spilled)
	}
	return l.ready.len(), 0
}

// saturatedLocked reports whether fresh input reads should pause: the
// buffered-result bound is hit and no spill store absorbs the overflow.
// Only buffered results count — not l.outstanding nor the read in flight,
// hence the overshoot SetHighWater documents. Re-lending from the failed
// queue is never gated — a gated re-lend could
// deadlock the stream behind the very straggler whose value must be
// re-lent to make the output advance.
func (l *Lender[I, O]) saturatedLocked() bool {
	if l.highWater <= 0 {
		return false
	}
	if !l.ordered {
		return l.ready.len() >= l.highWater
	}
	if l.spill != nil && !l.spillBroken {
		return false // the spill store bounds the heap instead
	}
	return len(l.results) >= l.highWater
}

// maybeSpillLocked moves the farthest-ahead buffered results to the spill
// store until the heap is back under the high-water mark. The results
// nearest the output cursor stay in memory, so the common case — the
// consumer draining in order — never touches disk. A failed Put turns
// spilling off and degrades to read gating; the result stays on the heap
// and correctness is unaffected.
func (l *Lender[I, O]) maybeSpillLocked() {
	if l.spill == nil || l.spillBroken || l.highWater <= 0 || !l.ordered {
		return
	}
	for len(l.results) > l.highWater {
		max := -1
		for idx := range l.results {
			if idx > max {
				max = idx
			}
		}
		payload, err := l.spillEnc(l.results[max])
		if err == nil {
			err = l.spill.Put(max, payload)
		}
		if err != nil {
			l.spillBroken = true
			return
		}
		delete(l.results, max)
		l.spilled[max] = struct{}{}
	}
}

// Restore marks completed indices recovered from a durable checkpoint:
// their values are skipped at the input (consumed, never lent) and their
// results are replayed to the output exactly once, in index order,
// interleaved with fresh results exactly as an uninterrupted run would
// have emitted them. Call it before Bind; a restored index never reaches
// a sub-stream, so no volunteer redoes its work.
func (l *Lender[I, O]) Restore(completed map[int]O) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done == nil {
		l.done = make(map[int]bool, len(completed))
	}
	if l.ordered {
		for idx, v := range completed {
			l.done[idx] = true
			l.results[idx] = v
		}
		// A large restored set is exactly the far-ahead overflow the
		// spill store exists for: page it out before replay begins.
		l.maybeSpillLocked()
		return
	}
	// Unordered mode has no reorder buffer: replay in index order first,
	// then fresh results in completion order.
	idxs := make([]int, 0, len(completed))
	for idx := range completed {
		l.done[idx] = true
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		l.ready.push(completed[idx])
	}
}

// OnResult registers the completed-set export hook: fn is invoked, outside
// the lender's lock, for each accepted (index, result) pair — after
// speculation dedup and crash re-lending, so an index fires at most once
// per run. Restored indices (Restore) do not fire; they were exported by
// the run that computed them. Call it before Bind.
func (l *Lender[I, O]) OnResult(fn func(idx int, v O)) {
	l.mu.Lock()
	l.onResult = fn
	l.mu.Unlock()
}

// Bind attaches the input source and returns the merged output source,
// mirroring pull(input, lender, output) in the paper's Figure 9.
func (l *Lender[I, O]) Bind(src pullstream.Source[I]) pullstream.Source[O] {
	l.mu.Lock()
	l.input = src
	var st step[I, O]
	l.serviceLocked(&st)
	l.mu.Unlock()
	st.run()
	return l.outputSource
}

// Through returns the lender as a pull-stream Through.
func (l *Lender[I, O]) Through() pullstream.Through[I, O] {
	return func(src pullstream.Source[I]) pullstream.Source[O] {
		return l.Bind(src)
	}
}

// SubStream is one lending sub-stream (paper Figure 8): its Source
// produces the values lent to one worker and its Sink consumes that
// worker's results. Obtain one with LendStream.
type SubStream[I any] struct {
	id   int
	name string // worker identity for vote accounting (LendStreamNamed)
	dead bool
	// outstanding holds the values lent through this sub-stream that have
	// not been answered yet, oldest first. Results are matched to values
	// by arrival order, as in pull-lend-stream.
	outstanding fifo[lent[I]]
	parked      bool // this sub-stream has an ask in l.waiters
}

// specState is the bookkeeping of one speculatively duplicated value.
type specState[I any] struct {
	copies   int           // copies in flight (sub-stream queues + failed queue)
	answered bool          // a result for this value was already delivered
	origin   *SubStream[I] // holder of the original copy at duplication time
}

// ID returns a diagnostic identifier unique within this lender.
func (s *SubStream[I]) ID() int { return s.id }

// Name returns the worker identity the sub-stream was created under.
func (s *SubStream[I]) Name() string { return s.name }

// LendStream creates a new sub-stream and returns its duplex endpoints.
// It may be called at any time, including after the input ended: the new
// sub-stream will then either receive failed values or be told the stream
// is done. This is the "dynamic" and "unbounded" property of the model.
func (l *Lender[I, O]) LendStream() (sub *SubStream[I], d pullstream.Duplex[O, I]) {
	return l.LendStreamNamed("")
}

// LendStreamNamed is LendStream under a worker identity. The name is
// what vote accounting keys ballots by: several sub-streams created
// under one name (a multi-core device, or a worker re-leased after a
// reconnect) are one voice in any quorum. An empty name gets a
// per-sub-stream placeholder, so anonymous sub-streams never alias.
func (l *Lender[I, O]) LendStreamNamed(name string) (sub *SubStream[I], d pullstream.Duplex[O, I]) {
	l.mu.Lock()
	sub = &SubStream[I]{id: l.nextSubID, name: name}
	if name == "" {
		sub.name = fmt.Sprintf("#%d", sub.id)
	}
	l.nextSubID++
	l.subsMade++
	l.mu.Unlock()
	d = pullstream.Duplex[O, I]{
		Source: func(abort error, cb pullstream.Callback[I]) {
			l.subAsk(sub, abort, cb)
		},
		Sink: func(src pullstream.Source[O]) {
			go l.consumeResults(sub, src)
		},
	}
	return sub, d
}

// Stats reports diagnostic counters.
func (l *Lender[I, O]) Stats() (lentNow, failedQueue, subStreams, endedSubStreams int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.outstanding, l.failed.len(), l.subsMade, l.subsEnded
}

// Backlog reports the lender's appetite for workers: how many value
// copies are currently lent, how many failed values await re-lending,
// and whether the stream is complete (input ended and every value
// answered — nothing left for any worker, current or future). It is the
// demand signal a shared fleet weighs jobs by.
func (l *Lender[I, O]) Backlog() (outstanding, failed int, complete bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	complete = l.aborted != nil || (l.inEnd != nil && l.pending == 0)
	return l.outstanding, l.failed.len(), complete
}

// SubInfo reports how many values are currently lent through s and the
// age of the oldest one — the straggler signal the scheduler watches.
func (l *Lender[I, O]) SubInfo(s *SubStream[I]) (outstanding int, oldest time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s.outstanding.len() == 0 {
		return 0, 0
	}
	return s.outstanding.len(), time.Since(s.outstanding.live()[0].at)
}

// IdleAtTail reports how many sub-stream asks are parked after the input
// ended — idle workers near the stream's tail, the scheduler's signal
// that spare capacity exists for speculative re-dispatch. While the
// input is still producing it returns 0: asks also park briefly during
// ordinary input reads, and those waiters are not idle capacity.
func (l *Lender[I, O]) IdleAtTail() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.inEnd == nil {
		return 0
	}
	return l.waiters.len()
}

// Speculate duplicates up to max of sub-stream s's oldest outstanding
// values into the failed queue so they are re-lent to other sub-streams.
// The original stays lent to s: whichever copy answers first delivers the
// result and the loser's result is discarded on arrival. This is the
// at-least-once re-dispatch behind the scheduler's straggler handling; a
// value is duplicated at most once at a time, and a duplicate is never
// handed back to the sub-stream holding the original. It returns how many
// values were duplicated.
func (l *Lender[I, O]) Speculate(s *SubStream[I], max int) int {
	l.mu.Lock()
	n := 0
	if !s.dead && l.aborted == nil && l.verify != nil {
		// Under verification a speculative duplicate is one more
		// replica: name-keyed ballots and the participant check make
		// it structurally impossible for the duplicate to count as an
		// independent vote.
		n = l.voteSpeculateLocked(s, max)
	} else if !s.dead && l.aborted == nil {
		for _, it := range s.outstanding.live() {
			if n >= max {
				break
			}
			if _, dup := l.spec[it.idx]; dup {
				continue
			}
			if l.spec == nil {
				l.spec = make(map[int]*specState[I])
			}
			l.spec[it.idx] = &specState[I]{copies: 2, origin: s}
			l.failed.push(lent[I]{idx: it.idx, v: it.v})
			n++
		}
	}
	var st step[I, O]
	if n > 0 {
		l.serviceLocked(&st)
	}
	l.mu.Unlock()
	st.run()
	return n
}

// subAsk answers one request on a sub-stream source, implementing
// Algorithm 1 of the paper.
func (l *Lender[I, O]) subAsk(s *SubStream[I], abort error, cb pullstream.Callback[I]) {
	var zero I
	var st step[I, O]
	if abort != nil {
		// The worker side aborted its input: treat as sub-stream
		// termination so outstanding values are re-lent.
		l.mu.Lock()
		l.endSubLocked(&st, s)
		l.mu.Unlock()
		st.run()
		cb(abort, zero)
		return
	}

	l.mu.Lock()
	if s.dead || l.aborted != nil {
		l.mu.Unlock()
		cb(pullstream.ErrDone, zero)
		return
	}
	if s.parked {
		// Protocol violation by the caller (two concurrent asks); answer
		// done rather than corrupting state.
		l.mu.Unlock()
		cb(pullstream.ErrDone, zero)
		return
	}
	l.waiters.push(waiter[I]{sub: s, cb: cb})
	s.parked = true
	l.serviceLocked(&st)
	l.mu.Unlock()
	st.run()
}

// consumeResults drains a sub-stream's result source, feeding results into
// the merge machinery and signalling termination (crash-stop or graceful)
// when the source ends.
func (l *Lender[I, O]) consumeResults(s *SubStream[I], src pullstream.Source[O]) {
	err := pullstream.Drain(src, func(v O) error {
		var st step[I, O]
		l.mu.Lock()
		l.resultLocked(&st, s, v)
		l.mu.Unlock()
		st.run()
		return nil
	})
	_ = err // both graceful end and failure re-lend outstanding values
	var st step[I, O]
	l.mu.Lock()
	l.endSubLocked(&st, s)
	l.mu.Unlock()
	st.run()
}

// resultLocked records one result arriving on sub-stream s.
func (l *Lender[I, O]) resultLocked(st *step[I, O], s *SubStream[I], v O) {
	if s.dead || s.outstanding.len() == 0 {
		// Stale or unmatched result; drop it (the value it would answer
		// has already been re-lent or never existed).
		return
	}
	item := s.outstanding.pop()
	l.outstanding--
	if l.verify != nil {
		// Verification gates emission behind the quorum; the vote
		// machinery owns pending/emission from here.
		l.voteResultLocked(st, s, item, v)
		return
	}
	if sp, ok := l.spec[item.idx]; ok {
		l.dropCopyLocked(item.idx, sp)
		if sp.answered {
			// Losing duplicate: the value was already answered by the
			// faster copy; discard this result.
			l.serviceLocked(st)
			return
		}
		sp.answered = true
	}
	l.acceptLocked(st, item.idx, v)
	l.serviceLocked(st)
}

// acceptLocked is the single place a result enters the reorder buffer (or
// the ready queue) and the completed-set export: the value at idx is
// answered for good.
func (l *Lender[I, O]) acceptLocked(st *step[I, O], idx int, v O) {
	l.pending--
	if l.ordered {
		l.results[idx] = v
		l.maybeSpillLocked()
	} else {
		l.ready.push(v)
	}
	if l.onResult != nil {
		l.exporting++
		st.export, st.exportIdx, st.exportV, st.exportOf = l.onResult, idx, v, l
	}
}

// exportDone retires one export that ran outside the lock; the last one
// after the input's end may complete the output.
func (l *Lender[I, O]) exportDone() {
	var st step[I, O]
	l.mu.Lock()
	l.exporting--
	if l.exporting == 0 && l.inEnd != nil {
		l.serviceLocked(&st)
	}
	l.mu.Unlock()
	st.run()
}

// endSubLocked terminates sub-stream s: outstanding values move to the
// failed queue (oldest first) for re-lending, and any parked ask from s is
// answered done.
func (l *Lender[I, O]) endSubLocked(st *step[I, O], s *SubStream[I]) {
	if s.dead {
		return
	}
	s.dead = true
	l.subsEnded++
	for _, it := range s.outstanding.live() {
		l.outstanding--
		if l.verify != nil {
			l.voteEndCopyLocked(s, it)
			continue
		}
		if sp, ok := l.spec[it.idx]; ok {
			if sp.answered || l.failedHasLocked(it.idx) {
				// Either a duplicate already answered this value, so the
				// dead copy need not be re-lent, or the value's other copy
				// already waits in the failed queue — its holder died too
				// (simultaneous failures near the tail) — and the two
				// collapse to a single queued copy so each distinct value
				// is re-lent exactly once.
				l.dropCopyLocked(it.idx, sp)
				continue
			}
		}
		l.failed.push(it)
	}
	s.outstanding = fifo[lent[I]]{}

	if s.parked {
		// Remove s's parked ask and answer it done.
		for i, w := range l.waiters.live() {
			if w.sub == s {
				var zero I
				st.answer(l.waiters.removeAt(i).cb, pullstream.ErrDone, zero)
				break
			}
		}
		s.parked = false
	}
	l.serviceLocked(st)
}

// dropCopyLocked accounts one copy of a speculated value leaving flight.
func (l *Lender[I, O]) dropCopyLocked(idx int, sp *specState[I]) {
	if sp.copies--; sp.copies == 0 {
		delete(l.spec, idx)
	}
}

// failedHasLocked reports whether an idx is already queued for re-lending.
// Caller holds mu. The scan is linear, but it only runs for speculatively
// duplicated values on sub-stream death, and the failed queue drains to
// asking workers ahead of fresh input, so it stays short.
func (l *Lender[I, O]) failedHasLocked(idx int) bool {
	for _, f := range l.failed.live() {
		if f.idx == idx {
			return true
		}
	}
	return false
}

// dismissWaitersLocked answers every parked sub-stream ask done.
func (l *Lender[I, O]) dismissWaitersLocked(st *step[I, O]) {
	var zero I
	for l.waiters.len() > 0 {
		w := l.waiters.pop()
		w.sub.parked = false
		st.answer(w.cb, pullstream.ErrDone, zero)
	}
}

// lendLocked hands the i-th parked ask the value it: the value joins the
// asker's outstanding queue and the ask is answered with it.
func (l *Lender[I, O]) lendLocked(st *step[I, O], i int, it lent[I]) *SubStream[I] {
	w := l.waiters.removeAt(i)
	w.sub.parked = false
	it.at = time.Now()
	w.sub.outstanding.push(it)
	l.outstanding++
	st.answer(w.cb, nil, it.v)
	return w.sub
}

// serviceLocked advances the state machine: it answers parked sub-stream
// asks from the failed queue, asks for an input read when one is needed,
// answers completion, and serves the parked output ask. The answers it
// decides on are collected in st, to be delivered outside the lock.
func (l *Lender[I, O]) serviceLocked(st *step[I, O]) {
	if l.aborted != nil {
		l.dismissWaitersLocked(st)
		return
	}

	// Answer waiters from the failed queue first (Algorithm 1,
	// answerWithFailedValue: oldest failed value first). Speculative
	// copies need two extra checks: a copy whose value was already
	// answered by the winning duplicate is discarded instead of re-lent,
	// and a duplicate is never handed back to the sub-stream that
	// already holds the original.
	fi := 0
	for fi < l.failed.len() && l.waiters.len() > 0 {
		if l.verify != nil {
			if !l.voteRelendLocked(st, fi) {
				fi++
			}
			continue
		}
		it := l.failed.live()[fi]
		sp := l.spec[it.idx]
		if sp != nil && sp.answered {
			l.dropCopyLocked(it.idx, sp)
			l.failed.removeAt(fi)
			continue
		}
		wi := 0
		if sp != nil {
			wi = -1
			for j, w := range l.waiters.live() {
				if w.sub != sp.origin {
					wi = j
					break
				}
			}
			if wi < 0 {
				// Only the origin is asking; leave its duplicate queued
				// for a different sub-stream.
				fi++
				continue
			}
		}
		l.lendLocked(st, wi, l.failed.removeAt(fi))
	}

	if l.waiters.len() > 0 {
		if l.inEnd == nil {
			// Lazily read a new value (Algorithm 1 line 6), one read at a
			// time, if the input is bound. Fresh reads pause while the
			// buffered results sit at the high-water mark (saturatedLocked)
			// — the backpressure that keeps a slow output consumer from
			// turning the reorder buffer into O(stream) state. Re-lending
			// above is never gated, so stragglers still resolve.
			if !l.reading && l.input != nil && !l.saturatedLocked() {
				l.requestReadLocked()
			}
		} else if l.pending == 0 {
			// Every value the input produced has been answered (copies
			// still in flight at stragglers are zombies whose results
			// will be discarded); tell waiters we are done.
			l.dismissWaitersLocked(st)
		}
		// Otherwise: waitOnOthers — keep them parked until a failure or
		// completion.
	}

	l.serveOutputLocked(st)
}

// requestReadLocked wakes the input reader for one read, starting it at
// the first. reading admits one request at a time, so the send never
// finds the channel full.
func (l *Lender[I, O]) requestReadLocked() {
	l.reading = true
	if l.readReq == nil {
		l.readReq = make(chan struct{}, 1)
		go l.readInput(l.input, l.readReq)
	}
	l.readReq <- struct{}{}
}

// readInput is the lender's one input reader. It reads only when the
// service step asked for a value (lazy: never ahead of an ask), on its own
// goroutine because input sources may block until a value is available
// while the goroutine that triggered the service step may be needed
// elsewhere (it might even be the one that will produce the input). It
// returns once endInputLocked closed req: the input ended or aborted.
func (l *Lender[I, O]) readInput(input pullstream.Source[I], req <-chan struct{}) {
	answer := l.inputAnswer // one method value for the stream, not one per read
	for range req {
		input(nil, answer)
	}
}

// endInputLocked records the input's end signal and lets the input reader
// go: no read can follow.
func (l *Lender[I, O]) endInputLocked(end error) {
	l.reading = false
	l.inEnd = end
	if l.readReq != nil && !l.readRetired {
		l.readRetired = true
		close(l.readReq)
	}
}

// inputAnswer receives one answer from the input source.
func (l *Lender[I, O]) inputAnswer(end error, v I) {
	var st step[I, O]
	l.mu.Lock()
	l.reading = false
	switch {
	case end != nil:
		l.endInputLocked(end)
	case l.aborted != nil:
		// Value arrived after downstream aborted; drop it and forward the
		// abort to the input so it can release its resources.
		l.reading = true
		abort, input := l.aborted, l.input
		st.hooks = append(st.hooks, func() {
			input(abort, func(error, I) {
				l.mu.Lock()
				l.endInputLocked(abort)
				l.mu.Unlock()
			})
		})
	case l.done[l.nextIdx]:
		// Checkpoint-restored value: consume it from the input but never
		// lend it — its result is already queued for replay. The asker
		// stays parked; serviceLocked starts the next read.
		l.nextIdx++
	default:
		idx := l.nextIdx
		l.nextIdx++
		l.pending++
		if l.waiters.len() > 0 {
			sub := l.lendLocked(&st, 0, lent[I]{idx: idx, v: v})
			if l.verify != nil {
				l.voteLendFreshLocked(sub, idx, v)
			}
			break
		}
		// The asker died while the read was in flight; keep the value so
		// it is not lost (conservative property: it will be lent to the
		// next asker).
		l.failed.push(lent[I]{idx: idx, v: v})
		if l.verify != nil {
			// Track the queued copy; replicas fan out at first lend.
			l.voteEnsureOpenLocked(idx, v).queued++
		}
	}
	l.serviceLocked(&st)
	l.mu.Unlock()
	st.run()
}

// completeLocked reports whether every value read from the input has been
// answered, exported and emitted. Unanswered values may sit in sub-stream
// queues or the failed queue; zombie copies of already-answered values do
// not block completion — that is what bounds tail latency under
// speculation.
func (l *Lender[I, O]) completeLocked() bool {
	if l.inEnd == nil || l.pending > 0 || l.exporting > 0 {
		return false
	}
	if l.ordered {
		return len(l.results) == 0 && len(l.spilled) == 0
	}
	return l.ready.len() == 0
}

// nextResultLocked removes and returns the result at the output cursor,
// from the heap or — paged back in — from the spill store. A store that
// cannot return the payload is an error: the result is gone, and
// exactly-once ordered emission cannot be silently preserved.
func (l *Lender[I, O]) nextResultLocked() (v O, ok bool, err error) {
	if v, ok = l.results[l.nextOut]; ok {
		delete(l.results, l.nextOut)
		return v, true, nil
	}
	if _, sp := l.spilled[l.nextOut]; !sp {
		return v, false, nil
	}
	v, err = l.unspillLocked(l.nextOut)
	return v, err == nil, err
}

// serveOutputLocked answers the parked output ask if possible.
func (l *Lender[I, O]) serveOutputLocked(st *step[I, O]) {
	if l.out == nil || l.outDone {
		return
	}
	var zero O
	if l.ordered {
		v, ok, err := l.nextResultLocked()
		if !ok && err == nil && l.inEnd != nil && l.pending == 0 && (len(l.results) > 0 || len(l.spilled) > 0) {
			// Every in-flight value is answered yet the next slot is
			// empty: the remaining results are checkpoint-restored
			// leftovers past the end of a (shorter) resumed input. Skip
			// to the smallest remaining index so the stream terminates
			// instead of waiting for a value that will never be read.
			min := -1
			for idx := range l.results {
				if min < 0 || idx < min {
					min = idx
				}
			}
			for idx := range l.spilled {
				if min < 0 || idx < min {
					min = idx
				}
			}
			l.nextOut = min
			v, ok, err = l.nextResultLocked()
		}
		if err != nil {
			st.out = answerTo[O]{cb: l.out, end: err}
			l.out, l.outDone = nil, true
			return
		}
		if ok {
			l.nextOut++
			st.out = answerTo[O]{cb: l.out, v: v}
			l.out = nil
			return
		}
	} else if l.ready.len() > 0 {
		st.out = answerTo[O]{cb: l.out, v: l.ready.pop()}
		l.out = nil
		return
	}
	if l.completeLocked() {
		end := l.inEnd
		if pullstream.IsNormalEnd(end) {
			end = pullstream.ErrDone
		}
		st.out = answerTo[O]{cb: l.out, end: end, v: zero}
		l.out, l.outDone = nil, true
	}
}

// outputSource is the merged output of the lender.
func (l *Lender[I, O]) outputSource(abort error, cb pullstream.Callback[O]) {
	var zero O
	var st step[I, O]
	if abort != nil {
		l.mu.Lock()
		l.aborted = abort
		l.outDone = true
		// Only abort the input right away if no read is in flight: the
		// protocol allows one outstanding request at a time. If a read is
		// in flight, inputAnswer will deliver the abort when it returns.
		abortNow := l.input != nil && l.inEnd == nil && !l.reading
		if abortNow {
			l.reading = true
		}
		input := l.input
		l.serviceLocked(&st)
		l.mu.Unlock()
		st.run()
		if abortNow {
			done := make(chan struct{})
			input(abort, func(error, I) { close(done) })
			<-done
			l.mu.Lock()
			l.endInputLocked(abort)
			l.mu.Unlock()
		}
		cb(abort, zero)
		return
	}

	l.mu.Lock()
	if l.outDone {
		end := l.aborted
		if end == nil {
			end = l.inEnd
		}
		if end == nil || pullstream.IsNormalEnd(end) {
			end = pullstream.ErrDone
		}
		l.mu.Unlock()
		cb(end, zero)
		return
	}
	if l.out != nil {
		// Concurrent output asks violate the protocol.
		l.mu.Unlock()
		cb(errors.New("lender: concurrent output requests"), zero)
		return
	}
	l.out = cb
	// A full service step, not just output delivery: emitting a result
	// shrinks the buffered window, which is what lets saturation-gated
	// input reads resume — the release edge of the backpressure loop.
	l.serviceLocked(&st)
	l.mu.Unlock()
	st.run()
}

// unspillLocked loads one spilled result back from the store. The caller
// holds mu; the load is a CRC-checked page-cache read.
func (l *Lender[I, O]) unspillLocked(idx int) (O, error) {
	var zero O
	payload, err := l.spill.Load(idx)
	if err != nil {
		return zero, err
	}
	v, err := l.spillDec(payload)
	if err != nil {
		return zero, err
	}
	delete(l.spilled, idx)
	l.spill.Forget(idx)
	return v, nil
}
