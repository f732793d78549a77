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

// ErrLenderAborted is the end signal delivered to sub-streams when the
// downstream consumer of the lender's output aborts the whole pipeline.
var ErrLenderAborted = errors.New("lender: aborted by downstream")

// lent is a value borrowed from the input together with its stream index.
type lent[I any] struct {
	idx int
	v   I
}

// waiter is a parked sub-stream ask: a request that could not be answered
// immediately (Algorithm 1's waitOnOthers) and will be answered when a
// failed value becomes available, a new input can be read, or the stream
// completes.
type waiter[I any] struct {
	sub *SubStream
	cb  pullstream.Callback[I]
}

// outAsk is a parked ask on the lender's merged output.
type outAsk[O any] struct {
	cb pullstream.Callback[O]
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

	// done marks indices restored from a checkpoint (see Restore): their
	// values are consumed from the input but never lent, and their results
	// are replayed to the output from the reorder buffer.
	done map[int]bool
	// onResult, when set, is told each newly accepted (index, result)
	// pair — after speculation dedup, so each index fires at most once.
	// It is the journaling export hook; replayed (restored) results do
	// not fire it.
	onResult func(idx int, v O)

	failed []lent[I] // values to re-lend, oldest first

	// Ordered mode: reorder buffer keyed by input index.
	results map[int]O
	nextOut int
	// Unordered mode: results ready to emit, arrival order.
	ready []O

	outstanding int // value copies currently lent to live sub-streams
	pending     int // distinct values read from the input but not yet answered

	// spec tracks values with more than one copy in flight, created by
	// Speculate: the first result for the value wins and later copies'
	// results are discarded on arrival.
	spec map[int]*specState

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

	waiters []waiter[I] // parked sub-stream asks, FIFO
	out     *outAsk[O]  // parked output ask (at most one)

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
	return len(l.ready), 0
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
		return len(l.ready) >= l.highWater
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
		l.ready = append(l.ready, completed[idx])
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

// Abort fails the merged output from the producer's side: the parked
// output ask (and every future one) answers err immediately. The shard
// layer uses it on a killed member — its fleet is severed, so the
// results its output is waiting on will never arrive and the consumer's
// pull would otherwise park forever.
func (l *Lender[I, O]) Abort(err error) {
	l.mu.Lock()
	if l.aborted == nil {
		l.aborted = err
	}
	l.outDone = true
	var cbs []func()
	if l.out != nil {
		cb := l.out.cb
		l.out = nil
		cbs = append(cbs, func() {
			var zero O
			cb(err, zero)
		})
	}
	l.mu.Unlock()
	run(cbs)
}

// Bind attaches the input source and returns the merged output source,
// mirroring pull(input, lender, output) in the paper's Figure 9.
func (l *Lender[I, O]) Bind(src pullstream.Source[I]) pullstream.Source[O] {
	l.mu.Lock()
	l.input = src
	actions := l.serviceLocked()
	l.mu.Unlock()
	run(actions)
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
type SubStream struct {
	id   int
	name string // worker identity for vote accounting (LendStreamNamed)
	dead bool
	// outstanding holds the values lent through this sub-stream that have
	// not been answered yet, oldest first. Results are matched to values
	// by arrival order, as in pull-lend-stream.
	outstanding []lentAny
	parked      bool // this sub-stream has an ask in l.waiters
}

// lentAny erases the input type so SubStream need not be generic; the
// Lender's methods are the only accessors and they know the real type.
type lentAny struct {
	idx int
	v   any
	at  time.Time // when the value was handed to this sub-stream
}

// specState is the bookkeeping of one speculatively duplicated value.
type specState struct {
	copies   int        // copies in flight (sub-stream queues + failed queue)
	answered bool       // a result for this value was already delivered
	origin   *SubStream // holder of the original copy at duplication time
}

// ID returns a diagnostic identifier unique within this lender.
func (s *SubStream) ID() int { return s.id }

// Name returns the worker identity the sub-stream was created under.
func (s *SubStream) Name() string { return s.name }

// LendStream creates a new sub-stream and returns its duplex endpoints.
// It may be called at any time, including after the input ended: the new
// sub-stream will then either receive failed values or be told the stream
// is done. This is the "dynamic" and "unbounded" property of the model.
func (l *Lender[I, O]) LendStream() (sub *SubStream, d pullstream.Duplex[O, I]) {
	return l.LendStreamNamed("")
}

// LendStreamNamed is LendStream under a worker identity. The name is
// what vote accounting keys ballots by: several sub-streams created
// under one name (a multi-core device, or a worker re-leased after a
// reconnect) are one voice in any quorum. An empty name gets a
// per-sub-stream placeholder, so anonymous sub-streams never alias.
func (l *Lender[I, O]) LendStreamNamed(name string) (sub *SubStream, d pullstream.Duplex[O, I]) {
	l.mu.Lock()
	sub = &SubStream{id: l.nextSubID, name: name}
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
	return l.outstanding, len(l.failed), l.subsMade, l.subsEnded
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
	return l.outstanding, len(l.failed), complete
}

// SubInfo reports how many values are currently lent through s and the
// age of the oldest one — the straggler signal the scheduler watches.
func (l *Lender[I, O]) SubInfo(s *SubStream) (outstanding int, oldest time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(s.outstanding) == 0 {
		return 0, 0
	}
	return len(s.outstanding), time.Since(s.outstanding[0].at)
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
	return len(l.waiters)
}

// Speculate duplicates up to max of sub-stream s's oldest outstanding
// values into the failed queue so they are re-lent to other sub-streams.
// The original stays lent to s: whichever copy answers first delivers the
// result and the loser's result is discarded on arrival. This is the
// at-least-once re-dispatch behind the scheduler's straggler handling; a
// value is duplicated at most once at a time, and a duplicate is never
// handed back to the sub-stream holding the original. It returns how many
// values were duplicated.
func (l *Lender[I, O]) Speculate(s *SubStream, max int) int {
	l.mu.Lock()
	n := 0
	if !s.dead && l.aborted == nil && l.verify != nil {
		// Under verification a speculative duplicate is one more
		// replica: name-keyed ballots and the participant check make
		// it structurally impossible for the duplicate to count as an
		// independent vote.
		n = l.voteSpeculateLocked(s, max)
	} else if !s.dead && l.aborted == nil {
		for _, it := range s.outstanding {
			if n >= max {
				break
			}
			if _, dup := l.spec[it.idx]; dup {
				continue
			}
			if l.spec == nil {
				l.spec = make(map[int]*specState)
			}
			l.spec[it.idx] = &specState{copies: 2, origin: s}
			l.failed = append(l.failed, lent[I]{idx: it.idx, v: it.v.(I)})
			n++
		}
	}
	var actions []func()
	if n > 0 {
		actions = l.serviceLocked()
	}
	l.mu.Unlock()
	run(actions)
	return n
}

// run executes deferred actions outside the lender mutex.
func run(actions []func()) {
	for _, a := range actions {
		a()
	}
}

// subAsk answers one request on a sub-stream source, implementing
// Algorithm 1 of the paper.
func (l *Lender[I, O]) subAsk(s *SubStream, abort error, cb pullstream.Callback[I]) {
	var zero I
	if abort != nil {
		// The worker side aborted its input: treat as sub-stream
		// termination so outstanding values are re-lent.
		l.mu.Lock()
		actions := l.endSubLocked(s)
		l.mu.Unlock()
		run(actions)
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
	l.waiters = append(l.waiters, waiter[I]{sub: s, cb: cb})
	s.parked = true
	actions := l.serviceLocked()
	l.mu.Unlock()
	run(actions)
}

// consumeResults drains a sub-stream's result source, feeding results into
// the merge machinery and signalling termination (crash-stop or graceful)
// when the source ends.
func (l *Lender[I, O]) consumeResults(s *SubStream, src pullstream.Source[O]) {
	err := pullstream.Drain(src, func(v O) error {
		l.mu.Lock()
		actions := l.resultLocked(s, v)
		l.mu.Unlock()
		run(actions)
		return nil
	})
	_ = err // both graceful end and failure re-lend outstanding values
	l.mu.Lock()
	actions := l.endSubLocked(s)
	l.mu.Unlock()
	run(actions)
}

// resultLocked records one result arriving on sub-stream s.
func (l *Lender[I, O]) resultLocked(s *SubStream, v O) []func() {
	if s.dead || len(s.outstanding) == 0 {
		// Stale or unmatched result; drop it (the value it would answer
		// has already been re-lent or never existed).
		return nil
	}
	item := s.outstanding[0]
	s.outstanding = s.outstanding[1:]
	l.outstanding--
	if l.verify != nil {
		// Verification gates emission behind the quorum; the vote
		// machinery owns pending/emission from here.
		return l.voteResultLocked(s, item, v)
	}
	if st, ok := l.spec[item.idx]; ok {
		st.copies--
		if st.copies == 0 {
			delete(l.spec, item.idx)
		}
		if st.answered {
			// Losing duplicate: the value was already answered by the
			// faster copy; discard this result.
			return l.serviceLocked()
		}
		st.answered = true
	}
	l.pending--
	if l.ordered {
		l.results[item.idx] = v
		l.maybeSpillLocked()
	} else {
		l.ready = append(l.ready, v)
	}
	var actions []func()
	if l.onResult != nil {
		// Export the completion before the service step's actions so a
		// journaling hook records a result no later than its emission.
		fn, idx := l.onResult, item.idx
		actions = append(actions, func() { fn(idx, v) })
	}
	return append(actions, l.serviceLocked()...)
}

// endSubLocked terminates sub-stream s: outstanding values move to the
// failed queue (oldest first) for re-lending, and any parked ask from s is
// answered done.
func (l *Lender[I, O]) endSubLocked(s *SubStream) []func() {
	if s.dead {
		return nil
	}
	s.dead = true
	l.subsEnded++
	for _, it := range s.outstanding {
		l.outstanding--
		if l.verify != nil {
			l.voteEndCopyLocked(s, it)
			continue
		}
		if st, ok := l.spec[it.idx]; ok {
			if st.answered {
				// A duplicate already answered this value; the dead copy
				// need not be re-lent.
				st.copies--
				if st.copies == 0 {
					delete(l.spec, it.idx)
				}
				continue
			}
			if l.failedHasLocked(it.idx) {
				// The value's other copy already waits in the failed
				// queue — its holder died too (simultaneous failures near
				// the tail). Collapse to a single queued copy so each
				// distinct value is re-lent exactly once.
				st.copies--
				if st.copies == 0 {
					delete(l.spec, it.idx)
				}
				continue
			}
		}
		l.failed = append(l.failed, lent[I]{idx: it.idx, v: it.v.(I)})
	}
	s.outstanding = nil

	var actions []func()
	if s.parked {
		// Remove s's parked ask and answer it done.
		kept := l.waiters[:0]
		for _, w := range l.waiters {
			if w.sub == s {
				cb := w.cb
				actions = append(actions, func() {
					var zero I
					cb(pullstream.ErrDone, zero)
				})
				continue
			}
			kept = append(kept, w)
		}
		l.waiters = kept
		s.parked = false
	}
	return append(actions, l.serviceLocked()...)
}

// failedHasLocked reports whether an idx is already queued for re-lending.
// Caller holds mu. The scan is linear, but it only runs for speculatively
// duplicated values on sub-stream death, and the failed queue drains to
// asking workers ahead of fresh input, so it stays short.
func (l *Lender[I, O]) failedHasLocked(idx int) bool {
	for _, f := range l.failed {
		if f.idx == idx {
			return true
		}
	}
	return false
}

// serviceLocked advances the state machine: it answers parked sub-stream
// asks from the failed queue, starts an input read when one is needed,
// answers completion, and serves the parked output ask. It returns the
// callback invocations to run outside the lock.
func (l *Lender[I, O]) serviceLocked() []func() {
	var actions []func()

	if l.aborted != nil {
		for _, w := range l.waiters {
			cb := w.cb
			w.sub.parked = false
			actions = append(actions, func() {
				var zero I
				cb(pullstream.ErrDone, zero)
			})
		}
		l.waiters = nil
		return actions
	}

	// Answer waiters from the failed queue first (Algorithm 1,
	// answerWithFailedValue: oldest failed value first). Speculative
	// copies need two extra checks: a copy whose value was already
	// answered by the winning duplicate is discarded instead of re-lent,
	// and a duplicate is never handed back to the sub-stream that
	// already holds the original.
	fi := 0
	for fi < len(l.failed) && len(l.waiters) > 0 {
		if l.verify != nil {
			consumed, acts := l.voteRelendLocked(fi)
			actions = append(actions, acts...)
			if !consumed {
				fi++
			}
			continue
		}
		it := l.failed[fi]
		st := l.spec[it.idx]
		if st != nil && st.answered {
			st.copies--
			if st.copies == 0 {
				delete(l.spec, it.idx)
			}
			l.failed = append(l.failed[:fi], l.failed[fi+1:]...)
			continue
		}
		wi := 0
		if st != nil {
			wi = -1
			for j, w := range l.waiters {
				if w.sub != st.origin {
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
		w := l.waiters[wi]
		l.waiters = append(l.waiters[:wi], l.waiters[wi+1:]...)
		l.failed = append(l.failed[:fi], l.failed[fi+1:]...)
		w.sub.parked = false
		w.sub.outstanding = append(w.sub.outstanding, lentAny{idx: it.idx, v: it.v, at: time.Now()})
		l.outstanding++
		cb, v := w.cb, it.v
		actions = append(actions, func() { cb(nil, v) })
	}

	if len(l.waiters) > 0 {
		if l.inEnd == nil {
			// Lazily read a new value (Algorithm 1 line 6), one read at a
			// time, if the input is bound. The read runs on its own
			// goroutine because input sources may block until a value is
			// available (e.g. channel-backed sources), and the goroutine
			// that triggered this service step may be needed elsewhere
			// in the meantime (it might even be the one that will
			// produce the input). Fresh reads pause while the buffered
			// results sit at the high-water mark (saturatedLocked) — the
			// backpressure that keeps a slow output consumer from turning
			// the reorder buffer into O(stream) state. Re-lending above
			// is never gated, so stragglers still resolve.
			if !l.reading && l.input != nil && !l.saturatedLocked() {
				l.reading = true
				actions = append(actions, func() { go l.input(nil, l.inputAnswer) })
			}
		} else if l.pending == 0 {
			// Every value the input produced has been answered (copies
			// still in flight at stragglers are zombies whose results
			// will be discarded); tell waiters we are done.
			for _, w := range l.waiters {
				cb := w.cb
				w.sub.parked = false
				actions = append(actions, func() {
					var zero I
					cb(pullstream.ErrDone, zero)
				})
			}
			l.waiters = nil
		}
		// Otherwise: waitOnOthers — keep them parked until a failure or
		// completion.
	}

	// Serve the output.
	actions = append(actions, l.serveOutputLocked()...)
	return actions
}

// inputAnswer receives one answer from the input source.
func (l *Lender[I, O]) inputAnswer(end error, v I) {
	l.mu.Lock()
	l.reading = false
	var actions []func()
	switch {
	case end != nil:
		l.inEnd = end
	case l.aborted != nil:
		// Value arrived after downstream aborted; drop it and forward the
		// abort to the input so it can release its resources.
		l.reading = true
		abort, input := l.aborted, l.input
		actions = append(actions, func() {
			input(abort, func(error, I) {
				l.mu.Lock()
				l.reading = false
				l.inEnd = abort
				l.mu.Unlock()
			})
		})
	case l.done[l.nextIdx]:
		// Checkpoint-restored value: consume it from the input but never
		// lend it — its result is already queued for replay. The asker
		// stays parked; serviceLocked starts the next read.
		l.nextIdx++
	case len(l.waiters) > 0:
		w := l.waiters[0]
		l.waiters = l.waiters[1:]
		w.sub.parked = false
		idx := l.nextIdx
		l.nextIdx++
		l.pending++
		w.sub.outstanding = append(w.sub.outstanding, lentAny{idx: idx, v: v, at: time.Now()})
		l.outstanding++
		if l.verify != nil {
			l.voteLendFreshLocked(w.sub, idx, v)
		}
		cb := w.cb
		actions = append(actions, func() { cb(nil, v) })
	default:
		// The asker died while the read was in flight; keep the value so
		// it is not lost (conservative property: it will be lent to the
		// next asker).
		idx := l.nextIdx
		l.nextIdx++
		l.pending++
		l.failed = append(l.failed, lent[I]{idx: idx, v: v})
		if l.verify != nil {
			// Track the queued copy; replicas fan out at first lend.
			l.voteEnsureOpenLocked(idx, v).queued++
		}
	}
	actions = append(actions, l.serviceLocked()...)
	l.mu.Unlock()
	run(actions)
}

// completeLocked reports whether every value read from the input has been
// answered and emitted. Unanswered values may sit in sub-stream queues or
// the failed queue; zombie copies of already-answered values do not block
// completion — that is what bounds tail latency under speculation.
func (l *Lender[I, O]) completeLocked() bool {
	if l.inEnd == nil || l.pending > 0 {
		return false
	}
	if l.ordered {
		return len(l.results) == 0 && len(l.spilled) == 0
	}
	return len(l.ready) == 0
}

// serveOutputLocked answers the parked output ask if possible.
func (l *Lender[I, O]) serveOutputLocked() []func() {
	if l.out == nil || l.outDone {
		return nil
	}
	cb := l.out.cb
	if l.ordered {
		if _, ok := l.results[l.nextOut]; !ok {
			if _, sp := l.spilled[l.nextOut]; sp {
				// The next result was paged out; bring it back. A store
				// that cannot return the payload fails the stream —
				// the result is gone and exactly-once ordered emission
				// cannot be silently preserved.
				v, err := l.unspillLocked(l.nextOut)
				if err != nil {
					l.out = nil
					l.outDone = true
					return []func(){func() {
						var zero O
						cb(err, zero)
					}}
				}
				l.results[l.nextOut] = v
			}
		}
		if _, ok := l.results[l.nextOut]; !ok && l.inEnd != nil && l.pending == 0 && (len(l.results) > 0 || len(l.spilled) > 0) {
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
			if _, sp := l.spilled[l.nextOut]; sp {
				v, err := l.unspillLocked(l.nextOut)
				if err != nil {
					l.out = nil
					l.outDone = true
					return []func(){func() {
						var zero O
						cb(err, zero)
					}}
				}
				l.results[l.nextOut] = v
			}
		}
		if v, ok := l.results[l.nextOut]; ok {
			delete(l.results, l.nextOut)
			l.nextOut++
			l.out = nil
			return []func(){func() { cb(nil, v) }}
		}
	} else if len(l.ready) > 0 {
		v := l.ready[0]
		l.ready = l.ready[1:]
		l.out = nil
		return []func(){func() { cb(nil, v) }}
	}
	if l.completeLocked() {
		l.out = nil
		l.outDone = true
		end := l.inEnd
		if pullstream.IsNormalEnd(end) {
			end = pullstream.ErrDone
		}
		return []func(){func() {
			var zero O
			cb(end, zero)
		}}
	}
	return nil
}

// outputSource is the merged output of the lender.
func (l *Lender[I, O]) outputSource(abort error, cb pullstream.Callback[O]) {
	var zero O
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
		actions := l.serviceLocked()
		l.mu.Unlock()
		run(actions)
		if abortNow {
			done := make(chan struct{})
			input(abort, func(error, I) { close(done) })
			<-done
			l.mu.Lock()
			l.reading = false
			l.inEnd = abort
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
	l.out = &outAsk[O]{cb: cb}
	// A full service step, not just output delivery: emitting a result
	// shrinks the buffered window, which is what lets saturation-gated
	// input reads resume — the release edge of the backpressure loop.
	actions := l.serviceLocked()
	l.mu.Unlock()
	run(actions)
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
