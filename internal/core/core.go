// Package core implements DistributedMap, the central module of Pando's
// architecture (paper Figure 7): the composition of the StreamLender with
// a per-worker flow-control gate and a duplex channel per participating
// device,
//
//	pull(sub.Source, Gate(ctrl, duplex), sub.Sink)
//
// exposed as a single typed engine. It encapsulates the paper's
// programming model — a streaming map with ordered outputs, lazy reads,
// conservative single-copy lending, adaptive distribution and crash-stop
// fault-tolerance — independently of any deployment concern. Dispatch
// policy lives in the sched subsystem: by default every worker gets the
// paper's static pull-limit (the Limiter of §2.4.3), and WithFlow swaps
// in adaptive per-worker credit windows and speculative re-dispatch of
// straggler values. The master process (internal/master) adds admission
// handshakes, accounting and listeners on top; tests and embedded uses
// can drive the engine directly.
package core

import (
	"errors"
	"sync"
	"time"

	"pando/internal/lender"
	"pando/internal/pullstream"
	"pando/internal/sched"
	"pando/internal/verify"
)

// ErrEngineClosed reports use of a closed engine.
var ErrEngineClosed = errors.New("core: engine closed")

// DistributedMap coordinates the application of a function on a stream of
// values by a dynamically varying set of processors.
type DistributedMap[I, O any] struct {
	s *sched.Scheduler
	l *lender.Lender[I, O]

	mu       sync.Mutex
	closed   bool
	observer func(Event)
}

// Event describes a lifecycle event of an attached processor, for
// accounting and monitoring.
type Event struct {
	// Kind is "attach" or "detach".
	Kind string
	// Processor is the caller-assigned identifier.
	Processor string
	// Err is the terminal error for detach events (nil for a graceful
	// end).
	Err error
}

// Option configures a DistributedMap.
type Option func(*config)

type config struct {
	policy   sched.Policy
	ordered  bool
	observer func(Event)
}

// WithFlow sets the full per-processor flow-control policy: static or
// adaptive credit windows, and speculative re-dispatch of stragglers.
func WithFlow(p sched.Policy) Option {
	return func(c *config) { c.policy = p }
}

// WithUnordered emits results in completion order.
func WithUnordered() Option { return func(c *config) { c.ordered = false } }

// WithObserver registers a callback invoked on processor lifecycle
// events. The callback must not block.
func WithObserver(fn func(Event)) Option {
	return func(c *config) { c.observer = fn }
}

// Restore seeds the engine with the completed results of a previous run
// (recovered from a durable checkpoint): the journal is consulted before
// lending — restored indices are skipped at the input and their results
// replayed to the output in order, so no processor redoes finished work.
// Call it before Bind.
func (d *DistributedMap[I, O]) Restore(completed map[int]O) {
	d.l.Restore(completed)
}

// OnResult registers the completed-set export hook: fn is invoked for
// every newly accepted (index, result) pair — after speculation dedup, so
// an index fires at most once per run — letting the caller journal it.
// Restored indices do not fire. Call it before Bind; fn must not block.
func (d *DistributedMap[I, O]) OnResult(fn func(idx int, v O)) {
	d.l.OnResult(fn)
}

// BoundMemory caps the engine's buffered-result window at hw results.
// With a store attached (see lender.SetSpill semantics), ordered results
// past the window page out to it and come back exactly when the output
// cursor reaches them; with store == nil the bound propagates as
// backpressure that pauses input reads, so a slow output consumer slows
// the whole pipeline instead of growing the reorder buffer without limit.
// enc/dec map results to stored payloads and may be nil when store is.
// Call before Bind.
func (d *DistributedMap[I, O]) BoundMemory(hw int, store lender.SpillStore, enc func(O) ([]byte, error), dec func([]byte) (O, error)) {
	d.l.SetHighWater(hw)
	if store != nil {
		d.l.SetSpill(store, enc, dec)
	}
}

// MemStats reports buffered results on the heap and parked in the spill
// store.
func (d *DistributedMap[I, O]) MemStats() (heap, spilled int) {
	return d.l.MemStats()
}

// New creates an idle engine.
func New[I, O any](opts ...Option) *DistributedMap[I, O] {
	cfg := config{policy: sched.Static(2), ordered: true}
	for _, o := range opts {
		o(&cfg)
	}
	var lopts []lender.Option
	if !cfg.ordered {
		lopts = append(lopts, lender.Unordered())
	}
	d := &DistributedMap[I, O]{
		l:        lender.New[I, O](lopts...),
		observer: cfg.observer,
	}
	d.s = sched.New(cfg.policy, d.l.IdleAtTail)
	return d
}

// Bind attaches the input stream and returns the output stream.
func (d *DistributedMap[I, O]) Bind(src pullstream.Source[I]) pullstream.Source[O] {
	return d.l.Bind(src)
}

// VerifySpec parameterizes Byzantine-tolerant result verification.
type VerifySpec[I, O any] struct {
	// Policy sets replication degree, quorum, spot-check rate and the
	// reputation thresholds (normalized before use).
	Policy verify.Policy
	// Digest fingerprints a result for voting; two results agree iff
	// their digests are equal. Typically the SHA-256 of the result's
	// wire encoding.
	Digest func(O) (verify.Digest, error)
	// Recompute evaluates the work function locally for spot-checks; nil
	// disables spot-checking regardless of Policy.SpotRate.
	Recompute func(I) (O, error)
}

// EnableVerification turns on k-replication with quorum voting on result
// digests: every lent value is fanned out to Policy.K distinct workers
// (identified by their Attach names — sessions of one device share a
// name and one vote), a result reaches the output and the OnResult hook
// only after Policy.Quorum matching digests from distinct workers, and a
// per-worker reputation ledger tracks agreement. Workers whose score
// crosses Policy.TrustThreshold graduate to a replication-free fast
// path; workers falling below Policy.QuarantineBelow fire the ledger's
// OnQuarantine hook (typically wired to fleet.Pool.Quarantine). The
// ledger's credit weighting also shrinks low-reputation workers' credit
// windows, so suspects drain work before they are formally expelled.
// Call before Bind and before any Attach; the returned ledger exposes
// reputations and the acceptance audit.
func (d *DistributedMap[I, O]) EnableVerification(spec VerifySpec[I, O]) *verify.Ledger {
	pol := spec.Policy.Normalize()
	ledger := verify.NewLedger(pol)
	cfg := &lender.VerifyConfig[I, O]{
		K:       pol.K,
		Quorum:  pol.Quorum,
		Digest:  spec.Digest,
		Trusted: ledger.Trusted,
		OnVerdict: func(worker string, idx int, agreed bool) {
			ledger.Record(worker, agreed)
		},
		OnAccept: ledger.NoteAcceptance,
	}
	if spec.Recompute != nil && pol.SpotRate > 0 {
		cfg.Spot = verify.Sampler(pol.SpotRate)
		cfg.Recompute = spec.Recompute
	}
	d.l.SetVerify(cfg)
	d.s.SetCreditWeight(ledger.Credit)
	return ledger
}

// subHandle adapts a lending sub-stream to the scheduler's view.
type subHandle[I, O any] struct {
	l   *lender.Lender[I, O]
	sub *lender.SubStream[I]
}

func (h subHandle[I, O]) Outstanding() (int, time.Duration) { return h.l.SubInfo(h.sub) }
func (h subHandle[I, O]) Speculate(max int) int             { return h.l.Speculate(h.sub, max) }

// Attach wires one processor, reachable through the given duplex
// endpoint, into the computation: values lent to the processor flow into
// duplex.Sink and its results flow out of duplex.Source, gated by the
// processor's credit controller. It returns ErrEngineClosed after Close.
func (d *DistributedMap[I, O]) Attach(name string, duplex pullstream.Duplex[I, O]) error {
	if err := d.admit(name); err != nil {
		return err
	}
	sub, sd := d.l.LendStreamNamed(name)
	ctrl := d.s.Attach(name, subHandle[I, O]{l: d.l, sub: sub})
	d.watch(name, sd, sched.Gate(ctrl, duplex)(sd.Source), ctrl)
	return nil
}

// admit records a new processor, refusing it on a closed engine.
func (d *DistributedMap[I, O]) admit(name string) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrEngineClosed
	}
	observer := d.observer
	d.mu.Unlock()
	if observer != nil {
		observer(Event{Kind: "attach", Processor: name})
	}
	return nil
}

// watch wires the processor's result stream into its sub-stream sink,
// folding lifecycle events into the observer and releasing the
// processor's controller when the stream ends.
func (d *DistributedMap[I, O]) watch(name string, sd pullstream.Duplex[O, I], results pullstream.Source[O], ctrl *sched.Controller) {
	observer := d.observer
	sd.Sink(pullstream.Tap(results, func(end error, _ O) {
		if end == nil {
			return
		}
		d.s.Detach(ctrl)
		if observer != nil {
			if pullstream.IsNormalEnd(end) {
				end = nil
			}
			observer(Event{Kind: "detach", Processor: name, Err: end})
		}
	}))
}

// Stats exposes the coordination counters (values lent, failed queue
// length, sub-streams created and ended).
func (d *DistributedMap[I, O]) Stats() (lentNow, failedQueue, subStreams, ended int) {
	return d.l.Stats()
}

// Backlog reports the engine's appetite for processors (values lent,
// failed values awaiting re-lending, and whether the stream is
// complete); a shared fleet weighs jobs by it when leasing workers.
func (d *DistributedMap[I, O]) Backlog() (outstanding, failed int, complete bool) {
	return d.l.Backlog()
}

// Flows snapshots every scheduler-managed processor's flow-control state
// (credit window, in-flight count, smoothed throughput).
func (d *DistributedMap[I, O]) Flows() []sched.WorkerFlow {
	return d.s.Flows()
}

// Close marks the engine closed; subsequent Attach calls fail. In-flight
// processors finish their streams normally (their controllers close when
// their streams end); only the straggler scan stops immediately.
func (d *DistributedMap[I, O]) Close() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	d.s.Stop()
}
