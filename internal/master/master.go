// Package master implements the typed job of Pando's Master process
// (paper Figure 7): it owns the StreamLender that coordinates volunteers,
// bounds in-flight values per device with the scheduler's credit gate
// (the paper's Limiter is its static case), and accounts per-device
// throughput (the measurements behind the paper's Table 2). Every device
// is one pipeline, pull(sub.Source, Gate(ctrl, MasterDuplex(ch)), sub.Sink).
// Admission over WebSocket-like or WebRTC-like channels lives in the
// fleet.Pool a job registers with.
package master

import (
	"fmt"
	"sync"
	"time"

	"pando/internal/blob"
	"pando/internal/core"
	"pando/internal/fleet"
	"pando/internal/journal"
	"pando/internal/proto"
	"pando/internal/pullstream"
	"pando/internal/sched"
	"pando/internal/transport"
	"pando/internal/verify"
)

// Config parameterizes a Master.
type Config struct {
	// FuncName is the processing function volunteers must apply; it is
	// the Go substitute for the browserified code bundle the JavaScript
	// implementation ships (volunteers resolve it in their registry).
	FuncName string
	// Ordered selects ordered output (default) or completion order.
	Ordered bool
	// Group sends several inputs per frame when > 1 (message-level
	// batching, an extension of the paper's §5.5 batching idea).
	Group int
	// Flow is the per-device flow-control policy. The zero value keeps
	// the original behavior: a static window of sched.DefaultBatch values
	// in flight per device and no speculation. Setting Min < Max turns on
	// the adaptive credit controller; Speculation > 0 enables straggler
	// re-dispatch near the stream's tail.
	Flow sched.Policy
	// Journal, when non-nil, makes the deployment's progress durable:
	// every result the lender accepts is recorded before it is emitted
	// (index + the bytes the volunteer sent, a group's in the list
	// codec's framing; fsynced in batches on the journal's configured
	// interval), and any completed results the journal recovered from a
	// previous run are restored — their inputs are skipped at the source
	// and their results replayed to the output in order, so a restarted
	// master resumes instead of redoing work. The caller owns the
	// journal's lifecycle (Close it after the master).
	Journal *journal.Journal
	// SpillHighWater, when > 0, bounds the master's buffered-result
	// window (the lender's reorder buffer in ordered mode, the ready
	// queue otherwise) at that many results. Without a Spill store the
	// bound propagates as backpressure — input reads pause until the
	// output consumer catches up — so an arbitrarily long stream holds
	// O(window) master state. Counted in lending units: values, or groups
	// when Group > 1.
	SpillHighWater int
	// Spill, when non-nil with SpillHighWater > 0, absorbs the ordered
	// overflow instead: results past the window page out to the store
	// (the bytes the volunteer sent, as the journal holds them) and page
	// back exactly when the output reaches their index, keeping the input
	// side running at full speed ahead of a slow consumer. The caller
	// owns the store's lifecycle (Close it after the master).
	Spill *journal.SpillStore
	// BlobCacheBytes caps the content-addressed intern table backing
	// payload dedup on leased channels: payload blocks the job
	// has sent more than once stay interned (LRU) so repeats travel as
	// SHA-256 references and worker cache misses can be served. Zero means
	// blob.DefaultInternBytes; negative disables dedup entirely (every
	// payload travels in full, compression still applies).
	BlobCacheBytes int64
}

// flow resolves the effective policy: an unset window falls back to the
// static default, preserving the original behavior.
func (c Config) flow() sched.Policy {
	p := c.Flow
	if p.Min <= 0 && p.Max <= 0 {
		p.Min, p.Max = sched.DefaultBatch, sched.DefaultBatch
	}
	if p.Min <= 0 {
		p.Min = 1
	}
	if p.Max < p.Min {
		p.Max = p.Min
	}
	return p
}

// grouped rescales a policy counted in values to one counted in groups
// of n values, keeping at least one group in flight.
func grouped(p sched.Policy, n int) sched.Policy {
	p.Min = p.Min / n
	if p.Min < 1 {
		p.Min = 1
	}
	p.Max = p.Max / n
	if p.Max < p.Min {
		p.Max = p.Min
	}
	return p
}

// WorkerStats is the per-device accounting of the evaluation (§5.1): the
// number of items processed and the active period, from which throughput
// is derived.
type WorkerStats struct {
	Name      string
	Items     int
	FirstSeen time.Time
	LastSeen  time.Time
	Alive     bool
	// Blob dedup counters (leased channels only, summed over the
	// device's attachments): inputs that travelled as digest-only
	// references (BlobHits), reference fetches served because the
	// device's cache missed (BlobMisses), and reference-tracker evictions
	// that forced later repeats back to full transmission (BlobEvicts).
	BlobHits   int64
	BlobMisses int64
	BlobEvicts int64

	// Verification accounting (EnableVerification only): the device's
	// reputation score, how many accepted votes it agreed/disagreed
	// with, spot-check counts, and whether it was quarantined.
	Reputation  float64
	Agreed      int
	Disagreed   int
	SpotChecks  int
	SpotFails   int
	Quarantined bool

	// InFlight is how many values the device currently holds (summed
	// over its attachments — one per contributed core).
	InFlight int
	// Credits is the device's credit window in values, summed over its
	// attachments: batch each if static, else bytes ÷ the EWMA value size.
	Credits int
	// EWMARate is the scheduler's smoothed throughput estimate in items
	// per second (summed over the device's attachments).
	EWMARate float64
	// Speculated counts values duplicated away from this device by
	// straggler re-dispatch.
	Speculated int
	// RTT, BaseRTT and Queued are what package sched's window rule decides
	// on: the smoothed result round-trip, its windowed minimum (the largest
	// over the attachments) and the values queueing beyond need (summed).
	RTT     time.Duration `json:"rtt_ns"`
	BaseRTT time.Duration `json:"base_rtt_ns"`
	Queued  float64       `json:"queued"`
	// Service is how long the device's processing function took on the
	// first value of its session, as the device stamped it (the largest
	// over the attachments).
	Service time.Duration `json:"service_ns"`

	// window points at the device's live per-second counts (the §5.1
	// windowed throughput); nil on a row not taken from a master.
	window *itemWindow
}

// Throughput returns items per second over the device's active period.
func (w WorkerStats) Throughput() float64 {
	d := w.LastSeen.Sub(w.FirstSeen)
	if d <= 0 || w.Items == 0 {
		return 0
	}
	return float64(w.Items) / d.Seconds()
}

// Master coordinates one typed job: a single streaming map, for the
// lifetime of the corresponding tasks (design principle DP1). Everything
// untyped — listeners, admission, the live worker set — lives in the
// fleet.Pool the job is registered with and leases workers from.
type Master[I, O any] struct {
	cfg    Config
	engine engine[I, O]

	mu      sync.Mutex
	workers map[string]*device
	closed  bool
	jerr    error          // first journal write failure, for diagnostics
	ledger  *verify.Ledger // non-nil once EnableVerification ran

	// Payload dedup state: the job-wide intern table and per-worker dedup
	// counters (guarded by mu; see wrapChannel).
	intern    *blob.Intern
	blobStats map[string]*blob.FlowStats
}

// engine erases the lending-unit type parameters of lane, its one
// implementation.
type engine[I, O any] interface {
	Bind(pullstream.Source[I]) pullstream.Source[O]
	AttachChannel(name string, ch transport.Channel) error
	EnableVerification(pol verify.Policy, f func(I) (O, error)) *verify.Ledger
	Stats() (lentNow, failedQueue, subStreams, ended int)
	Backlog() (outstanding, failed int, complete bool)
	Flows() []sched.WorkerFlow
	Close()
}

// lane is the engine: a DistributedMap lending units of type U and
// collecting each unit's result as the frame it arrived in. A plain job
// lends values (U = I); a grouped job lends lists (U = []I under
// transport.ListCodec) — inputs are grouped before the StreamLender, so
// the unit of lending, re-lending on crash, ordering, journaling and
// voting is the group, several values travel in one frame (the "batching
// inputs for distribution" of the paper's §1/§5.5), and a crashed
// device's groups are re-lent atomically. Below the output results stay
// bytes, as the paper's master treats values as opaque strings: the
// journal, the spill store and the votes take them as received, and the
// output codec runs once per result, where it is emitted (unpack).
type lane[I, O, U any] struct {
	*core.DistributedMap[U, *proto.Message]
	in   transport.Codec[U]
	unit int // values per lending unit: 1, or Config.Group
	row  func(name string) *device

	pack      pullstream.Through[I, U]                                 // values to units
	unpack    pullstream.Through[*proto.Message, O]                    // unit results to values
	recompute func(func(I) (O, error)) func(U) (*proto.Message, error) // f over a unit, encoded
}

func (e *lane[I, O, U]) Bind(src pullstream.Source[I]) pullstream.Source[O] {
	return e.unpack(e.DistributedMap.Bind(e.pack(src)))
}

func (e *lane[I, O, U]) AttachChannel(name string, ch transport.Channel) error {
	return e.AttachMetered(name, func(ctrl *sched.Controller) pullstream.Duplex[U, *proto.Message] {
		d := transport.MasterDuplex(ch, e.in, ctrl)
		d.Source = countResults(d.Source, e.unit > 1, e.row(name))
		return d
	})
}

// Backlog rescales the unit-counted backlog to values.
func (e *lane[I, O, U]) Backlog() (int, int, bool) {
	outstanding, failed, complete := e.DistributedMap.Backlog()
	return outstanding * e.unit, failed * e.unit, complete
}

// Flows rescales the unit-counted windows back to values so operators
// read one consistent unit.
func (e *lane[I, O, U]) Flows() []sched.WorkerFlow {
	flows := e.DistributedMap.Flows()
	for i := range flows {
		flows[i].InFlight *= e.unit
		flows[i].Window *= e.unit
		flows[i].Rate *= float64(e.unit)
		flows[i].Speculated *= e.unit
		flows[i].Queued *= float64(e.unit)
	}
	return flows
}

// EnableVerification votes on lending units: a unit's digest is the
// SHA-256 of the bytes its worker sent (for a group, of the list
// encoding), so honest replicas must encode byte-identically, and a
// spot-check recomputes f over the whole unit and encodes it.
func (e *lane[I, O, U]) EnableVerification(pol verify.Policy, f func(I) (O, error)) *verify.Ledger {
	return e.DistributedMap.EnableVerification(core.VerifySpec[U, *proto.Message]{
		Policy:    pol,
		Digest:    func(m *proto.Message) verify.Digest { return verify.DigestOf(m.Data) },
		Recompute: e.recompute(f),
	})
}

// newLane builds the engine for one lending unit, whose results out
// encodes, and wires the config's durability into it: journal restore,
// result recording and the memory bound all take the bytes as received.
// flatten maps decoded unit results to values.
func newLane[I, O, U, R any](m *Master[I, O], unit int, in transport.Codec[U], out transport.Codec[R],
	pack pullstream.Through[I, U], flatten pullstream.Through[R, O],
	lift func(func(I) (O, error)) func(U) (R, error)) *lane[I, O, U] {
	cfg := m.cfg
	opts := []core.Option{core.WithFlow(grouped(cfg.flow(), unit)), core.WithObserver(m.observe)}
	if !cfg.Ordered {
		opts = append(opts, core.WithUnordered())
	}
	d := core.New[U, *proto.Message](opts...)
	l := d.Lender()
	l.Stamp(func(idx int, r *proto.Message) { r.Seq = uint64(idx) })
	l.OnDiscard(proto.Release)
	if cfg.Journal != nil {
		l.Restore(restoreSet(cfg.Journal, out))
		l.OnResult(func(idx int, r *proto.Message) {
			// A write failure is remembered (journalErr) but does not
			// interrupt the stream: a deployment with a full disk keeps
			// computing, it just stops gaining durability.
			if err := cfg.Journal.Record(idx, r.Data); err != nil {
				m.noteJournalErr(err)
			}
		})
	}
	l.SetHighWater(cfg.SpillHighWater)
	if cfg.Spill != nil && cfg.SpillHighWater > 0 {
		l.SetSpill(cfg.Spill, func(r *proto.Message) ([]byte, error) { return r.Data, nil },
			func(b []byte) (*proto.Message, error) { return &proto.Message{Peer: "the spill store", Data: b}, nil })
	}
	return &lane[I, O, U]{DistributedMap: d, in: in, unit: unit, row: m.device, pack: pack,
		unpack: func(src pullstream.Source[*proto.Message]) pullstream.Source[O] { return flatten(decoded(out)(src)) },
		recompute: func(f func(I) (O, error)) func(U) (*proto.Message, error) {
			lifted := lift(f)
			return func(u U) (*proto.Message, error) {
				r, err := lifted(u)
				if err != nil {
					return nil, err
				}
				data, err := out.Encode(r)
				return &proto.Message{Data: data}, err
			}
		}}
}

// decoded is the emit stage, the one Decode on the result path: each
// result frame's bytes become a value of out's type here, and the frame
// goes back to the arena — detached first when the value may alias it.
// A result that does not decode ends the stream with an error naming its
// index (a group's, with Config.Group > 1) and sender, and aborts the
// engine's output: it is never dropped, and never re-lent to fail the
// same way on every device.
func decoded[R any](out transport.Codec[R]) pullstream.Through[*proto.Message, R] {
	aliases := transport.Aliases(out)
	return func(src pullstream.Source[*proto.Message]) pullstream.Source[R] {
		// Asks are strictly serial, so the pending one is kept in place
		// and a pull through the stage allocates nothing.
		var asked pullstream.Callback[R]
		answer := func(end error, m *proto.Message) {
			var v R
			if end == nil {
				if v, end = out.Decode(m.Data); end != nil {
					end = fmt.Errorf("master: result %d from %s does not decode: %w", m.Seq, m.Peer, end)
					src(end, func(error, *proto.Message) {})
				} else if aliases {
					m.Detach()
				}
				proto.Release(m)
			}
			asked(end, v)
		}
		return func(abort error, cb pullstream.Callback[R]) {
			asked = cb
			src(abort, answer)
		}
	}
}

// liftGroup maps f over a group, failing the group on its first error.
func liftGroup[I, O any](f func(I) (O, error)) func([]I) ([]O, error) {
	return func(vs []I) ([]O, error) {
		rs := make([]O, len(vs))
		for i, v := range vs {
			r, err := f(v)
			if err != nil {
				return nil, err
			}
			rs[i] = r
		}
		return rs, nil
	}
}

// NewJob creates a typed job, for registration with a fleet.Pool (see
// Job). It has no listeners of its own.
func NewJob[I, O any](cfg Config, in transport.Codec[I], out transport.Codec[O]) *Master[I, O] {
	m := &Master[I, O]{cfg: cfg, workers: make(map[string]*device)}
	if g := cfg.Group; g > 1 {
		m.engine = newLane(m, g, transport.ListCodec[I]{Elem: in}, transport.ListCodec[O]{Elem: out},
			pullstream.Group[I](g), pullstream.Flatten[O](), liftGroup[I, O])
	} else {
		m.engine = newLane(m, 1, in, out,
			func(src pullstream.Source[I]) pullstream.Source[I] { return src },
			func(src pullstream.Source[O]) pullstream.Source[O] { return src },
			func(f func(I) (O, error)) func(I) (O, error) { return f })
	}
	return m
}

// wrapChannel prepares one leased channel before the duplex is built
// around it: unless dedup is disabled, the channel is wrapped with the
// master-side dedup half that rewrites repeated payloads into digest
// references. Every channel reaches the job through a pool lease, so its
// far end passed the handshake and runs the worker-side dedup half that
// resolves those references.
func (m *Master[I, O]) wrapChannel(name string, ch transport.Channel) transport.Channel {
	if m.cfg.BlobCacheBytes < 0 {
		return ch
	}
	m.mu.Lock()
	if m.intern == nil {
		m.intern = blob.NewIntern(m.cfg.BlobCacheBytes)
	}
	if m.blobStats == nil {
		m.blobStats = make(map[string]*blob.FlowStats)
	}
	stats, ok := m.blobStats[name]
	if !ok {
		stats = &blob.FlowStats{}
		m.blobStats[name] = stats
	}
	intern := m.intern
	m.mu.Unlock()
	return transport.DedupMasterChannel(ch, intern, stats)
}

// restoreSet holds the journal's recovered entries as the lender's
// completed set, each as its bytes in an envelope that owns nothing. An
// entry whose payload no longer decodes (e.g. the deployment's output
// codec or group size changed) is skipped — that index is simply
// recomputed, so a stale journal degrades to extra work, never to a
// failed restart.
func restoreSet[R any](jnl *journal.Journal, out transport.Codec[R]) map[int]*proto.Message {
	entries := jnl.Completed()
	restore := make(map[int]*proto.Message, len(entries))
	for _, e := range entries {
		if _, err := out.Decode(e.Data); err == nil {
			restore[e.Idx] = &proto.Message{Seq: uint64(e.Idx), Peer: "the journal", Data: e.Data}
		}
	}
	return restore
}

func (m *Master[I, O]) noteJournalErr(err error) {
	m.mu.Lock()
	if m.jerr == nil {
		m.jerr = err
	}
	m.mu.Unlock()
}

// journalErr reports the first journal write failure, if any — results
// keep flowing when journaling breaks, so operators must ask.
func (m *Master[I, O]) journalErr() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jerr
}

// device returns the named device's accounting row, creating it at the
// device's first sign of life.
func (m *Master[I, O]) device(name string) *device {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.deviceLocked(name)
}

func (m *Master[I, O]) deviceLocked(name string) *device {
	d, ok := m.workers[name]
	if !ok {
		d = &device{WorkerStats: WorkerStats{Name: name, FirstSeen: time.Now()}}
		m.workers[name] = d
	}
	return d
}

// observe folds the engine's processor lifecycle events into the
// per-device accounting of the evaluation (§5.1); results are counted at
// the attachment (countResults), without this lock.
func (m *Master[I, O]) observe(ev core.Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	stats := m.deviceLocked(ev.Processor)
	switch ev.Kind {
	case "attach":
		stats.live++
	case "detach":
		stats.live--
	}
	// A device contributing several cores stays alive while any of its
	// sessions does.
	stats.Alive = stats.live > 0
}

// Bind attaches the input stream and returns the output stream — the
// distributed map x1, x2, ... -> f(x1), f(x2), ... of the programming
// model (paper §2.3).
func (m *Master[I, O]) Bind(src pullstream.Source[I]) pullstream.Source[O] {
	return m.engine.Bind(src)
}

// job adapts the typed master to the pool's untyped Job interface.
type job[I, O any] struct{ m *Master[I, O] }

// Job returns the fleet view of this master, for registration with a
// pool: pool.Register(m.Job()).
func (m *Master[I, O]) Job() fleet.Job { return job[I, O]{m} }

func (j job[I, O]) Name() string { return j.m.cfg.FuncName }

// Demand weighs the job for the pool's fair-share leasing: zero once the
// stream is complete (or the master closed), otherwise one for an open
// job plus its current backlog — values lent out and failed values
// awaiting re-lending.
func (j job[I, O]) Demand() int {
	if j.m.isClosed() {
		return 0
	}
	outstanding, failed, complete := j.m.engine.Backlog()
	if complete {
		return 0
	}
	return 1 + outstanding + failed
}

func (j job[I, O]) Lease(worker string, ch transport.Channel) error {
	if j.m.isClosed() {
		return ErrClosed
	}
	return j.m.engine.AttachChannel(worker, j.m.wrapChannel(worker, ch))
}

// Stats snapshots per-worker accounting, folding in the scheduler's
// per-device flow-control state (credit window, in-flight count, EWMA
// throughput). A device contributing several cores appears as one row
// with its attachments' figures summed.
func (m *Master[I, O]) Stats() []WorkerStats {
	flows := m.engine.Flows()
	m.mu.Lock()
	defer m.mu.Unlock()
	var reps map[string]verify.WorkerRep
	if m.ledger != nil {
		reps = m.ledger.Snapshot()
	}
	byName := make(map[string]sched.WorkerFlow, len(flows))
	for _, f := range flows {
		agg := byName[f.Name]
		agg.Name = f.Name
		agg.InFlight += f.InFlight
		agg.Window += f.Window
		agg.Rate += f.Rate
		agg.Speculated += f.Speculated
		agg.Queued += f.Queued
		agg.RTT, agg.BaseRTT, agg.Service = max(agg.RTT, f.RTT), max(agg.BaseRTT, f.BaseRTT), max(agg.Service, f.Service)
		byName[f.Name] = agg
	}
	out := make([]WorkerStats, 0, len(m.workers))
	for _, w := range m.workers {
		row := w.snapshot()
		if f, ok := byName[w.Name]; ok {
			row.InFlight = f.InFlight
			row.Credits = f.Window
			row.EWMARate = f.Rate
			row.Speculated = f.Speculated
			row.RTT, row.BaseRTT, row.Queued, row.Service = f.RTT, f.BaseRTT, f.Queued, f.Service
		}
		if bs, ok := m.blobStats[w.Name]; ok {
			row.BlobHits = bs.Hits.Load()
			row.BlobMisses = bs.Misses.Load()
			row.BlobEvicts = bs.Evicts.Load()
		}
		if r, ok := reps[w.Name]; ok {
			row.Reputation = r.Score
			row.Agreed = r.Agreed
			row.Disagreed = r.Disagreed
			row.SpotChecks = r.SpotChecks
			row.SpotFails = r.SpotFails
			row.Quarantined = r.Quarantined
		}
		out = append(out, row)
	}
	return out
}

// EnableVerification turns on Byzantine-tolerant result verification:
// k-replication with quorum voting on result digests (the SHA-256 of the
// bytes each lending unit's result arrived as — a value, or a whole group
// when Config.Group > 1; honest replicas must encode byte-identically), probabilistic spot-checks recomputed with f, a
// reputation ledger whose credit weighting shrinks suspects' windows, and
// a replication-free fast path for workers above the trust threshold.
// Call before Bind and before any worker attaches; wire the returned
// ledger's OnQuarantine to the fleet's Quarantine to expel cheaters.
func (m *Master[I, O]) EnableVerification(pol verify.Policy, f func(I) (O, error)) *verify.Ledger {
	ledger := m.engine.EnableVerification(pol, f)
	m.mu.Lock()
	m.ledger = ledger
	m.mu.Unlock()
	return ledger
}

// VerifyAudit returns the acceptance audit trail (every index that
// reached the output, with its vote), or nil without verification.
func (m *Master[I, O]) VerifyAudit() []verify.Acceptance {
	m.mu.Lock()
	l := m.ledger
	m.mu.Unlock()
	if l == nil {
		return nil
	}
	return l.Acceptances()
}

// Reputations snapshots the per-worker reputation rows, or nil without
// verification.
func (m *Master[I, O]) Reputations() map[string]verify.WorkerRep {
	m.mu.Lock()
	l := m.ledger
	m.mu.Unlock()
	if l == nil {
		return nil
	}
	return l.Snapshot()
}

// TotalItems returns the number of results received from all devices.
func (m *Master[I, O]) TotalItems() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, w := range m.workers {
		n += int(w.items.Load())
	}
	return n
}

// LenderStats exposes the coordination counters for diagnostics.
func (m *Master[I, O]) LenderStats() (lentNow, failedQueue, subStreams, ended int) {
	return m.engine.Stats()
}

// Close marks the master as shutting down: its pool leases it no further
// workers, the engine's straggler scan stops, and a bound stream that has
// not completed ends with an error (core's Close).
func (m *Master[I, O]) Close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.engine.Close()
}

func (m *Master[I, O]) isClosed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// ErrClosed reports operations on a closed master (it is the pool-layer
// sentinel, so refusals compare equal wherever they surface).
var ErrClosed = fleet.ErrClosed
