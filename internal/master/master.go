// Package master implements the Master process of Pando's architecture
// (paper Figure 7): it owns the StreamLender that coordinates volunteers,
// admits joining devices over WebSocket-like or WebRTC-like channels,
// bounds in-flight values per device with the scheduler's credit gate
// (the paper's Limiter is its static case), and accounts per-device
// throughput (the measurements behind the paper's Table 2). Every device
// is one pipeline, pull(sub.Source, Gate(ctrl, MasterDuplex(ch)), sub.Sink).
package master

import (
	"sync"
	"time"

	"pando/internal/blob"
	"pando/internal/core"
	"pando/internal/fleet"
	"pando/internal/journal"
	"pando/internal/lender"
	"pando/internal/proto"
	"pando/internal/pullstream"
	"pando/internal/sched"
	"pando/internal/transport"
	"pando/internal/verify"
)

// DefaultBatch is the default number of values in flight per device. The
// paper used 2 on LAN and VPN ("effectively enabling one input to be
// transferred while the other is processed") and 4 on the WAN.
const DefaultBatch = 2

// Config parameterizes a Master.
type Config struct {
	// FuncName is the processing function volunteers must apply; it is
	// the Go substitute for the browserified code bundle the JavaScript
	// implementation ships (volunteers resolve it in their registry).
	FuncName string
	// Batch bounds values in flight per device (the Limiter bound).
	Batch int
	// Ordered selects ordered output (default) or completion order.
	Ordered bool
	// Group sends several inputs per frame when > 1 (message-level
	// batching, an extension of the paper's §5.5 batching idea).
	Group int
	// Flow is the per-device flow-control policy. The zero value keeps
	// the original behavior: a static window of Batch values in flight
	// per device and no speculation. Setting Min < Max turns on the
	// adaptive credit controller; Speculation > 0 enables straggler
	// re-dispatch near the stream's tail.
	Flow sched.Policy
	// Channel tunes heartbeat detection on volunteer channels.
	Channel transport.Config
	// Formats restricts the wire formats this master will negotiate, best
	// first. Empty allows everything this build supports ('/pando/2.2.0'
	// preferred, then binary '/pando/2.1.0', JSON '/pando/1.0.0' as the
	// fallback). When non-empty, volunteers that speak none of the listed
	// formats are refused with proto.ErrNoCommonFormat — so a list
	// excluding '/pando/1.0.0' turns off the v1 fallback entirely.
	Formats []string
	// Journal, when non-nil, makes the deployment's progress durable:
	// every result the lender accepts is recorded (index + encoded
	// payload, fsynced in batches on the journal's configured interval),
	// and any completed results the journal recovered from a previous
	// run are restored — their inputs are skipped at the source and their
	// results replayed to the output in order, so a restarted master
	// resumes instead of redoing work. The caller owns the journal's
	// lifecycle (Close it after the master).
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
	// (encoded with the output codec) and page back exactly when the
	// output reaches their index, keeping the input side running at full
	// speed ahead of a slow consumer. The caller owns the store's
	// lifecycle (Close it after the master).
	Spill *journal.SpillStore
	// BlobCacheBytes caps the content-addressed intern table backing
	// payload dedup on '/pando/2.2.0' channels: payload blocks the job
	// has transmitted stay interned (LRU) so repeats travel as SHA-256
	// references and worker cache misses can be served. Zero means
	// blob.DefaultInternBytes; negative disables dedup entirely (every
	// payload travels in full, compression still applies).
	BlobCacheBytes int64
}

// spillStore adapts the optional config store to the engine's interface
// without producing a typed-nil interface value.
func (c Config) spillStore() lender.SpillStore {
	if c.Spill == nil {
		return nil
	}
	return c.Spill
}

func (c Config) batch() int {
	if c.Batch <= 0 {
		return DefaultBatch
	}
	return c.Batch
}

// flow resolves the effective policy: an unset window falls back to the
// static batch bound, preserving the original behavior.
func (c Config) flow() sched.Policy {
	p := c.Flow
	if p.Min <= 0 && p.Max <= 0 {
		p.Min, p.Max = c.batch(), c.batch()
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
	// Wire is the wire format negotiated at admission ("/pando/1.0.0",
	// "/pando/2.1.0" or "/pando/2.2.0"); empty for devices attached
	// without a handshake.
	Wire string

	// Blob dedup counters ('/pando/2.2.0' channels only, summed over the
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
	// Credits is the device's current credit window (summed over its
	// attachments); with the static policy it equals attachments × batch.
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
// untyped — listeners, admission, negotiation, the live worker set —
// lives in the fleet.Pool the job leases workers from: its own
// single-job pool when created with New (the classic one-deployment
// master), or a shared multi-job pool when created with NewJob and
// registered there.
type Master[I, O any] struct {
	cfg    Config
	engine engine[I, O]

	// pool is the master's own single-job pool (New); nil for a bare job
	// (NewJob) leasing from a shared pool.
	pool *fleet.Pool

	mu      sync.Mutex
	workers map[string]*device
	closed  bool
	jerr    error          // first journal write failure, for diagnostics
	ledger  *verify.Ledger // non-nil once EnableVerification ran

	// Bandwidth-aware data plane state: the job-wide intern table behind
	// payload dedup, per-worker dedup counters, and the registry of
	// '/pando/2.2.0' channels the rate hinter feeds the scheduler's EWMA
	// throughput into (all guarded by mu; see wrapChannel).
	intern    *blob.Intern
	blobStats map[string]*blob.FlowStats
	hintChans map[string][]transport.Channel
	hintStop  chan struct{}
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
// collecting results of type R, with the unit's codecs doing the wire,
// journal, spill and digest encoding. A plain job lends
// values (U, R = I, O); a grouped job lends lists (U, R = []I, []O under
// transport.ListCodec) — inputs are grouped before the StreamLender, so
// the unit of lending, re-lending on crash, ordering, journaling and
// voting is the group, several values travel in one frame (the "batching
// inputs for distribution" of the paper's §1/§5.5), and a crashed
// device's groups are re-lent atomically.
type lane[I, O, U, R any] struct {
	*core.DistributedMap[U, R]
	in   transport.Codec[U]
	out  transport.Codec[R]
	unit int // values per lending unit: 1, or Config.Group
	wrap func(name string, ch transport.Channel) transport.Channel
	row  func(name string) *device

	pack   pullstream.Through[I, U]                    // values to units
	unpack pullstream.Through[R, O]                    // unit results to values
	lift   func(func(I) (O, error)) func(U) (R, error) // f over a unit
}

func (e *lane[I, O, U, R]) Bind(src pullstream.Source[I]) pullstream.Source[O] {
	return e.unpack(e.DistributedMap.Bind(e.pack(src)))
}

func (e *lane[I, O, U, R]) AttachChannel(name string, ch transport.Channel) error {
	d := transport.MasterDuplex(e.wrap(name, ch), e.in, e.out)
	d.Source = countResults(d.Source, e.row(name))
	return e.Attach(name, d)
}

// Backlog rescales the unit-counted backlog to values.
func (e *lane[I, O, U, R]) Backlog() (int, int, bool) {
	outstanding, failed, complete := e.DistributedMap.Backlog()
	return outstanding * e.unit, failed * e.unit, complete
}

// Flows rescales the unit-counted windows back to values so operators
// read one consistent unit.
func (e *lane[I, O, U, R]) Flows() []sched.WorkerFlow {
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
// SHA-256 of its result encoding (for a group, of the list encoding) and
// a spot-check recomputes f over the whole unit.
func (e *lane[I, O, U, R]) EnableVerification(pol verify.Policy, f func(I) (O, error)) *verify.Ledger {
	out := e.out
	return e.DistributedMap.EnableVerification(core.VerifySpec[U, R]{
		Policy: pol,
		Digest: func(v R) (verify.Digest, error) {
			data, err := out.Encode(v)
			if err != nil {
				return verify.Digest{}, err
			}
			return verify.DigestOf(data), nil
		},
		Recompute: e.lift(f),
	})
}

// newLane builds the engine for one lending unit and wires the config's
// durability into it: journal restore, result recording and the memory
// bound all speak the unit's output codec.
func newLane[I, O, U, R any](m *Master[I, O], unit int, in transport.Codec[U], out transport.Codec[R],
	pack pullstream.Through[I, U], unpack pullstream.Through[R, O],
	lift func(func(I) (O, error)) func(U) (R, error)) *lane[I, O, U, R] {
	cfg := m.cfg
	opts := []core.Option{core.WithFlow(grouped(cfg.flow(), unit)), core.WithObserver(m.observe)}
	if !cfg.Ordered {
		opts = append(opts, core.WithUnordered())
	}
	d := core.New[U, R](opts...)
	if cfg.Journal != nil {
		d.Restore(restoreSet(cfg.Journal, out))
		d.OnResult(recorder(cfg.Journal, out, m.noteJournalErr))
	}
	if cfg.SpillHighWater > 0 {
		d.BoundMemory(cfg.SpillHighWater, cfg.spillStore(), out.Encode, out.Decode)
	}
	return &lane[I, O, U, R]{DistributedMap: d, in: in, out: out, unit: unit, wrap: m.wrapChannel, row: m.device,
		pack: pack, unpack: unpack, lift: lift}
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

// New creates a classic single-deployment master: a typed job fused with
// its own single-job fleet pool, so Admit/ServeWS/ServeRTC keep working
// exactly as before the shared-fleet split.
func New[I, O any](cfg Config, in transport.Codec[I], out transport.Codec[O]) *Master[I, O] {
	m := NewJob[I, O](cfg, in, out)
	m.pool = fleet.NewPool(fleet.Config{Channel: cfg.Channel, Formats: cfg.Formats})
	_ = m.pool.Register(m.Job())
	return m
}

// NewJob creates the typed-job half alone, for registration with a
// shared fleet.Pool (see Job). It has no listeners of its own.
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

// wrapChannel prepares one leased channel for the bandwidth-aware data
// plane before the duplex is built around it: '/pando/2.2.0' channels are
// registered with the rate hinter (the compression policy backs off on
// links the scheduler's EWMA says are not bandwidth-bound) and, unless
// dedup is disabled, wrapped with the master-side dedup half that
// rewrites repeated payloads into digest references. Other formats pass
// through untouched.
func (m *Master[I, O]) wrapChannel(name string, ch transport.Channel) transport.Channel {
	if ch.Wire() == nil || ch.Wire().Name() != proto.Version3 {
		return ch
	}
	m.mu.Lock()
	if m.hintChans == nil {
		m.hintChans = make(map[string][]transport.Channel)
	}
	m.hintChans[name] = append(m.hintChans[name], ch)
	if m.hintStop == nil && !m.closed {
		m.hintStop = make(chan struct{})
		go m.hintLoop(m.hintStop)
	}
	if m.cfg.BlobCacheBytes < 0 {
		m.mu.Unlock()
		return ch
	}
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

// hintRateInterval paces the rate hinter: fast enough that the
// compression policy tracks a device's regime changes, slow enough that
// a large fleet's Flows() snapshot stays negligible.
const hintRateInterval = 250 * time.Millisecond

// hintLoop periodically feeds the scheduler's per-worker EWMA throughput
// to the registered '/pando/2.2.0' channels. It is started on the first
// registration and stopped by Close.
func (m *Master[I, O]) hintLoop(stop chan struct{}) {
	t := time.NewTicker(hintRateInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		rates := make(map[string]float64)
		for _, f := range m.engine.Flows() {
			rates[f.Name] += f.Rate
		}
		m.mu.Lock()
		for name, chans := range m.hintChans {
			rate := rates[name]
			for _, ch := range chans {
				transport.HintRate(ch, rate)
			}
		}
		m.mu.Unlock()
	}
}

// restoreSet decodes the journal's recovered entries into the lender's
// completed set. An entry whose payload no longer decodes (e.g. the
// deployment's output codec or group size changed) is skipped — that
// index is simply recomputed, so a stale journal degrades to extra work,
// never to a failed restart.
func restoreSet[R any](jnl *journal.Journal, out transport.Codec[R]) map[int]R {
	entries := jnl.Completed()
	restore := make(map[int]R, len(entries))
	for _, e := range entries {
		if v, err := out.Decode(e.Data); err == nil {
			restore[e.Idx] = v
		}
	}
	return restore
}

// recorder journals one accepted result. Write failures are remembered
// (journalErr) but do not interrupt the stream: a deployment with a full
// disk keeps computing, it just stops gaining durability.
func recorder[R any](jnl *journal.Journal, out transport.Codec[R], noteErr func(error)) func(int, R) {
	return func(idx int, v R) {
		data, err := out.Encode(v)
		if err == nil {
			err = jnl.Record(idx, data)
		}
		if err != nil {
			noteErr(err)
		}
	}
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
		stats.Alive = true
	case "detach":
		stats.Alive = false
		// The device's channels are gone; drop them from the rate-hint
		// registry (a re-attach registers the new ones).
		delete(m.hintChans, ev.Processor)
	}
}

// Bind attaches the input stream and returns the output stream — the
// distributed map x1, x2, ... -> f(x1), f(x2), ... of the programming
// model (paper §2.3).
func (m *Master[I, O]) Bind(src pullstream.Source[I]) pullstream.Source[O] {
	return m.engine.Bind(src)
}

// Admit performs the hello/welcome handshake on a fresh volunteer
// channel and, on success, attaches the device to the computation. It
// delegates to the master's single-job pool, where the admission
// handshake and wire-format negotiation now live; a bare job created
// with NewJob has no pool and refuses direct admissions — volunteers
// reach it through the shared pool it registered with.
func (m *Master[I, O]) Admit(ch *transport.WSock) error {
	if m.pool == nil {
		_ = ch.Send(&proto.Message{Type: proto.TypeError, Err: ErrClosed.Error()})
		ch.Close()
		return ErrClosed
	}
	return m.pool.Admit(ch)
}

// Pool exposes the master's own single-job pool (nil for NewJob
// masters), e.g. for worker-set diagnostics.
func (m *Master[I, O]) Pool() *fleet.Pool { return m.pool }

// job adapts the typed master to the pool's untyped Job interface.
type job[I, O any] struct{ m *Master[I, O] }

// Job returns the fleet view of this master, for registration with a
// shared pool: pool.Register(m.Job()).
func (m *Master[I, O]) Job() fleet.Job { return job[I, O]{m} }

func (j job[I, O]) Name() string { return j.m.cfg.FuncName }

func (j job[I, O]) Batch() int { return j.m.cfg.batch() }

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
	return j.m.engine.AttachChannel(worker, ch)
}

func (j job[I, O]) RecordWire(worker, wire string) { j.m.recordWire(worker, wire) }

// recordWire notes the negotiated wire format in the device's stats row,
// creating it if the attach event has not fired yet.
func (m *Master[I, O]) recordWire(name, wire string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.deviceLocked(name).Wire = wire
}

// Attach wires an already-admitted channel into the DistributedMap
// engine: pull(sub.Source, Gate(ctrl, MasterDuplex(ch)), sub.Sink).
// Each attachment is one browser tab of the paper's deployment example.
func (m *Master[I, O]) Attach(name string, ch transport.Channel) {
	_ = m.engine.AttachChannel(name, ch)
}

// ServeWS accepts WebSocket-like volunteers from acc until the acceptor
// closes, admitting each one through the pool. It mirrors volunteers
// opening the deployment URL over a LAN or VPN (paper §5.2-5.3).
func (m *Master[I, O]) ServeWS(acc transport.Acceptor) error {
	if m.pool == nil {
		return ErrClosed
	}
	return m.pool.ServeWS(acc)
}

// ServeRTC admits WebRTC-like volunteers whose direct channels are
// delivered by the answerer (paper §5.4, the WAN deployment).
func (m *Master[I, O]) ServeRTC(answerer *transport.RTCAnswerer) {
	if m.pool == nil {
		return
	}
	m.pool.ServeRTC(answerer)
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
		agg.RTT, agg.BaseRTT = max(agg.RTT, f.RTT), max(agg.BaseRTT, f.BaseRTT)
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
			row.RTT, row.BaseRTT, row.Queued = f.RTT, f.BaseRTT, f.Queued
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
// k-replication with quorum voting on result digests (the SHA-256 of
// each lending unit's result encoding — a value, or a whole group when
// Config.Group > 1), probabilistic spot-checks recomputed with f, a
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

// Close marks the master as shutting down; its own pool (if any) refuses
// further admissions, in-flight Serve loops exit on their next accept
// error and the engine's straggler scan stops.
func (m *Master[I, O]) Close() {
	m.mu.Lock()
	m.closed = true
	if m.hintStop != nil {
		close(m.hintStop)
		m.hintStop = nil
	}
	m.mu.Unlock()
	if m.pool != nil {
		m.pool.Close()
	}
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
