// Package pando is a Go implementation of Pando, the personal volunteer
// computing tool of Lavoie et al. (MIDDLEWARE 2019): it parallelizes the
// application of a function on a stream of values across a dynamically
// varying number of failure-prone devices contributed by volunteers.
//
// The programming model is a streaming version of the functional map
// operation (paper Table 1): Pando applies f to inputs x1, x2, ... and
// outputs f(x1), f(x2), ... in input order, reading inputs lazily, with a
// single copy of each input in flight, adapting to device speed, and
// tolerating crash-stop failures transparently.
//
// Quickstart:
//
//	p := pando.New("square", func(v int) (int, error) { return v * v, nil })
//	p.AddLocalWorkers(4)
//	outs, errs := p.Process(ctx, inputs) // channels in, channels out
//
// Remote volunteers join over the WebSocket-like transport (ServeWS) or
// through the WebRTC-like bootstrap via a public signalling server
// (ServeRTC); see the examples directory and cmd/pando.
package pando

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"pando/internal/fleet"
	"pando/internal/journal"
	"pando/internal/master"
	"pando/internal/netsim"
	"pando/internal/proto"
	"pando/internal/pullstream"
	"pando/internal/sched"
	"pando/internal/transport"
	"pando/internal/verify"
	"pando/internal/worker"
)

// Re-exported configuration types. They alias internal types so the whole
// toolkit is usable through this package alone.
type (
	// Acceptor abstracts a listener accepting volunteer connections
	// (net.Listener satisfies it, as does the simulated network's).
	Acceptor = transport.Acceptor
	// ChannelConfig tunes heartbeat failure detection.
	ChannelConfig = transport.Config
	// WorkerStats is the per-device throughput accounting.
	WorkerStats = master.WorkerStats
	// Dialer opens a raw connection to a candidate address during the
	// WebRTC-like bootstrap.
	Dialer = transport.Dialer
	// Codec serializes stream values for the wire; see WithCodec.
	Codec[T any] = transport.Codec[T]
	// JSONCodec is the default payload codec.
	JSONCodec[T any] = transport.JSONCodec[T]
	// RawCodec passes []byte payloads through untouched; with the binary
	// wire format they cross the network verbatim.
	RawCodec = transport.RawCodec
	// PoolWorker is one live worker-set row of a shared pool.
	PoolWorker = fleet.WorkerInfo
	// Invitation is the deployment bootstrap document served over HTTP.
	Invitation = master.Invitation
	// WorkerRep is one worker's reputation row under WithVerification:
	// score, agreement counts, spot-check tallies and quarantine state.
	WorkerRep = verify.WorkerRep
	// Acceptance is one verified result's audit record: which workers
	// voted for the accepted digest, whether the fast path or a
	// spot-check was involved.
	Acceptance = verify.Acceptance
)

// Wire format tags, for WithWireFormat.
const (
	// WireV1 is the length-prefixed JSON format of the original
	// '/pando/1.0.0' protocol — debuggable, spoken by every peer.
	WireV1 = proto.Version
	// WireV2 is the binary tag-length-value format: raw payload bytes
	// (no base64), varint lengths, binary batches.
	WireV2 = proto.Version2
	// WireV3 is the bandwidth-aware format (the default): v2 envelopes
	// with adaptive per-frame compression and content-addressed payload
	// dedup (repeated payloads travel as SHA-256 references).
	WireV3 = proto.Version3
)

// Option configures a Pando instance.
type Option func(*options)

type options struct {
	batch          int
	adaptMin       int
	adaptMax       int
	speculation    float64
	group          int
	unordered      bool
	channel        transport.Config
	register       bool
	formats        []string
	noCompress     bool
	blobCache      int64
	rebalance      time.Duration
	inCodec        any // transport.Codec[I], stored untyped (Option is not generic)
	outCodec       any // transport.Codec[O]
	checkpoint     string
	resume         bool
	fsync          time.Duration
	highWater      int
	spillPath      string
	verifyK        int
	verifyQuorum   int
	spotRate       float64
	trustThreshold float64
}

// WithBatch sets how many values may be in flight per device (the Limiter
// bound). The paper used 2 on LAN/VPN and 4 on WAN deployments to hide
// network latency (§5.5). The window is static: every device gets the
// same bound; see WithAdaptiveLimit for per-device windows.
func WithBatch(n int) Option { return func(o *options) { o.batch = n } }

// WithAdaptiveLimit replaces the static pull-limit with a per-device
// adaptive credit window within [min, max]. From a device's result
// round-trips the scheduler estimates how many in-flight values queue
// beyond what the path needs — window × (1 − smallest recent round-trip/
// smoothed one) — and adds a credit per windowful under about 1.5 (they
// still hide transmission latency), takes one away over about 3, halves
// when the round-trip triples. A change of payload size re-bases instead
// of reading as congestion. The batch-size sensitivity of the paper's
// §5.2–5.4, tuned per device at run time (package sched has the rule).
func WithAdaptiveLimit(min, max int) Option {
	return func(o *options) {
		o.adaptMin = min
		o.adaptMax = max
	}
}

// WithSpeculation enables speculative re-dispatch of stragglers: near the
// tail of the stream, a device whose oldest outstanding value is older
// than factor × the fleet's median per-item service time has its values
// duplicated to idle devices, and the first result wins. The lender's
// at-least-once re-lending makes the duplicates safe; speculation bounds
// tail completion time when a device stalls without crashing.
func WithSpeculation(factor float64) Option {
	return func(o *options) { o.speculation = factor }
}

// WithGroup sends several inputs per network frame (message-level
// batching): the group becomes the unit of lending, re-lending, ordering,
// journaling and voting. The total values in flight per device stays
// bounded by the batch size. What grouping measurably reduces is bytes on
// the wire for small items — one envelope, sequence number and digest per
// group instead of per value (about 36 vs 88 B/item at n = 8 in the
// grouping ablation); at an equal batch size it does not raise
// throughput, since frames already coalesce into vectored writes.
func WithGroup(n int) Option { return func(o *options) { o.group = n } }

// WithUnordered emits results in completion order instead of input order,
// the relaxation the paper suggests for synchronous parallel search
// (§4.2).
func WithUnordered() Option { return func(o *options) { o.unordered = true } }

// WithChannelConfig tunes heartbeat intervals on volunteer channels.
func WithChannelConfig(cfg ChannelConfig) Option {
	return func(o *options) { o.channel = cfg }
}

// WithRebalanceInterval tunes how often a shared pool's fair-share scan
// moves workers between jobs (NewPool only). Zero keeps the default
// (fleet.DefaultRebalance, 250ms); negative disables the scan — workers
// then move only when their job completes.
func WithRebalanceInterval(d time.Duration) Option {
	return func(o *options) { o.rebalance = d }
}

// WithoutRegistry skips registering the processing function in the global
// volunteer registry (useful when creating many instances with the same
// name in tests).
func WithoutRegistry() Option { return func(o *options) { o.register = false } }

// WithWireFormat restricts which wire formats the deployment negotiates
// with volunteers, best first (WireV3, WireV2, WireV1). The default
// allows all three, preferring the bandwidth-aware format.
// WithWireFormat(WireV1) pins a deployment to the JSON wire for
// debuggability; WithWireFormat(WireV2) enforces the plain binary wire —
// volunteers that cannot speak any allowed format are refused at
// admission rather than silently falling back. Unknown format names are
// programming errors and panic at pando.New, like WithCodec mismatches —
// a typo would otherwise refuse every volunteer at runtime.
func WithWireFormat(names ...string) Option {
	return func(o *options) { o.formats = names }
}

// WithCompression toggles the bandwidth-aware data plane. It is on by
// default: deployments negotiate '/pando/2.2.0', whose adaptive policy
// compresses frames only when the payload is compressible and the link
// is bandwidth-bound, and whose dedup layer sends repeated payloads as
// digest references. WithCompression(false) pins negotiation to the
// plain formats (WireV2, WireV1) — every byte crosses the wire verbatim,
// exactly as before the v3 format existed. An explicit WithWireFormat
// list overrides this toggle either way.
func WithCompression(on bool) Option {
	return func(o *options) { o.noCompress = !on }
}

// WithBlobCache caps the content-addressed blob stores behind payload
// dedup on '/pando/2.2.0' channels: the master-side intern table
// (payload blocks kept so repeats travel as SHA-256 references and
// worker cache misses can be served) and the caches of workers attached
// through AddWorker/AddLocalWorkers. Zero keeps the defaults
// (blob.DefaultInternBytes / blob.DefaultCacheBytes); negative disables
// dedup — payloads always travel in full, compression still applies.
func WithBlobCache(maxBytes int64) Option {
	return func(o *options) { o.blobCache = maxBytes }
}

// WithCheckpoint makes the deployment's progress durable: every completed
// result is journaled (index + encoded payload) to an append-only log at
// path, with periodic compacted snapshots at path+".snap", so a master
// process that crashes mid-stream can be restarted without redoing the
// finished work. Fsyncs are batched (see WithFsyncInterval); a crash
// loses at most the last un-synced batch, whose values are simply
// recomputed on resume.
//
// A fresh deployment refuses to run over a checkpoint that already holds
// progress — resuming a journal recorded for a different input stream
// would corrupt the output — unless WithResume is also set, which is the
// explicit claim that the input stream is the same one the journal was
// recorded against. Open or validation failures are reported by Process /
// ProcessSlice, not at New.
func WithCheckpoint(path string) Option {
	return func(o *options) { o.checkpoint = path }
}

// WithResume restores the completed results found in the WithCheckpoint
// journal: their inputs are skipped at the source (no volunteer redoes
// them) and their results are replayed to the output in order, so the
// resumed run's output stream is exactly what an uninterrupted run would
// have produced. The input stream must be the same one the journal was
// recorded against. Resuming an empty or absent journal is a fresh start,
// which is what a restarted `pando -checkpoint` deployment wants.
func WithResume() Option {
	return func(o *options) { o.resume = true }
}

// WithFsyncInterval tunes the checkpoint journal's fsync batching: larger
// intervals cost less throughput but widen the crash-loss window (values
// to recompute on resume, never output corruption). Zero keeps the
// default (journal.DefaultSyncInterval, 100ms — measured when the
// journal was introduced, see CHANGES.md: 0.57% end-to-end overhead on
// the collatz profile against 37% for fsync-per-record); negative syncs
// after every record.
func WithFsyncInterval(d time.Duration) Option {
	return func(o *options) { o.fsync = d }
}

// WithMemoryBound caps the master's buffered-result window at hw results
// (groups, when WithGroup is set). Ordered output must buffer results
// that arrive ahead of the emission cursor; unbounded, a slow output
// consumer behind fast volunteers grows that buffer without limit. With
// this bound the master instead pauses input reads once hw results are
// buffered — output backpressure propagates all the way to the input
// source — so a billion-item stream holds O(hw) master state. Pair with
// WithSpill to absorb the overflow on disk instead of slowing the
// volunteers down. hw <= 0 (the default) leaves the window unbounded.
func WithMemoryBound(hw int) Option {
	return func(o *options) { o.highWater = hw }
}

// WithSpill attaches an on-disk overflow segment at path for results past
// the WithMemoryBound window: far-ahead results page out (CRC-checked,
// journal record format) and page back exactly when the output reaches
// their index, so volunteers keep running at full speed ahead of a slow
// consumer while the master's heap stays at O(window). The file is
// transient — truncated at open, removed at Close; nothing is recovered
// from it across runs (that is WithCheckpoint's job). Without
// WithMemoryBound the store is never used. Open failures are reported by
// Process / ProcessSlice, not at New.
func WithSpill(path string) Option {
	return func(o *options) { o.spillPath = path }
}

// WithVerification enables Byzantine-tolerant result verification:
// every input is dispatched to k distinct workers (devices, by
// accounting name — several sessions of one device share a vote), and a
// result reaches the output only once quorum of them returned
// byte-identical results (matching SHA-256 digests of the wire
// encoding). Workers whose results disagree with accepted votes lose
// reputation; below the quarantine line they are expelled from the
// fleet (their sessions severed, their name banned, their in-flight
// values re-lent to workers in good standing). Use WithTrustThreshold
// to let long-standing honest workers graduate to a replication-free
// fast path, and WithSpotCheck to keep even trusted workers honest.
//
// With WithGroup(n > 1) the unit of replication and voting is the group
// (the digest covers the whole group's results).
func WithVerification(k, quorum int) Option {
	return func(o *options) {
		o.verifyK = k
		o.verifyQuorum = quorum
	}
}

// WithSpotCheck makes the master recompute a deterministic pseudo-random
// sample of accepted results locally (rate in [0,1], the fraction of
// indices checked): if the recomputation disagrees with an accepted
// digest — even a quorum of colluders, or a trusted fast-path result —
// the local truth wins, and every worker that voted for the wrong digest
// is graded against it. Only meaningful with WithVerification.
func WithSpotCheck(rate float64) Option {
	return func(o *options) { o.spotRate = rate }
}

// WithTrustThreshold sets the reputation score (0,1] above which a
// worker's results are accepted without replication — the fast path that
// recovers most of the unreplicated throughput once the fleet has proven
// itself. Zero (the default) disables the fast path: every value is
// replicated k ways forever. Only meaningful with WithVerification.
func WithTrustThreshold(t float64) Option {
	return func(o *options) { o.trustThreshold = t }
}

// WithCodec replaces the JSON payload codecs. The type parameters must
// match the deployment's input and output types — pando.New panics
// otherwise, since a mismatched codec could never encode a single value.
// Pair RawCodec with the binary wire format to move []byte workloads
// (image tiles, ray-trace buffers) with zero serialization overhead.
func WithCodec[I, O any](in Codec[I], out Codec[O]) Option {
	return func(o *options) {
		o.inCodec = in
		o.outCodec = out
	}
}

// flow folds the limit options into one policy. WithAdaptiveLimit wins
// over the static batch; an unset policy keeps the static default.
func (o options) flow() sched.Policy {
	var p sched.Policy
	if o.adaptMin > 0 || o.adaptMax > 0 {
		p = sched.Adaptive(o.adaptMin, o.adaptMax)
	} else if o.batch > 0 {
		p = sched.Static(o.batch)
	}
	p.Speculation = o.speculation
	return p
}

// Pool is a shared volunteer fleet serving many concurrent jobs: the
// same devices a person contributed once are reused across all of their
// applications (the paper's DP1 taken literally). Create jobs on it with
// Map; every job leases workers from the pool, which routes each
// admitted volunteer to a job it can serve, rebalances leases across
// jobs with demand-weighted fair share, and reassigns a worker to the
// next job when its job completes — over the same connection.
type Pool struct {
	fp   *fleet.Pool
	opts options

	mu       sync.Mutex
	handlers map[string]worker.Handler // job name -> payload handler (local workers)
	jobs     []poolJob
	pipes    []*netsim.Pipe
	closed   bool
}

// poolJob is the untyped view of a Map'd deployment the Pool keeps for
// per-job stats.
type poolJob interface {
	Name() string
	Stats() []WorkerStats
	TotalItems() int
}

// NewPool creates a shared fleet. Pool-level options apply
// (WithChannelConfig, WithWireFormat, WithRebalanceInterval); job-level
// options are given to Map per job.
func NewPool(opts ...Option) *Pool {
	o := options{register: true}
	for _, opt := range opts {
		opt(&o)
	}
	checkFormats(o.formats)
	return &Pool{
		fp: fleet.NewPool(fleet.Config{
			Channel:   o.channel,
			Formats:   o.wireFormats(),
			Rebalance: o.rebalance,
		}),
		opts:     o,
		handlers: make(map[string]worker.Handler),
	}
}

// Fleet exposes the underlying fleet pool, e.g. for direct Admit calls
// on embedded transports.
func (p *Pool) Fleet() *fleet.Pool { return p.fp }

// ServeWS accepts remote volunteers over the WebSocket-like transport
// until the acceptor closes, admitting each into the shared fleet. Run
// it on a goroutine.
func (p *Pool) ServeWS(acc Acceptor) error { return p.fp.ServeWS(acc) }

// ServeRTC admits volunteers arriving through the WebRTC-like bootstrap.
// Run it on a goroutine.
func (p *Pool) ServeRTC(answerer *transport.RTCAnswerer) { p.fp.ServeRTC(answerer) }

// AddLocalWorkers attaches n in-process volunteers that serve every job
// of the pool, one per core the user wants to dedicate.
func (p *Pool) AddLocalWorkers(n int) {
	for i := 0; i < n; i++ {
		p.AddWorker(fmt.Sprintf("local-%d", i+1), netsim.Loopback, 0, -1)
	}
}

// AddWorker attaches one in-process volunteer under an exact name,
// connected through a simulated link with a fixed per-item delay and an
// optional crash after crashAfter items (negative: never). The volunteer
// advertises the wildcard function list, so the pool may lease it to any
// current or future job; handlers resolve against the pool's own table
// at (re)assignment time.
func (p *Pool) AddWorker(name string, link netsim.Link, delay time.Duration, crashAfter int) {
	v := &worker.Volunteer{
		Name:           name,
		Channel:        p.opts.channel,
		Delay:          delay,
		CrashAfter:     crashAfter,
		Functions:      []string{"*"},
		BlobCacheBytes: p.opts.blobCache,
		Resolve:        p.resolveHandler,
	}
	pipe := netsim.NewPipe(link)
	p.mu.Lock()
	p.pipes = append(p.pipes, pipe)
	p.mu.Unlock()
	go func() { _ = v.JoinWS(pipe.A) }()
	go func() { _ = p.fp.Admit(transport.NewWSock(pipe.B, p.opts.channel)) }()
}

func (p *Pool) resolveHandler(name string) (worker.Handler, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	h, ok := p.handlers[name]
	return h, ok
}

// Workers snapshots the pool's live worker set: which device is leased
// to which job, its negotiated wire format and whether it is
// reassignable.
func (p *Pool) Workers() []PoolWorker { return p.fp.Workers() }

// Stats snapshots per-device accounting for every job, keyed by job
// (function) name — the per-job blocks of the /stats JSON.
func (p *Pool) Stats() map[string][]WorkerStats {
	p.mu.Lock()
	jobs := append([]poolJob(nil), p.jobs...)
	p.mu.Unlock()
	out := make(map[string][]WorkerStats, len(jobs))
	for _, j := range jobs {
		out[j.Name()] = j.Stats()
	}
	return out
}

// PoolStats is the /stats JSON of a shared pool: the live worker set
// plus per-job accounting blocks keyed by function name.
type PoolStats struct {
	Workers []PoolWorker             `json:"workers"`
	Jobs    map[string][]WorkerStats `json:"jobs"`
}

// ServeHTTPInfo serves the pool's deployment invitation on "/" and the
// pool-wide statistics on "/stats": the live worker set (who is leased
// to which job) and one per-device accounting block per job. It returns
// immediately; the server runs on its own goroutines.
func (p *Pool) ServeHTTPInfo(ln net.Listener, inv Invitation) *http.Server {
	if inv.Version == "" {
		inv.Version = proto.Version
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(inv)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(PoolStats{
			Workers: p.Workers(),
			Jobs:    p.Stats(),
		})
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return srv
}

// Close shuts the shared fleet down: admissions are refused, parked
// volunteers dismissed, and the in-process volunteers' links cut. Jobs
// created with Map have their own lifecycles — Close each Pando (or let
// its stream complete) before closing the pool it leases from.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	pipes := p.pipes
	p.pipes = nil
	p.mu.Unlock()
	p.fp.Close()
	for _, pipe := range pipes {
		pipe.Cut()
	}
}

// register adds a Map'd job to the pool's tables.
func (p *Pool) register(j poolJob, h worker.Handler) {
	p.mu.Lock()
	p.jobs = append(p.jobs, j)
	p.handlers[j.Name()] = h
	p.mu.Unlock()
}

// unregister removes a closing job. The handler table entry survives as
// long as any other registered job shares the name (WithoutRegistry
// deployments may create many same-named instances), so a surviving
// job's reassigned workers keep resolving.
func (p *Pool) unregister(j poolJob) {
	p.mu.Lock()
	kept := p.jobs[:0]
	nameInUse := false
	for _, job := range p.jobs {
		if job != j {
			kept = append(kept, job)
			if job.Name() == j.Name() {
				nameInUse = true
			}
		}
	}
	p.jobs = kept
	if !nameInUse {
		delete(p.handlers, j.Name())
	}
	p.mu.Unlock()
}

// Pando is one deployment: a single streaming map. Created with New it
// owns a single-job pool of its own (the classic tool); created with Map
// it is one job of a shared Pool, leasing workers from the common fleet.
type Pando[I, O any] struct {
	name string
	f    func(I) (O, error)
	in   transport.Codec[I]
	out  transport.Codec[O]
	m    *master.Master[I, O]
	opts options

	pool     *Pool
	job      fleet.Job
	ownsPool bool

	journal *journal.Journal
	spill   *journal.SpillStore

	initErr error // deferred WithCheckpoint/WithSpill failure, surfaced by Process

	mu    sync.Mutex
	pipes []*netsim.Pipe
}

// wireFormats resolves the formats a deployment negotiates: an explicit
// WithWireFormat list wins; otherwise WithCompression(false) pins to the
// plain formats, and the default (nil) lets the master advertise
// everything this build supports, best first.
func (o *options) wireFormats() []string {
	if len(o.formats) > 0 {
		return o.formats
	}
	if o.noCompress {
		return []string{proto.Version2, proto.Version}
	}
	return nil
}

// checkFormats panics on unknown wire-format names, which are
// programming errors like WithCodec mismatches.
func checkFormats(formats []string) {
	for _, f := range formats {
		if _, ok := proto.LookupFormat(f); !ok {
			panic(fmt.Sprintf("pando: WithWireFormat: unknown wire format %q (supported: %v)",
				f, proto.SupportedFormats()))
		}
	}
}

// New creates a deployment that applies f, registered under name so that
// generic volunteer binaries can resolve it (the Go substitute for
// shipping browserified code). It is a single-job pool: the same
// admission, negotiation and leasing machinery as NewPool, serving
// exactly one job — so every pre-pool deployment keeps working
// unchanged.
func New[I, O any](name string, f func(I) (O, error), opts ...Option) *Pando[I, O] {
	pool := NewPool(opts...)
	p := Map(pool, name, f, opts...)
	p.ownsPool = true
	return p
}

// Map creates a job on a shared pool: a deployment applying f under the
// given function name, leasing workers from pool's common fleet. The
// returned Pando behaves exactly like one from New — Process,
// ProcessSlice, Stats, checkpointing — except that serving and worker
// attachment happen at the pool level. (Go methods cannot introduce type
// parameters, so Map is a package function rather than a Pool method.)
func Map[I, O any](pool *Pool, name string, f func(I) (O, error), opts ...Option) *Pando[I, O] {
	o := options{batch: master.DefaultBatch, register: true}
	for _, opt := range opts {
		opt(&o)
	}
	checkFormats(o.formats)
	var in transport.Codec[I] = transport.JSONCodec[I]{}
	var out transport.Codec[O] = transport.JSONCodec[O]{}
	if o.inCodec != nil {
		c, ok := o.inCodec.(transport.Codec[I])
		if !ok {
			panic(fmt.Sprintf("pando: WithCodec input codec %T does not encode %T", o.inCodec, *new(I)))
		}
		in = c
	}
	if o.outCodec != nil {
		c, ok := o.outCodec.(transport.Codec[O])
		if !ok {
			panic(fmt.Sprintf("pando: WithCodec output codec %T does not encode %T", o.outCodec, *new(O)))
		}
		out = c
	}
	p := &Pando[I, O]{
		name: name,
		f:    f,
		in:   in,
		out:  out,
		opts: o,
		pool: pool,
	}
	cfg := master.Config{
		FuncName:       name,
		Batch:          o.batch,
		Ordered:        !o.unordered,
		Group:          o.group,
		Flow:           o.flow(),
		Channel:        o.channel,
		Formats:        o.wireFormats(),
		BlobCacheBytes: o.blobCache,
	}
	if o.checkpoint != "" {
		j, err := journal.Open(o.checkpoint, journal.Options{SyncInterval: o.fsync})
		switch {
		case err != nil:
			// Not a programming error (unlike a WithCodec mismatch), so no
			// panic: the failure surfaces on the first Process.
			p.initErr = err
		case j.Recovered() > 0 && !o.resume:
			j.Close()
			p.initErr = fmt.Errorf(
				"pando: checkpoint %s already holds %d completed results; add WithResume to resume it, or remove the file to start over",
				o.checkpoint, j.Recovered())
		default:
			p.journal = j
			cfg.Journal = j
		}
	}
	cfg.SpillHighWater = o.highWater
	if o.spillPath != "" && o.highWater > 0 {
		s, err := journal.OpenSpill(o.spillPath)
		if err != nil {
			if p.initErr == nil {
				p.initErr = err
			}
		} else {
			p.spill = s
			cfg.Spill = s
		}
	}
	p.m = master.NewJob[I, O](cfg, in, out)
	if o.verifyK > 0 {
		pol := verify.Policy{
			K:              o.verifyK,
			Quorum:         o.verifyQuorum,
			SpotRate:       o.spotRate,
			TrustThreshold: o.trustThreshold,
		}
		// Expulsion runs on its own goroutine: the quarantine hook fires on
		// a result-delivery path deep inside the engine, and severing
		// sessions re-enters it.
		fp := pool.fp
		p.m.EnableVerification(pol, f).OnQuarantine(func(name string) { go fp.Quarantine(name) })
	}
	p.job = p.m.Job()
	h := CodecHandler(f, in, out)
	pool.register(p, h)
	if err := pool.fp.Register(p.job); err != nil && p.initErr == nil {
		// Mapping onto a closed pool: the job would never receive a
		// worker, so surface the failure on the first Process instead of
		// hanging silently.
		p.initErr = fmt.Errorf("pando: Map %q: %w", name, err)
	}
	if o.register {
		if _, exists := worker.Lookup(name); !exists {
			worker.Register(name, h)
		}
	}
	return p
}

// Name returns the job's function name.
func (p *Pando[I, O]) Name() string { return p.name }

// Handler adapts a typed processing function into a registry handler, the
// equivalent of the paper's Figure 2 glue code: decode the input, apply
// the function, encode the result, report errors through the callback.
// Payloads are JSON, matching the deployment default; use CodecHandler
// for deployments created with WithCodec.
func Handler[I, O any](f func(I) (O, error)) worker.Handler {
	return CodecHandler(f, transport.JSONCodec[I]{}, transport.JSONCodec[O]{})
}

// CodecHandler is Handler with explicit payload codecs; the volunteer
// must decode inputs with the same codec the master encodes them with.
func CodecHandler[I, O any](f func(I) (O, error), in Codec[I], out Codec[O]) worker.Handler {
	return func(input []byte) ([]byte, error) {
		v, err := in.Decode(input)
		if err != nil {
			return nil, fmt.Errorf("pando: decode input: %w", err)
		}
		r, err := f(v)
		if err != nil {
			return nil, err
		}
		data, err := out.Encode(r)
		if err != nil {
			return nil, fmt.Errorf("pando: encode result: %w", err)
		}
		return data, nil
	}
}

// Process applies f to every value received on in and delivers results on
// the returned channel, closed at end of stream. A failure (input error
// or context cancellation) is delivered on the error channel (capacity 1).
// Results arrive in input order unless WithUnordered was set.
func (p *Pando[I, O]) Process(ctx context.Context, in <-chan I) (<-chan O, <-chan error) {
	if p.initErr != nil {
		out := make(chan O)
		close(out)
		errc := make(chan error, 1)
		errc <- p.initErr
		close(errc)
		return out, errc
	}
	ctxErr := make(chan error, 1)
	src := pullstream.FromChan(in, ctxErr)
	bound := p.m.Bind(src)
	if ctx == nil {
		return pullstream.ToChan(bound)
	}
	// Watch the stream's end signal so the cancellation watcher can be
	// released when the stream completes before the context is ever
	// cancelled — otherwise the watcher goroutine would block on
	// ctx.Done() for the context's whole lifetime.
	done := make(chan struct{})
	var once sync.Once
	watched := pullstream.Tap(bound, func(end error, _ O) {
		if end != nil {
			once.Do(func() { close(done) })
		}
	})
	go func() {
		select {
		case <-ctx.Done():
			ctxErr <- ctx.Err()
		case <-done:
		}
	}()
	return pullstream.ToChan(watched)
}

// ProcessSlice is a convenience for finite workloads: it feeds every
// element of inputs through the deployment and collects the results.
func (p *Pando[I, O]) ProcessSlice(ctx context.Context, inputs []I) ([]O, error) {
	in := make(chan I)
	go func() {
		defer close(in)
		for _, v := range inputs {
			select {
			case in <- v:
			case <-ctxDone(ctx):
				return
			}
		}
	}()
	outc, errc := p.Process(ctx, in)
	var out []O
	for v := range outc {
		out = append(out, v)
	}
	if err := <-errc; err != nil {
		return out, err
	}
	return out, nil
}

func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// AddLocalWorkers attaches n in-process volunteers, one per core the user
// wants to dedicate — "Pando trivially enables parallel processing on
// multicore architectures on a single machine while enabling dynamically
// scaling up to other devices if necessary" (paper §2.4.3).
func (p *Pando[I, O]) AddLocalWorkers(n int) {
	p.AddSimulatedWorkers(n, "local", netsim.Loopback, 0, -1)
}

// AddSimulatedWorkers attaches n volunteers connected through a simulated
// link, each with a fixed per-item delay (modelling device speed) and an
// optional crash after crashAfter items (negative: never). It returns
// nothing; per-device accounting is visible through Stats.
func (p *Pando[I, O]) AddSimulatedWorkers(n int, namePrefix string, link netsim.Link, delay time.Duration, crashAfter int) {
	for i := 0; i < n; i++ {
		p.AddWorker(fmt.Sprintf("%s-%d", namePrefix, i+1), link, delay, crashAfter)
	}
}

// AddWorker attaches one volunteer under an exact name. Attaching several
// volunteers under the same name models one device contributing several
// cores (one browser tab per core, as in the paper's evaluation): their
// accounting aggregates into a single Stats row. The volunteer is
// dedicated to this job — it advertises only this function, so a shared
// pool never leases it elsewhere; use Pool.AddWorker for fleet-wide
// devices.
func (p *Pando[I, O]) AddWorker(name string, link netsim.Link, delay time.Duration, crashAfter int) {
	v := &worker.Volunteer{
		Name:           name,
		Handler:        CodecHandler(p.f, p.in, p.out),
		Channel:        p.opts.channel,
		Delay:          delay,
		CrashAfter:     crashAfter,
		Functions:      []string{p.name},
		BlobCacheBytes: p.opts.blobCache,
	}
	pipe := netsim.NewPipe(link)
	p.mu.Lock()
	p.pipes = append(p.pipes, pipe)
	p.mu.Unlock()
	go func() { _ = v.JoinWS(pipe.A) }()
	go func() { _ = p.pool.fp.Admit(transport.NewWSock(pipe.B, p.opts.channel)) }()
}

// ServeWS accepts remote volunteers over the WebSocket-like transport
// until the acceptor closes; they join the deployment's pool (shared
// with other jobs when created with Map). Run it on a goroutine.
func (p *Pando[I, O]) ServeWS(acc Acceptor) error { return p.pool.fp.ServeWS(acc) }

// ServeRTC admits volunteers arriving through the WebRTC-like bootstrap.
// Run it on a goroutine.
func (p *Pando[I, O]) ServeRTC(answerer *transport.RTCAnswerer) { p.pool.fp.ServeRTC(answerer) }

// Stats snapshots per-device accounting (items processed, active period).
func (p *Pando[I, O]) Stats() []WorkerStats {
	return p.m.Stats()
}

// TotalItems is the total number of results received from all devices.
func (p *Pando[I, O]) TotalItems() int {
	return p.m.TotalItems()
}

// Reputations snapshots the per-worker reputation rows of a
// WithVerification deployment (score, agreement counts, spot-check
// tallies, quarantine state); nil without verification.
func (p *Pando[I, O]) Reputations() map[string]WorkerRep {
	return p.m.Reputations()
}

// VerifyAudit returns the acceptance audit of a WithVerification
// deployment: one record per output index, naming the workers whose
// matching results carried the vote (or the fast path / spot-check that
// sealed it). Nil without verification.
func (p *Pando[I, O]) VerifyAudit() []Acceptance {
	return p.m.VerifyAudit()
}

// Checkpoint exposes the deployment's journal (nil without
// WithCheckpoint), e.g. to force a durability barrier with Sync or a
// compaction with Snapshot.
func (p *Pando[I, O]) Checkpoint() *journal.Journal { return p.journal }

// Close releases local resources; remote volunteers observe the
// disconnection through their heartbeats — except in a shared pool,
// where the job's leased workers are handed back to the fleet and move
// on to the remaining jobs. The checkpoint journal, if any, is flushed
// and closed.
func (p *Pando[I, O]) Close() {
	// Unregister first so the fleet reclaims this job's leases (or, for
	// an owned single-job pool, volunteers are dismissed) before the
	// engine shuts down.
	p.pool.fp.Unregister(p.job)
	p.pool.unregister(p)
	p.m.Close()
	if p.ownsPool {
		p.pool.Close()
	}
	p.mu.Lock()
	pipes := p.pipes
	p.pipes = nil
	p.mu.Unlock()
	for _, pipe := range pipes {
		pipe.Cut()
	}
	if p.journal != nil {
		_ = p.journal.Close()
	}
	if p.spill != nil {
		_ = p.spill.Close()
	}
}
