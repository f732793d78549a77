// Package fleet implements the shared volunteer pool of a multi-job
// deployment: the untyped layer of the master that owns listeners, the
// admission handshake, heartbeat configuration and the live worker set —
// everything that does not depend on a job's value types.
//
// Personal volunteer computing (the paper's DP1) assumes the same
// devices are reused across a person's many applications; a Pool makes
// that literal: it outlives any single stream. Typed jobs (the
// DistributedMap engines wrapped by master.Master) register under their
// function name and lease workers from the pool; the pool routes each
// admitted volunteer to a job it can serve (the hello advertises the
// volunteer's registered-function list), rebalances leases across jobs
// with demand-weighted fair share, and reassigns a worker to the next
// job when its job completes — over the same connection, via the
// reassign frame, instead of dismissing the device.
//
// Every volunteer reaches its job through a lease: the pool routes its
// channel's frames to the current lease, which lets the pool intercept a
// job's goodbye, drain the connection behind a reassign barrier, and hand
// the same device to the next job. The hello's Functions list names the
// jobs the volunteer serves (the single entry "*" means "any function").
// A volunteer that advertises no list is routed once, to a compatible
// job, and never reassigned: its first lease pins its list to that job's
// name, so it leaves when that job dismisses it.
package fleet

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pando/internal/proto"
	"pando/internal/transport"
)

// Errors surfaced by the pool.
var (
	// ErrClosed reports admissions or registrations on a closed pool (and,
	// through the master's re-export, operations on a closed master).
	ErrClosed = errors.New("fleet: pool closed")
	// ErrNoJob reports a volunteer refused because no registered job
	// matches the functions it can serve.
	ErrNoJob = errors.New("fleet: no registered job serves the volunteer's functions")
	// ErrQuarantined reports a volunteer refused because its accounting
	// name was quarantined (verification caught it returning wrong
	// results); rejoining under the same name is pointless.
	ErrQuarantined = errors.New("fleet: worker quarantined")
)

// Job is a typed computation leasing workers from the pool — one
// master.Master (one DistributedMap engine) per Job. All methods must be
// safe for concurrent use.
type Job interface {
	// Name is the processing function volunteers resolve for this job.
	Name() string
	// Demand reports the job's appetite for workers: 0 when the job is
	// complete or closed (it must not receive workers), otherwise a
	// positive weight — 1 for an idle open job, growing with the job's
	// in-flight and failed-queue backlog — that demand-weighted fair
	// share leases proportionally to.
	Demand() int
	// Lease attaches a worker channel to the job's engine under the given
	// accounting name. The channel may be a pool lease: the job speaks to
	// it exactly as to a dedicated volunteer channel.
	Lease(worker string, ch transport.Channel) error
}

// Config parameterizes a Pool.
type Config struct {
	// Channel tunes heartbeat detection on volunteer channels.
	Channel transport.Config
	// Rebalance is the period of the fair-share rebalancing scan; zero
	// selects DefaultRebalance, negative disables the scan (workers still
	// move on job completion).
	Rebalance time.Duration
}

// DefaultRebalance is the default fair-share scan period.
const DefaultRebalance = 250 * time.Millisecond

// WorkerInfo is one live worker-set row, surfaced through /stats.
type WorkerInfo struct {
	// Name is the accounting name (several sessions of a multi-core
	// device share it).
	Name string
	// Job is the function name of the job currently holding the lease;
	// empty while parked or between jobs.
	Job string
	// State is "parked", "leased", "reclaiming" or "dismissing".
	State string
}

// Pool is one shared volunteer fleet serving many concurrent jobs.
type Pool struct {
	cfg Config

	mu       sync.Mutex
	cond     *sync.Cond // signalled when jobs register or the pool closes
	jobs     []Job      // registration order
	sessions map[int]*session
	banned   map[string]struct{} // quarantined accounting names
	nextID   int
	nextName int
	rrNext   int // rotation cursor for starved-fleet round-robin
	closed   bool

	done     chan struct{}
	scanOnce sync.Once
}

// NewPool creates an idle pool.
func NewPool(cfg Config) *Pool {
	p := &Pool{
		cfg:      cfg,
		sessions: make(map[int]*session),
		done:     make(chan struct{}),
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Register adds a job to the pool; parked volunteers are routed to it and
// the fair-share scan starts weighing it. The rebalancer starts lazily
// with the second job — a single-job pool (every pando.New master) has
// nothing to move, so it never pays for the ticker.
func (p *Pool) Register(j Job) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	p.jobs = append(p.jobs, j)
	start := p.cfg.Rebalance >= 0 && len(p.jobs) >= 2
	p.mu.Unlock()
	p.cond.Broadcast()
	if start {
		p.scanOnce.Do(func() { go p.rebalanceLoop() })
	}
	return nil
}

// Unregister removes a job; its leased workers are reclaimed and routed
// to the remaining jobs (or dismissed when none can serve them). Safe to
// call for a job that was never registered.
func (p *Pool) Unregister(j Job) {
	p.mu.Lock()
	kept := p.jobs[:0]
	for _, job := range p.jobs {
		if job != j {
			kept = append(kept, job)
		}
	}
	p.jobs = kept
	var held []*session
	for _, s := range p.sessions {
		if s.currentJob() == j {
			held = append(held, s)
		}
	}
	p.mu.Unlock()
	for _, s := range held {
		p.moveWorker(s, j)
	}
}

// Workers snapshots the live worker set.
func (p *Pool) Workers() []WorkerInfo {
	p.mu.Lock()
	sessions := make([]*session, 0, len(p.sessions))
	for _, s := range p.sessions {
		sessions = append(sessions, s)
	}
	p.mu.Unlock()
	out := make([]WorkerInfo, 0, len(sessions))
	for _, s := range sessions {
		out = append(out, s.info())
	}
	return out
}

// Close refuses further admissions and registrations, dismisses parked
// volunteers, and stops the rebalancer. Leased channels are left to their
// jobs' own lifecycles, mirroring the old master shutdown.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	var parked []*session
	for _, s := range p.sessions {
		if s.isParked() {
			parked = append(parked, s)
		}
	}
	p.mu.Unlock()
	close(p.done)
	p.cond.Broadcast()
	for _, s := range parked {
		s.dismiss()
	}
}

func (p *Pool) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// ServeWS accepts WebSocket-like volunteers from acc until the acceptor
// closes, admitting each one (paper §5.2–5.3).
func (p *Pool) ServeWS(acc transport.Acceptor) error {
	for {
		conn, err := acc.Accept()
		if err != nil {
			if p.isClosed() {
				return nil
			}
			return err
		}
		go func() {
			_ = p.Admit(transport.NewWSock(conn, p.cfg.Channel))
		}()
	}
}

// ServeRTC admits WebRTC-like volunteers whose direct channels are
// delivered by the answerer (paper §5.4).
func (p *Pool) ServeRTC(answerer *transport.RTCAnswerer) {
	for ch := range answerer.Incoming() {
		go func(ch *transport.WSock) {
			_ = p.Admit(ch)
		}(ch)
	}
}

// Admit performs the hello half of the handshake on a fresh volunteer
// channel, routes the volunteer to a job it can serve (a volunteer
// arriving before any job is registered parks — the welcome is simply
// delayed until one appears), and completes the handshake with a welcome
// naming the routed job.
//
// A rejoining volunteer (hello.Seq > 0) has the half-open sessions of its
// previous incarnation — identified by the hello's instance token —
// severed immediately, so a reattaching device never coexists with its
// own departed sessions: their controllers detach and their values
// re-lend now, instead of after a heartbeat timeout, and the fresh
// attachment's flow-control state starts clean.
func (p *Pool) Admit(ch *transport.WSock) error {
	if p.isClosed() {
		_ = ch.Send(&proto.Message{Type: proto.TypeError, Err: ErrClosed.Error()})
		ch.Close()
		return ErrClosed
	}
	hello, err := transport.RecvHello(ch)
	if err != nil {
		return fmt.Errorf("fleet: admission: %w", err)
	}
	// Close may have raced the handshake; re-check before routing so a
	// volunteer is never wired into a shut-down pool.
	if p.isClosed() {
		_ = ch.Send(&proto.Message{Type: proto.TypeGoodbye})
		ch.Close()
		return ErrClosed
	}
	if hello.Seq > 0 && hello.Token != "" {
		p.severIncarnation(hello.Token, hello.Seq)
	}
	s := newSession(p, hello, ch)
	p.mu.Lock()
	if _, bad := p.banned[s.name]; bad {
		p.mu.Unlock()
		_ = ch.Send(&proto.Message{Type: proto.TypeError, Err: ErrQuarantined.Error()})
		ch.Close()
		return ErrQuarantined
	}
	p.nextID++
	s.id = p.nextID
	if s.name == "" {
		p.nextName++
		s.name = fmt.Sprintf("volunteer-%d", p.nextName)
	}
	p.sessions[s.id] = s
	p.mu.Unlock()
	ch.Route(s.route)
	return p.place(s, nil)
}

// severIncarnation closes every session sharing the rejoining
// volunteer's instance token with an older incarnation number. The
// closed channels fail their jobs' duplexes immediately, so the engines
// re-lend the departed incarnation's values and detach its controllers
// without waiting for heartbeats.
func (p *Pool) severIncarnation(token string, seq uint64) {
	p.mu.Lock()
	var stale []*session
	for _, s := range p.sessions {
		if s.token == token && s.seq < seq {
			stale = append(stale, s)
		}
	}
	p.mu.Unlock()
	for _, s := range stale {
		s.ch.Close()
	}
}

// place routes a session to a job, parking while none is registered.
// exclude names a job that just failed to lease (it is skipped once).
// The welcome named a job that refused, so the next job reaches the
// worker in a reassign frame, as any move does.
func (p *Pool) place(s *session, exclude Job) error {
	welcomed := false
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			s.dismiss()
			return ErrClosed
		}
		if s.isDead() {
			p.mu.Unlock()
			return transport.ErrChannelClosed
		}
		job := p.routeLocked(s, exclude)
		if job == nil {
			if len(p.jobs) == 0 || (len(p.jobs) == 1 && p.jobs[0] == exclude) {
				// No job yet: park until one registers. The volunteer is
				// blocked awaiting its welcome; heartbeats keep flowing
				// underneath, and the session's router notices a death and
				// wakes this wait.
				p.cond.Wait()
				p.mu.Unlock()
				exclude = nil
				continue
			}
			p.mu.Unlock()
			err := fmt.Errorf("%w (volunteer serves %v)", ErrNoJob, s.functions)
			_ = s.ch.Send(&proto.Message{Type: proto.TypeError, Err: err.Error()})
			s.ch.Close()
			return err
		}
		p.mu.Unlock()
		if welcomed {
			s.reassign(job)
			return nil
		}
		if err := p.leaseTo(s, job); err != nil {
			if errors.Is(err, errJobRefused) {
				exclude, welcomed = job, true
				continue
			}
			return err
		}
		return nil
	}
}

// errJobRefused marks a Lease call refused by a closing job; the session
// is re-routed.
var errJobRefused = errors.New("fleet: job refused lease")

// targetsLocked computes each open job's fair-share worker target over a
// fleet of `workers` leases: one worker as a floor for every open job
// (when the fleet is large enough — an open job must never starve), the
// remainder split proportionally to demand. Without the floor a busy
// job's in-flight-weighted demand would forever outweigh a fresh job's,
// and the fresh job could starve with a sub-1 deficit — the rich-get-
// richer failure mode of purely proportional shares. Caller holds p.mu.
func (p *Pool) targetsLocked(workers int) map[Job]float64 {
	demands := make(map[Job]int, len(p.jobs))
	open := 0
	sum := 0
	for _, j := range p.jobs {
		d := j.Demand()
		demands[j] = d
		if d > 0 {
			open++
			sum += d
		}
	}
	targets := make(map[Job]float64, len(p.jobs))
	if open == 0 {
		return targets
	}
	floor := 0.0
	spare := float64(workers)
	if workers >= open {
		floor = 1
		spare = float64(workers - open)
	}
	for _, j := range p.jobs {
		if demands[j] > 0 {
			targets[j] = floor + spare*float64(demands[j])/float64(sum)
		}
	}
	return targets
}

// routeLocked picks the job with the largest fair-share deficit among
// the jobs the session can serve and whose demand is positive; when
// every compatible job is complete, the first compatible one is returned
// so the volunteer is dismissed through the normal goodbye path (the old
// single-master behavior for late joiners). Caller holds p.mu.
func (p *Pool) routeLocked(s *session, exclude Job) Job {
	counts := p.leaseCountsLocked()
	total := 0
	for _, s2 := range p.sessions {
		if s2.leasedOrMoving() {
			total++
		}
	}
	targets := p.targetsLocked(total + 1) // +1: the session being placed
	var best Job
	bestDeficit := 0.0
	var fallback Job
	for _, j := range p.jobs {
		if j == exclude || !s.serves(j.Name()) {
			continue
		}
		if fallback == nil {
			fallback = j
		}
		target, open := targets[j]
		if !open {
			continue
		}
		deficit := target - float64(counts[j])
		if best == nil || deficit > bestDeficit {
			best, bestDeficit = j, deficit
		}
	}
	if best != nil {
		return best
	}
	return fallback
}

// leaseCountsLocked counts sessions per holding job (a session being
// reassigned counts toward its destination). Caller holds p.mu.
func (p *Pool) leaseCountsLocked() map[Job]int {
	counts := make(map[Job]int)
	for _, s := range p.sessions {
		if j := s.currentJob(); j != nil {
			counts[j]++
		}
	}
	return counts
}

// leaseTo completes or continues the handshake and hands the session's
// channel to the job.
func (p *Pool) leaseTo(s *session, job Job) error {
	if !s.welcome() {
		// First lease: send the welcome naming the routed job.
		if err := transport.SendWelcome(s.ch, job.Name()); err != nil {
			p.sessionGone(s)
			return err
		}
	}
	l := s.startLease(job)
	if l == nil {
		return transport.ErrChannelClosed
	}
	if err := job.Lease(s.name, l); err != nil {
		s.endLeaseRefused()
		return fmt.Errorf("%w: %v", errJobRefused, err)
	}
	return nil
}

// moveWorker reclaims a session from the given job (revoking an active
// lease mid-flight if necessary) and routes it to the next job; with no
// destination the volunteer is dismissed.
func (p *Pool) moveWorker(s *session, from Job) {
	if !s.revoke(from) {
		return
	}
	p.routeNext(s, from)
}

// routeNext reassigns a reclaimed session to the best open job other
// than `from`, dismissing the volunteer when none exists.
func (p *Pool) routeNext(s *session, from Job) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		s.dismiss()
		return
	}
	job := p.routeLocked(s, from)
	if job != nil && job.Demand() <= 0 {
		// Only complete jobs remain; a reclaimed worker is dismissed
		// rather than bounced through a job that would immediately
		// goodbye it.
		job = nil
	}
	p.mu.Unlock()
	if job == nil {
		s.dismiss()
		return
	}
	s.reassign(job)
}

// jobLeft handles a job giving a leased worker back: its goodbye (the
// job's stream completed for this session) or its closing the channel
// (pipeline abort, decode failure, or a worker-reported application
// error). The worker may still serve other jobs, so it is routed away
// from that job to the next open one over the same connection; if no
// other job is open it is dismissed.
func (p *Pool) jobLeft(s *session, from Job) {
	go p.routeNext(s, from)
}

// reassigned completes a reassign barrier: the worker acknowledged the
// switch, so every frame of the previous job has drained and the channel
// can be leased to the destination job.
func (p *Pool) reassigned(s *session) {
	job := s.takePending()
	if job == nil {
		return
	}
	if err := p.leaseTo(s, job); err != nil {
		if errors.Is(err, errJobRefused) {
			p.routeNext(s, job)
		}
	}
}

// sessionGone prunes a dead session from the worker set.
func (p *Pool) sessionGone(s *session) {
	s.markDead()
	p.mu.Lock()
	delete(p.sessions, s.id)
	p.mu.Unlock()
	p.cond.Broadcast()
}

// rebalanceLoop is the demand-weighted fair-share scan: every period it
// compares each open job's lease count to its demand-proportional
// target and moves one worker from the most over-leased job to the most
// under-leased one. Moving one worker per tick keeps the fleet stable
// under noisy demand signals while still converging in a few periods.
func (p *Pool) rebalanceLoop() {
	interval := p.cfg.Rebalance
	if interval <= 0 {
		interval = DefaultRebalance
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-p.done:
			return
		case <-t.C:
			p.rebalanceOnce()
		}
	}
}

// rebalanceOnce performs one fair-share pass.
func (p *Pool) rebalanceOnce() {
	p.mu.Lock()
	if p.closed || len(p.jobs) < 2 {
		p.mu.Unlock()
		return
	}
	counts := p.leaseCountsLocked()
	total := 0
	for _, s := range p.sessions {
		if s.currentJob() != nil {
			total++
		}
	}
	open := 0
	for _, j := range p.jobs {
		if j.Demand() > 0 {
			open++
		}
	}
	if total > 0 && total < open {
		// More open jobs than leased workers: every fair-share target is
		// sub-1, so the whole-worker deficit threshold below can never
		// fire for a starved job — the fleet would freeze on whichever
		// jobs happened to lease first. Degrade to round-robin
		// time-sharing: each tick moves one worker from the job holding
		// the most leases to the next lease-less open job in registration
		// order, so every open job is served in turn regardless of how
		// lopsided the demand weights are.
		donor, receiver := p.roundRobinLocked(counts)
		p.mu.Unlock()
		p.moveLease(donor, receiver)
		return
	}
	targets := p.targetsLocked(total)
	if len(targets) == 0 {
		p.mu.Unlock()
		return
	}
	// Donor: largest surplus above its fair-share target (complete jobs
	// donate everything they still hold). Receiver: largest deficit among
	// open jobs. Only whole workers move, so a move needs a donor at
	// least one above target and a receiver at least ~one below; the
	// floor in targetsLocked guarantees a starving open job qualifies.
	var donor, receiver Job
	surplus, deficit := 0.999, 0.999
	for _, j := range p.jobs {
		target, open := targets[j]
		diff := float64(counts[j]) - target
		if diff > surplus {
			donor, surplus = j, diff
		}
		if open && -diff > deficit {
			receiver, deficit = j, -diff
		}
	}
	p.mu.Unlock()
	p.moveLease(donor, receiver)
}

// roundRobinLocked picks the starved-fleet move: the receiver is the
// first open lease-less job at or after the rotation cursor (which then
// advances past it, so successive ticks serve every open job in turn),
// the donor the job currently holding the most leases. Either may be nil
// — no starved job, or nobody holding a lease — making the tick a no-op.
// Caller holds p.mu.
func (p *Pool) roundRobinLocked(counts map[Job]int) (donor, receiver Job) {
	n := len(p.jobs)
	for k := 0; k < n; k++ {
		j := p.jobs[(p.rrNext+k)%n]
		if counts[j] == 0 && j.Demand() > 0 {
			receiver = j
			p.rrNext = (p.rrNext + k + 1) % n
			break
		}
	}
	if receiver == nil {
		return nil, nil
	}
	best := 0
	for _, j := range p.jobs {
		if j != receiver && counts[j] > best {
			donor, best = j, counts[j]
		}
	}
	return donor, receiver
}

// moveLease reassigns one movable session — currently leased to the
// donor, able to serve the receiver — from donor to receiver. A nil
// donor or receiver, or no such session, makes the move a no-op.
func (p *Pool) moveLease(donor, receiver Job) {
	if donor == nil || receiver == nil || donor == receiver {
		return
	}
	p.mu.Lock()
	var victim *session
	for _, s := range p.sessions {
		if s.currentJob() == donor && s.isLeased() && s.serves(receiver.Name()) {
			victim = s
			break
		}
	}
	p.mu.Unlock()
	if victim == nil {
		return
	}
	if victim.revoke(donor) {
		victim.reassign(receiver)
	}
}

// Quarantine expels every live session of the named worker and bans the
// name from future admission: its channels close (crash-stop — the jobs'
// duplexes fail and the engines re-lend every value the cheater still
// held, exactly as if the device crashed), and a later hello under the
// same accounting name is refused with ErrQuarantined. Verification
// calls this when a worker's reputation falls below the quarantine
// line; the re-lent values go to workers still in good standing.
func (p *Pool) Quarantine(name string) {
	p.mu.Lock()
	if p.banned == nil {
		p.banned = make(map[string]struct{})
	}
	p.banned[name] = struct{}{}
	var held []*session
	for _, s := range p.sessions {
		if s.name == name {
			held = append(held, s)
		}
	}
	p.mu.Unlock()
	for _, s := range held {
		s.ch.Close()
	}
}

// Quarantined reports whether name has been quarantined.
func (p *Pool) Quarantined(name string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, bad := p.banned[name]
	return bad
}
