package fleet

import (
	"slices"
	"sync"

	"pando/internal/proto"
	"pando/internal/transport"
)

// Session states.
const (
	stateParked     = iota // admitted, awaiting a job (welcome not sent yet, or between jobs)
	stateLeased            // channel held by a job through a lease
	stateReclaiming        // reassign sent, draining until the worker's echo
	stateDismissing        // goodbye forwarded, awaiting the connection to end
	stateDead              // connection gone
)

// session is one admitted volunteer connection owned by the pool. A
// multi-core device contributes several sessions under one accounting
// name, exactly as it contributed several channels to the old master.
type session struct {
	pool  *Pool
	id    int
	name  string
	token string // volunteer instance nonce (rejoin severing)
	seq   uint64 // join incarnation (>0 on rejoins)
	ch    transport.Channel

	mu        sync.Mutex
	functions []string // advertised functions; an absent list is pinned by the first lease
	state     int
	welcomed  bool
	cur       *lease // active lease
	curJob    Job    // job holding the channel (or reassign destination)
	pending   Job    // reassign destination awaiting the worker's echo

	// sendMu serializes job-side sends with lease revocation so no data
	// frame can slip onto the wire after the reassign barrier frame.
	sendMu sync.Mutex
}

func newSession(p *Pool, hello *proto.Message, ch transport.Channel) *session {
	return &session{
		pool:      p,
		name:      hello.Peer,
		token:     hello.Token,
		seq:       hello.Seq,
		functions: append([]string(nil), hello.Functions...),
		ch:        ch,
	}
}

// serves reports whether the volunteer can resolve the named function.
// The wildcard "*" serves anything, and so does an absent list until the
// session's first lease pins it to that job.
func (s *session) serves(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.functions) == 0 || slices.Contains(s.functions, "*") || slices.Contains(s.functions, name)
}

func (s *session) info() WorkerInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	info := WorkerInfo{Name: s.name}
	if s.curJob != nil {
		info.Job = s.curJob.Name()
	}
	switch s.state {
	case stateParked:
		info.State = "parked"
	case stateLeased:
		info.State = "leased"
	case stateReclaiming:
		info.State = "reclaiming"
	case stateDismissing:
		info.State = "dismissing"
	default:
		info.State = "dead"
	}
	return info
}

func (s *session) isParked() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state == stateParked
}

func (s *session) isLeased() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state == stateLeased
}

func (s *session) leasedOrMoving() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state == stateLeased || s.state == stateReclaiming
}

func (s *session) isDead() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state == stateDead
}

func (s *session) markDead() {
	s.mu.Lock()
	s.state = stateDead
	s.curJob = nil
	s.pending = nil
	l := s.cur
	s.cur = nil
	s.mu.Unlock()
	if l != nil {
		l.end(nil)
	}
}

func (s *session) currentJob() Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.curJob != nil {
		return s.curJob
	}
	return s.pending
}

// welcome reports whether the welcome was already sent, marking it sent.
func (s *session) welcome() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	was := s.welcomed
	s.welcomed = true
	return was
}

// startLease transitions the session to leased and returns the job's
// lease on its channel, or nil when the session died meanwhile. A session
// that advertised no functions is routed once and never reassigned: its
// list becomes the job's name here, in the step that makes it movable, so
// no fair-share move or later release finds another job it serves.
func (s *session) startLease(job Job) *lease {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == stateDead {
		return nil
	}
	s.state = stateLeased
	s.curJob = job
	s.pending = nil
	s.cur = &lease{s: s, job: job}
	if len(s.functions) == 0 {
		s.functions = []string{job.Name()}
		s.cur.pinned = true
	}
	return s.cur
}

// endLeaseRefused rolls back startLease after the job refused the Lease
// call (it was closing concurrently), lifting the pin it took: the
// session is routed once only when a lease succeeds.
func (s *session) endLeaseRefused() {
	s.mu.Lock()
	l := s.cur
	s.cur = nil
	s.curJob = nil
	s.state = stateParked
	if l != nil && l.pinned {
		s.functions = nil
	}
	s.mu.Unlock()
	if l != nil {
		l.end(nil)
	}
}

// released intercepts the job's goodbye on an active lease — the job
// completed for this worker. It reports whether the interception won the
// race against revocation and failure.
func (s *session) released(l *lease) (Job, bool) {
	s.mu.Lock()
	if s.state != stateLeased || s.cur != l {
		s.mu.Unlock()
		return nil, false
	}
	job := s.curJob
	s.cur = nil
	s.curJob = nil
	s.state = stateParked
	s.mu.Unlock()
	// The job's result source is parked on the lease; a synthesized
	// goodbye ends its sub-stream gracefully, exactly as the worker's
	// goodbye reply would have.
	l.end(&proto.Message{Type: proto.TypeGoodbye})
	return job, true
}

// aborted handles the job closing the lease (abort, decode failure,
// worker-reported error). Reports whether this call took the lease down.
func (s *session) abortedLease(l *lease) (Job, bool) {
	s.mu.Lock()
	if s.cur != l || s.state == stateDead {
		s.mu.Unlock()
		return nil, false
	}
	job := s.curJob
	s.cur = nil
	s.curJob = nil
	s.state = stateParked
	s.mu.Unlock()
	l.end(nil)
	return job, true
}

// revoke reclaims the channel from its current job mid-lease (fair-share
// move or job unregistration). The job's side ends gracefully: its sink
// loses the channel, its source receives a synthesized goodbye, and the
// engine re-lends whatever the worker still held. Reports whether the
// session is ready to be routed (false when another transition won).
func (s *session) revoke(from Job) bool {
	s.mu.Lock()
	if s.state == stateDead || s.state == stateDismissing {
		s.mu.Unlock()
		return false
	}
	if s.curJob != from && s.pending != from {
		s.mu.Unlock()
		return false
	}
	l := s.cur
	s.cur = nil
	s.curJob = nil
	s.pending = nil
	s.state = stateParked
	s.mu.Unlock()
	if l != nil {
		// Block concurrent job sends around the lease teardown so nothing
		// can be written after the barrier frame that reassign sends.
		s.sendMu.Lock()
		l.end(&proto.Message{Type: proto.TypeGoodbye})
		s.sendMu.Unlock()
	}
	return true
}

// reassign moves a reclaimed session to the destination job: it sends
// the reassign frame and waits (via route) for the worker's echo before
// leasing. The echo is the drain barrier — every result of
// the previous job precedes it on the ordered channel.
func (s *session) reassign(job Job) {
	s.mu.Lock()
	if s.state != stateParked {
		s.mu.Unlock()
		return
	}
	s.state = stateReclaiming
	s.pending = job
	s.mu.Unlock()
	if err := s.ch.Send(&proto.Message{Type: proto.TypeReassign, Func: job.Name()}); err != nil {
		s.pool.sessionGone(s)
	}
}

// takePending consumes the reassign destination once the worker's echo
// arrived, transitioning back to parked for leaseTo.
func (s *session) takePending() Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != stateReclaiming || s.pending == nil {
		return nil
	}
	job := s.pending
	s.pending = nil
	s.state = stateParked
	return job
}

// dismiss lets the volunteer go: the goodbye crosses for real and the
// worker's serve loop exits, as under the old single-job master.
func (s *session) dismiss() {
	s.mu.Lock()
	if s.state == stateDead || s.state == stateDismissing {
		s.mu.Unlock()
		return
	}
	s.state = stateDismissing
	s.curJob = nil
	s.pending = nil
	welcomed := s.welcomed
	s.mu.Unlock()
	if !welcomed {
		// Never routed: refuse politely and drop the connection; the
		// volunteer's handshake fails cleanly.
		_ = s.ch.Send(&proto.Message{Type: proto.TypeError, Err: ErrClosed.Error()})
		s.ch.Close()
		s.pool.sessionGone(s)
		return
	}
	// The worker replies goodbye and hangs up; route sees the end.
	_ = s.ch.Send(&proto.Message{Type: proto.TypeGoodbye})
}

// route consumes every frame of a session's channel for the connection's
// lifetime, on the channel's own read loop (the Channel's Route): it hands
// frames to the current lease, whose job handles them right there, watches
// for reassign echoes while reclaiming, and discards stale frames in
// between. A nil frame is the channel's end. Like every routed handler it
// never waits on a write.
func (s *session) route(m *proto.Message, _ error) {
	if m == nil {
		s.pool.sessionGone(s)
		return
	}
	s.mu.Lock()
	state, l := s.state, s.cur
	s.mu.Unlock()
	switch {
	case state == stateLeased && l != nil:
		l.deliver(m)
		return
	case state == stateReclaiming && m.Type == proto.TypeReassign:
		// Off the read loop: leasing to the next job may write to the
		// channel.
		go s.pool.reassigned(s)
	}
	// Anything else is stale — a result of the previous job racing the
	// reassign barrier (the engine already re-lends those values), a late
	// result or goodbye reply while parked or dismissing — and goes back
	// into the arena.
	proto.Release(m)
}

// lease is the channel a job holds on a worker: a routed view of the
// session's connection that the pool can end without closing the
// connection itself. A mailbox serialises the read loop's deliveries with
// the pool's end: whoever finds it idle runs the job's handler, holding no
// lock, until the box is empty; a frame that comes meanwhile waits there.
type lease struct {
	s   *session
	job Job

	mu     sync.Mutex
	h      func(*proto.Message, error) // the job's handler, once routed
	box    []*proto.Message            // frames for h, oldest first; nil is the end
	busy   bool                        // a goroutine is running h
	ended  bool                        // the end is in the box: no frame follows it
	pinned bool                        // startLease pinned the session's absent list to job
}

var _ transport.Channel = (*lease)(nil)

// deliver routes one inbound frame to the job; ended leases drop it
// (back into the arena — nobody will handle it).
func (l *lease) deliver(m *proto.Message) {
	l.mu.Lock()
	if l.ended {
		l.mu.Unlock()
		proto.Release(m)
		return
	}
	l.box = append(l.box, m)
	l.run()
}

// Route implements transport.Channel. Frames that came before it go to h
// at once, on the caller's goroutine.
func (l *lease) Route(h func(*proto.Message, error)) {
	l.mu.Lock()
	l.h = h
	l.run()
}

// end terminates the lease: the handler gets the frames already in the
// box, then final (when non-nil), then ErrChannelClosed.
func (l *lease) end(final *proto.Message) {
	l.mu.Lock()
	if !l.ended {
		l.ended = true
		if final != nil {
			l.box = append(l.box, final)
		}
		l.box = append(l.box, nil)
	}
	l.run()
}

// run empties the box into h unless h is not routed yet or another
// goroutine is at it. Called with l.mu held; returns with it released.
func (l *lease) run() {
	if l.busy || l.h == nil {
		l.mu.Unlock()
		return
	}
	l.busy = true
	for len(l.box) > 0 {
		m := l.box[0]
		l.box = l.box[:copy(l.box, l.box[1:])]
		l.mu.Unlock()
		var err error
		if m == nil {
			err = transport.ErrChannelClosed
		}
		l.h(m, err)
		l.mu.Lock()
	}
	l.busy = false
	l.mu.Unlock()
}

func (l *lease) isEnded() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ended
}

// Send forwards a job frame to the worker. A goodbye is intercepted: it
// means the job's stream completed for this worker, which releases the
// lease back to the pool instead of dismissing the device.
func (l *lease) Send(m *proto.Message) error {
	if m.Type == proto.TypeGoodbye {
		if job, ok := l.s.released(l); ok {
			l.s.pool.jobLeft(l.s, job)
		}
		return nil
	}
	l.s.sendMu.Lock()
	defer l.s.sendMu.Unlock()
	if l.isEnded() {
		return transport.ErrChannelClosed
	}
	return l.s.ch.Send(m)
}

// SendBatch forwards a coalesced batch of job frames to the worker in one
// vectored write. A trailing goodbye (the only place the coalescing
// duplex puts one) is split off and intercepted exactly like Send's, so
// lease release semantics survive batching.
func (l *lease) SendBatch(ms []*proto.Message) error {
	n := len(ms)
	goodbye := n > 0 && ms[n-1].Type == proto.TypeGoodbye
	if goodbye {
		ms = ms[:n-1]
	}
	if len(ms) > 0 {
		l.s.sendMu.Lock()
		if l.isEnded() {
			l.s.sendMu.Unlock()
			return transport.ErrChannelClosed
		}
		err := transport.SendAll(l.s.ch, ms)
		l.s.sendMu.Unlock()
		if err != nil {
			return err
		}
	}
	if goodbye {
		return l.Send(&proto.Message{Type: proto.TypeGoodbye})
	}
	return nil
}

var _ transport.BatchSender = (*lease)(nil)

// Close ends the job's use of the worker without closing the connection:
// the pool reclaims the device and routes it to another open job, or
// dismisses it when none exists.
func (l *lease) Close() error {
	if job, ok := l.s.abortedLease(l); ok {
		l.s.pool.jobLeft(l.s, job)
	}
	return nil
}

func (l *lease) RemoteAddr() string { return l.s.ch.RemoteAddr() }
