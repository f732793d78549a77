// Package overlay implements a fat-tree overlay in the style of Genet
// (Lavoie et al., SASO'19), the companion work the paper's evaluation
// refers to: "The design of Pando has also been shown to scale up to at
// least a thousand browsers when combined with a fat-tree overlay" (§5).
//
// A relay Node joins a master (or another relay) exactly like a
// volunteer, but instead of processing inputs itself it re-lends them to
// its own children through a nested StreamLender. Because StreamLender
// already provides laziness, ordering, fault-tolerance and adaptivity,
// the relay is a thin composition: inputs received from the parent form
// its input stream, children are its sub-streams, and results flow back
// up in arrival order. A crashed child is handled inside the relay; a
// crashed relay is handled by its parent, which re-lends the whole
// subtree's outstanding values.
package overlay

import (
	"fmt"
	"sync"
	"time"

	"pando/internal/lender"
	"pando/internal/proto"
	"pando/internal/pullstream"
	"pando/internal/sched"
	"pando/internal/transport"
)

// Node is one interior node of the fat tree.
type Node struct {
	// Name identifies the relay to its parent.
	Name string
	// Fanout bounds values in flight per child (the child-side Limiter
	// bound); zero selects the parent's batch size.
	Fanout int
	// Flow overrides the per-child flow-control policy. The zero value
	// keeps a static window of Fanout values per child; an adaptive
	// policy gives each child its own probed credit window, and
	// Speculation re-dispatches values stuck on straggling children —
	// the same controller the master applies to its direct workers.
	Flow sched.Policy
	// Channel tunes heartbeats on both the parent and child channels.
	Channel transport.Config

	mu         sync.Mutex
	funcName   string
	batch      int
	formats    []string // deployment's allowed wire formats (from the welcome)
	configured bool     // deployment parameters are known (Configure ran)
	children   int
	live       int
	parent     transport.Channel
	l          *lender.Lender[payload, payload]
	sched      *sched.Scheduler

	// ready is closed once the parent handshake concluded — successfully
	// (configured is then true) or not — gating child admission on the
	// deployment parameters the welcome carries (function name, batch,
	// wire-format restriction) without hanging children forever when the
	// parent refused this relay.
	ready     chan struct{}
	readyOnce sync.Once
}

// admitWait bounds how long a child waits for the relay's own handshake
// to conclude before being refused.
const admitWait = 10 * time.Second

// payload carries one opaque value with its upstream sequence number.
type payload struct {
	seq  uint64
	data []byte
}

// NewNode creates an idle relay.
func NewNode(name string) *Node {
	return &Node{Name: name, l: lender.New[payload, payload](), ready: make(chan struct{})}
}

// Configure sets the deployment parameters directly and marks the relay
// ready to admit children — for relays operated without a parent
// handshake (static topologies, tests). Run performs the same steps from
// the parent's welcome.
func (n *Node) Configure(funcName string, batch int, formats []string) {
	n.mu.Lock()
	n.funcName = funcName
	n.batch = batch
	if n.batch <= 0 {
		n.batch = 2
	}
	n.formats = formats
	n.configured = true
	if n.sched == nil {
		// The per-child flow controller, resolved once the deployment
		// parameters are known: Flow overrides, else a static window of
		// Fanout (default: the deployment's batch), the old behavior.
		p := n.Flow
		if p.Min <= 0 && p.Max <= 0 {
			fanout := n.Fanout
			if fanout <= 0 {
				fanout = n.batch
			}
			p.Min, p.Max = fanout, fanout
		}
		n.sched = sched.New(p, n.l.IdleAtTail)
	}
	n.mu.Unlock()
	n.readyOnce.Do(func() { close(n.ready) })
}

// Run joins the parent over ch (performing the volunteer handshake),
// relays inputs to children and results back, and returns when the
// parent's stream completes or the channel fails. Children are accepted
// concurrently via ServeChildren.
func (n *Node) Run(parent transport.Channel) error {
	// Whatever way Run exits, release children parked in AdmitChild; on
	// failure paths configured stays false and they are refused. The
	// straggler scan, if any, stops with the relay.
	defer n.readyOnce.Do(func() { close(n.ready) })
	defer func() {
		n.mu.Lock()
		s := n.sched
		n.mu.Unlock()
		if s != nil {
			s.Stop()
		}
	}()
	welcome, err := transport.ClientHandshake(parent, n.Name, nil, nil)
	if err != nil {
		return fmt.Errorf("overlay: %w", err)
	}
	n.mu.Lock()
	n.parent = parent
	n.mu.Unlock()
	// The welcome carries the deployment restriction, enforced on
	// children too.
	n.Configure(welcome.Func, welcome.Batch, welcome.Formats)

	// Inputs from the parent feed the nested lender.
	in := make(chan payload, 64)
	parentErr := make(chan error, 1)
	out := n.l.Bind(pullstream.FromChan(in, parentErr))

	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		for {
			m, err := parent.Recv()
			if err != nil {
				parentErr <- err
				return
			}
			switch m.Type {
			case proto.TypeInput:
				// The payload escapes into the lender; the frame buffer's
				// ownership moves with it and only the envelope recycles.
				m.Detach()
				in <- payload{seq: m.Seq, data: m.Data}
				proto.Release(m)
			case proto.TypeGoodbye:
				proto.Release(m)
				close(in)
				return
			default:
				proto.Release(m)
			}
		}
	}()

	// Results flow back up in arrival-order (the ordered lender restores
	// input order, which is what the parent's FIFO matching expects).
	drainErr := pullstream.Drain(out, func(p payload) error {
		return parent.Send(&proto.Message{Type: proto.TypeResult, Seq: p.seq, Data: p.data})
	})
	<-recvDone
	if drainErr != nil && !pullstream.IsNormalEnd(drainErr) {
		parent.Close()
		return drainErr
	}
	_ = parent.Send(&proto.Message{Type: proto.TypeGoodbye})
	parent.Close()
	return nil
}

// ServeChildren accepts child volunteers (leaves or deeper relays) until
// the acceptor closes. Run it on its own goroutine alongside Run.
func (n *Node) ServeChildren(acc transport.Acceptor) error {
	for {
		conn, err := acc.Accept()
		if err != nil {
			return nil
		}
		go func() {
			_ = n.AdmitChild(transport.NewWSock(conn, n.Channel))
		}()
	}
}

// AdmitChild performs the handshake with one child and attaches it to the
// nested lender.
func (n *Node) AdmitChild(ch transport.Channel) error {
	// A child connecting before this relay's own handshake concluded
	// must not be admitted with unknown deployment parameters (empty
	// function name, unrestricted wire formats). Wait — bounded, so a
	// parentless relay refuses children instead of parking them forever —
	// for the welcome; the child's hello sits in the channel meanwhile.
	select {
	case <-n.ready:
	case <-time.After(admitWait):
		err := fmt.Errorf("overlay: relay %q has no deployment after %v", n.Name, admitWait)
		_ = ch.Send(&proto.Message{Type: proto.TypeError, Err: err.Error()})
		ch.Close()
		return err
	}
	n.mu.Lock()
	configured := n.configured
	funcName, batch := n.funcName, n.batch
	restricted := n.formats
	scheduler := n.sched
	n.mu.Unlock()
	if !configured {
		err := fmt.Errorf("overlay: relay %q has no deployment (parent handshake failed)", n.Name)
		_ = ch.Send(&proto.Message{Type: proto.TypeError, Err: err.Error()})
		ch.Close()
		return err
	}
	// The same admission the master performs, honoring the deployment
	// restriction the welcome carried down — a relay must not admit a
	// device the master itself would refuse.
	hello, _, err := transport.AdmitHandshake(ch, funcName, batch, restricted)
	if err != nil {
		return fmt.Errorf("overlay: admission: %w", err)
	}
	n.mu.Lock()
	n.children++
	n.live++
	childName := hello.Peer
	if childName == "" {
		childName = fmt.Sprintf("%s-child-%d", n.Name, n.children)
	}
	n.mu.Unlock()

	// The same per-child controller the master applies to its direct
	// workers: an adaptive (or static) credit gate in place of the fixed
	// child-side Limiter, with stragglers re-dispatched when enabled.
	sub, sd := n.l.LendStream()
	ctrl := scheduler.Attach(childName, childHandle{l: n.l, sub: sub})
	results := sched.Gate(ctrl, childDuplex(ch))(sd.Source)
	watched := func(abort error, cb pullstream.Callback[payload]) {
		results(abort, func(end error, v payload) {
			if end != nil {
				scheduler.Detach(ctrl)
				n.childGone()
			}
			cb(end, v)
		})
	}
	sd.Sink(watched)
	return nil
}

// childHandle adapts a child's lending sub-stream to the scheduler.
type childHandle struct {
	l   *lender.Lender[payload, payload]
	sub *lender.SubStream[payload]
}

func (h childHandle) Outstanding() (int, time.Duration) { return h.l.SubInfo(h.sub) }
func (h childHandle) Speculate(max int) int             { return h.l.Speculate(h.sub, max) }

// childGone records a child's departure. A relay whose children are all
// gone while it still holds unanswered values is useless yet looks alive
// to its parent (its own heartbeats still flow); it therefore disconnects
// so the parent re-lends the subtree's values elsewhere — crash-stop
// applied to itself.
func (n *Node) childGone() {
	n.mu.Lock()
	n.live--
	orphaned := n.live <= 0
	parent := n.parent
	n.mu.Unlock()
	if !orphaned || parent == nil {
		return
	}
	lentNow, failedQ, _, _ := n.l.Stats()
	if lentNow > 0 || failedQ > 0 {
		parent.Close()
	}
}

// Children returns how many children have been admitted.
func (n *Node) Children() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.children
}

// childDuplex frames payloads for a child channel, preserving the
// upstream sequence numbers so results can be matched at the root.
//
// The relay's nested lender matches results FIFO, like the master's. The
// upstream seqs are not contiguous per child, so the duplex remembers the
// order it sent them and requires each result to echo the oldest
// unanswered one: a cleanly lost frame (the chaos drop fault) then fails
// the channel — the subtree's values re-lend — instead of silently
// pairing every later result with the wrong value.
func childDuplex(ch transport.Channel) pullstream.Duplex[payload, payload] {
	var (
		seqMu sync.Mutex
		sent  []uint64 // seqs in flight to this child, oldest first
	)
	return pullstream.Duplex[payload, payload]{
		Sink: func(src pullstream.Source[payload]) {
			for {
				type ans struct {
					end error
					v   payload
				}
				ansc := make(chan ans, 1)
				src(nil, func(end error, v payload) { ansc <- ans{end, v} })
				a := <-ansc
				if a.end != nil {
					if pullstream.IsNormalEnd(a.end) {
						_ = ch.Send(&proto.Message{Type: proto.TypeGoodbye})
					} else {
						ch.Close()
					}
					return
				}
				seqMu.Lock()
				sent = append(sent, a.v.seq)
				seqMu.Unlock()
				if err := ch.Send(&proto.Message{Type: proto.TypeInput, Seq: a.v.seq, Data: a.v.data}); err != nil {
					return
				}
			}
		},
		Source: func(abort error, cb pullstream.Callback[payload]) {
			var zero payload
			if abort != nil {
				ch.Close()
				cb(abort, zero)
				return
			}
			for {
				m, err := ch.Recv()
				if err != nil {
					cb(err, zero)
					return
				}
				switch m.Type {
				case proto.TypeResult:
					if m.Err != "" {
						werr := &transport.WorkerError{Seq: m.Seq, Msg: m.Err}
						proto.Release(m)
						ch.Close()
						cb(werr, zero)
						return
					}
					seqMu.Lock()
					ok := len(sent) > 0 && sent[0] == m.Seq
					if ok {
						sent = sent[1:]
					}
					seqMu.Unlock()
					if !ok {
						rerr := fmt.Errorf("overlay: result seq %d out of order (frame lost or reordered)", m.Seq)
						proto.Release(m)
						ch.Close()
						cb(rerr, zero)
						return
					}
					// The result payload escapes to the parent's sender;
					// detach it so only the envelope recycles.
					m.Detach()
					p := payload{seq: m.Seq, data: m.Data}
					proto.Release(m)
					cb(nil, p)
					return
				case proto.TypeGoodbye:
					proto.Release(m)
					cb(pullstream.ErrDone, zero)
					return
				default:
					proto.Release(m)
				}
			}
		},
	}
}
