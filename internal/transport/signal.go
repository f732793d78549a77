package transport

import (
	"fmt"
	"slices"
	"sync"

	"pando/internal/proto"
)

// SignalServer is the Public Server of the paper's architecture (Figure
// 7): a small relay, deployable on a free cloud tier or a Raspberry Pi,
// used only to bootstrap WebRTC connections. Peers join with an ID and
// exchange offer/answer/candidate messages addressed by ID; the relay
// never sees application data.
//
// Pool mode (EnablePool) adds fleet sharing at the signalling layer:
// masters join advertising the functions they serve, and a volunteer may
// send an offer with an empty destination — "any master that can use
// me". The relay assigns one round-robin, preferring masters whose
// advertised functions intersect the volunteer's, so one public server
// can feed a whole household of deployments without volunteers knowing
// any master ID.
type SignalServer struct {
	// OnJoin, when set before Serve, is invoked after each successful
	// peer registration — e.g. to keep a durable registration history
	// across relay restarts. It must not block.
	OnJoin func(peerID string)
	// OnLeave, when set before Serve, is invoked after a registered peer
	// deregisters (its signalling connection ended, gracefully or not)
	// and has been pruned from Peers. It must not block.
	OnLeave func(peerID string)

	mu      sync.Mutex
	peers   map[string]Channel
	masters map[string][]string // master peer ID -> advertised functions
	rr      int                 // round-robin cursor over masters
	pool    bool
	done    chan struct{}
	once    sync.Once
}

// NewSignalServer returns an idle signalling relay.
func NewSignalServer() *SignalServer {
	return &SignalServer{
		peers:   make(map[string]Channel),
		masters: make(map[string][]string),
		done:    make(chan struct{}),
	}
}

// EnablePool turns on pool mode: offers with an empty destination are
// routed to a registered master. Call before Serve.
func (s *SignalServer) EnablePool() {
	s.mu.Lock()
	s.pool = true
	s.mu.Unlock()
}

// Serve accepts signalling connections from acc until the acceptor or the
// server is closed. Each connection is handled on its own goroutine.
func (s *SignalServer) Serve(acc Acceptor, cfg Config) error {
	for {
		conn, err := acc.Accept()
		if err != nil {
			select {
			case <-s.done:
				return nil
			default:
				return err
			}
		}
		go s.handle(NewWSock(conn, cfg))
	}
}

// Close shuts the relay down and disconnects every registered peer.
func (s *SignalServer) Close() {
	s.once.Do(func() { close(s.done) })
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, ch := range s.peers {
		ch.Close()
		delete(s.peers, id)
		delete(s.masters, id)
	}
}

// Peers returns the IDs currently registered, for diagnostics. Departed
// peers are pruned as soon as their signalling connection ends.
func (s *SignalServer) Peers() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.peers))
	for id := range s.peers {
		ids = append(ids, id)
	}
	return ids
}

// pickMaster assigns a master for an anonymous offer: round-robin over
// the registered masters, preferring those whose advertised functions
// intersect the volunteer's (an empty volunteer list matches any).
func (s *SignalServer) pickMaster(functions []string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.pool || len(s.masters) == 0 {
		return "", false
	}
	ids := make([]string, 0, len(s.masters))
	for id := range s.masters {
		ids = append(ids, id)
	}
	// Map iteration order is random; a stable order keeps the round-robin
	// fair.
	slices.Sort(ids)
	serves := func(master string) bool {
		if len(functions) == 0 {
			return true
		}
		for _, want := range functions {
			if want == "*" {
				return true
			}
			for _, have := range s.masters[master] {
				if want == have {
					return true
				}
			}
		}
		return false
	}
	for k := 0; k < len(ids); k++ {
		id := ids[(s.rr+k)%len(ids)]
		if serves(id) {
			s.rr = (s.rr + k + 1) % len(ids)
			return id, true
		}
	}
	return "", false
}

func (s *SignalServer) handle(ch *WSock) {
	defer ch.Close()

	// The first message must register the peer. A join carrying a
	// Functions list registers a master advertising the jobs it serves
	// (pool mode routing).
	m, err := ch.Recv()
	if err != nil {
		return
	}
	if m.Type != proto.TypeJoin || m.Peer == "" {
		proto.Release(m)
		_ = ch.Send(&proto.Message{Type: proto.TypeError, Err: "expected join with peer id"})
		return
	}
	// Everything the registration needs is decode-time-copied; the frame
	// itself goes back to the arena before the relay loop starts.
	id := m.Peer
	functions := m.Functions
	proto.Release(m)

	s.mu.Lock()
	if _, taken := s.peers[id]; taken {
		s.mu.Unlock()
		_ = ch.Send(&proto.Message{Type: proto.TypeError, Err: fmt.Sprintf("peer id %q already joined", id)})
		return
	}
	s.peers[id] = ch
	if len(functions) > 0 {
		s.masters[id] = functions
	}
	s.mu.Unlock()

	defer func() {
		s.mu.Lock()
		left := false
		if s.peers[id] == ch {
			delete(s.peers, id)
			delete(s.masters, id)
			left = true
		}
		onLeave := s.OnLeave
		s.mu.Unlock()
		if left && onLeave != nil {
			onLeave(id)
		}
	}()

	// Acknowledge the registration.
	if err := ch.Send(&proto.Message{Type: proto.TypeWelcome, Peer: id}); err != nil {
		return
	}
	if s.OnJoin != nil {
		s.OnJoin(id)
	}

	// Relay loop: forward addressed messages.
	for {
		m, err := ch.Recv()
		if err != nil {
			return
		}
		switch m.Type {
		case proto.TypeOffer, proto.TypeAnswer, proto.TypeCandidate:
			to := m.To
			if to == "" && m.Type == proto.TypeOffer {
				// Pool mode: "any master that can use me".
				assigned, ok := s.pickMaster(m.Functions)
				if !ok {
					proto.Release(m)
					_ = ch.Send(&proto.Message{
						Type: proto.TypeError,
						Err:  "no master registered for pool assignment",
					})
					continue
				}
				to = assigned
			}
			s.mu.Lock()
			dst, ok := s.peers[to]
			s.mu.Unlock()
			if !ok {
				proto.Release(m)
				_ = ch.Send(&proto.Message{
					Type: proto.TypeError,
					To:   to,
					Err:  fmt.Sprintf("peer %q not connected", to),
				})
				continue
			}
			// The forwarded copy keeps the decoded payload alive past this
			// iteration, so the frame buffer's ownership moves with it and
			// only the envelope is recycled.
			fwd := *m
			fwd.Peer = id // authoritative sender
			fwd.To = to
			m.Detach()
			proto.Release(m)
			if err := dst.Send(&fwd); err != nil {
				_ = ch.Send(&proto.Message{
					Type: proto.TypeError,
					To:   to,
					Err:  "relay failed: " + err.Error(),
				})
			}
		case proto.TypeGoodbye:
			proto.Release(m)
			return
		default:
			proto.Release(m)
			_ = ch.Send(&proto.Message{Type: proto.TypeError, Err: "unsupported signalling message"})
		}
	}
}

// JoinSignal connects a peer to the signalling relay over ch: it sends the
// join message and waits for the acknowledgement.
func JoinSignal(ch *WSock, peerID string) error {
	return JoinSignalServing(ch, peerID, nil)
}

// JoinSignalServing is JoinSignal for a master: the join advertises the
// processing functions the master serves, registering it for pool-mode
// assignment of anonymous volunteers.
func JoinSignalServing(ch *WSock, peerID string, functions []string) error {
	if err := ch.Send(&proto.Message{Type: proto.TypeJoin, Peer: peerID, Functions: functions}); err != nil {
		return err
	}
	m, err := ch.Recv()
	if err != nil {
		return err
	}
	defer proto.Release(m)
	if m.Type == proto.TypeError {
		return fmt.Errorf("transport: join rejected: %s", m.Err)
	}
	if m.Type != proto.TypeWelcome {
		return fmt.Errorf("transport: unexpected join reply %q", m.Type)
	}
	return nil
}
