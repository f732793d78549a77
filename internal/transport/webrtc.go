package transport

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"

	"pando/internal/proto"
)

// This file implements the WebRTC-like bootstrap of the paper's
// architecture (Figure 7): the signalling of possible connection endpoints
// between peers is done through a Public Server over a separate WebSocket
// connection, a direct peer connection is then established, and the
// signalling connection closes once the direct connection exists.
//
// Compared to real ICE we exchange a single host candidate (the answering
// peer's listen address) plus a session nonce; NAT traversal is modelled
// by the answering side being the one that must be reachable — volunteers
// behind NAT always dial out, exactly the property WebRTC gave the paper.

// RTCAnswerer accepts WebRTC-like connections: it answers offers arriving
// on its signalling channel with its own candidate address and then
// matches inbound direct connections to the offer by nonce.
type RTCAnswerer struct {
	signal *WSock
	acc    Acceptor
	cfg    Config

	mu      sync.Mutex
	pending map[string]chan Channel // nonce -> delivery
	closed  bool

	// wg tracks the signal/accept loops and per-connection establishment
	// goroutines; incoming closes once they all exit, so range loops over
	// Incoming() (master ServeRTC) terminate after Close instead of
	// leaking.
	wg sync.WaitGroup

	// Incoming delivers fully established peer channels.
	incoming chan *WSock
}

// NewRTCAnswerer starts answering offers received on signal, instructing
// peers to connect directly to acc's address. The caller must already have
// joined the signalling relay (JoinSignal). Established channels are
// delivered on Incoming(), which closes after Close (or after both the
// signalling channel and the acceptor fail).
func NewRTCAnswerer(signal *WSock, acc Acceptor, cfg Config) *RTCAnswerer {
	a := &RTCAnswerer{
		signal:   signal,
		acc:      acc,
		cfg:      cfg,
		pending:  make(map[string]chan Channel),
		incoming: make(chan *WSock, 16),
	}
	a.wg.Add(2)
	go func() { defer a.wg.Done(); a.signalLoop() }()
	go func() { defer a.wg.Done(); a.acceptLoop() }()
	go func() { a.wg.Wait(); close(a.incoming) }()
	return a
}

// Incoming delivers established peer channels. The channel closes once
// the answerer stops (Close, or signalling and acceptor both gone).
func (a *RTCAnswerer) Incoming() <-chan *WSock { return a.incoming }

// Close stops answering.
func (a *RTCAnswerer) Close() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	a.mu.Unlock()
	a.signal.Close()
	a.acc.Close()
}

func (a *RTCAnswerer) signalLoop() {
	for {
		m, err := a.signal.Recv()
		if err != nil {
			return
		}
		if m.Type != proto.TypeOffer {
			proto.Release(m)
			continue
		}
		peer := m.Peer
		proto.Release(m)
		nonce := newNonce()
		ch := make(chan Channel, 1)
		a.mu.Lock()
		a.pending[nonce] = ch
		a.mu.Unlock()
		// Answer with our host candidate and the session nonce.
		_ = a.signal.Send(&proto.Message{
			Type:  proto.TypeAnswer,
			To:    peer,
			Addr:  a.acc.Addr().String(),
			Token: nonce,
		})
	}
}

func (a *RTCAnswerer) acceptLoop() {
	for {
		conn, err := a.acc.Accept()
		if err != nil {
			return
		}
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			ch := NewWSock(conn, a.cfg)
			m, err := ch.Recv()
			if err != nil {
				ch.Close()
				return
			}
			if m.Type != proto.TypeCandidate || m.Token == "" {
				proto.Release(m)
				ch.Close()
				return
			}
			token := m.Token
			proto.Release(m)
			a.mu.Lock()
			deliver, ok := a.pending[token]
			delete(a.pending, token)
			a.mu.Unlock()
			if !ok {
				ch.Close()
				return
			}
			// Confirm establishment to the peer.
			if err := ch.Send(&proto.Message{Type: proto.TypeWelcome}); err != nil {
				ch.Close()
				return
			}
			deliver <- ch
			select {
			case a.incoming <- ch:
			default:
				// Receiver gone; drop.
				ch.Close()
			}
		}()
	}
}

// RTCOfferServing establishes a WebRTC-like direct channel to remoteID:
// it sends an offer through the signalling channel, receives the answer's
// candidate address and nonce, dials the candidate directly, and proves
// the session with the nonce. On success the signalling channel is
// closed, as in the paper ("That connection closes after the WebRTC
// connection is established").
//
// An empty remoteID is the pool-mode bootstrap: the relay assigns a
// registered master (see SignalServer.EnablePool) and the answer from
// whichever master it picked is accepted. functions, when non-nil, rides
// on the offer so the relay can prefer masters serving them.
func RTCOfferServing(signal *WSock, selfID, remoteID string, functions []string, dial Dialer, cfg Config) (*WSock, error) {
	if err := signal.Send(&proto.Message{Type: proto.TypeOffer, To: remoteID, Peer: selfID, Functions: functions}); err != nil {
		return nil, fmt.Errorf("transport: send offer: %w", err)
	}
	var addr, nonce string
	for {
		m, err := signal.Recv()
		if err != nil {
			return nil, fmt.Errorf("transport: awaiting answer: %w", err)
		}
		if m.Type == proto.TypeError {
			rerr := fmt.Errorf("transport: signalling error: %s", m.Err)
			proto.Release(m)
			return nil, rerr
		}
		if m.Type == proto.TypeAnswer && (remoteID == "" || m.Peer == remoteID) {
			addr, nonce = m.Addr, m.Token
			proto.Release(m)
			break
		}
		// Unrelated signalling traffic (stale answers, candidates for
		// other sessions): drop the frame and keep waiting.
		proto.Release(m)
	}

	conn, err := dial(addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial candidate %q: %w", addr, err)
	}
	ch := NewWSock(conn, cfg)
	if err := ch.Send(&proto.Message{Type: proto.TypeCandidate, Token: nonce, Peer: selfID}); err != nil {
		ch.Close()
		return nil, err
	}
	m, err := ch.Recv()
	if err != nil {
		ch.Close()
		return nil, fmt.Errorf("transport: establishment: %w", err)
	}
	if m.Type != proto.TypeWelcome {
		rerr := fmt.Errorf("transport: unexpected establishment reply %q", m.Type)
		proto.Release(m)
		ch.Close()
		return nil, rerr
	}
	proto.Release(m)
	// Direct connection established: the signalling connection closes.
	signal.Close()
	return ch, nil
}

func newNonce() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; fall back to a
		// fixed nonce only to keep the bootstrap total.
		return "fallback-nonce"
	}
	return hex.EncodeToString(b[:])
}
