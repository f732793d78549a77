// Package transport provides the communication channels of Pando's
// architecture (paper Figure 7): a WebSocket-like framed message channel
// with heartbeats (wsock), a WebRTC-like peer connection bootstrapped
// through a public signalling server, and adapters exposing channels as
// pull-stream duplexes.
//
// Both channel flavours provide the heartbeat mechanism that Pando's
// fault-tolerance design leans on (paper §1, §2.4.1): a peer that misses
// heartbeats for longer than the timeout is suspected of having crashed
// and its channel fails with ErrHeartbeatTimeout, which the StreamLender
// turns into re-lending of the values that peer held.
//
// The data plane handles each frame on the goroutine that read it, as the
// paper's JavaScript handles each WebSocket message in its callback: Route
// runs a handler on the channel's read loop, where WorkerServe applies f
// and MasterDuplex accepts results. A handler never waits on a write (the
// peer may be waiting on its own, and neither end would read again):
// replies and blob fetches go through a send queue's goroutine.
package transport

import (
	"errors"
	"net"
	"time"

	"pando/internal/proto"
)

// Errors surfaced by channels.
var (
	// ErrHeartbeatTimeout reports a peer that stopped answering within
	// the failure-detection bound (partial synchrony, paper §2.3).
	ErrHeartbeatTimeout = errors.New("transport: heartbeat timeout")
	// ErrChannelClosed reports use of a closed channel.
	ErrChannelClosed = errors.New("transport: channel closed")
)

// Channel is a bidirectional, ordered, reliable message channel with
// failure detection — the abstraction shared by the WebSocket-like and
// WebRTC-like transports, the fleet's leases and the dedup wrappers.
type Channel interface {
	// Send transmits one message. It is safe for concurrent use.
	Send(m *proto.Message) error
	// Route hands every data frame to h, in arrival order, one call at a
	// time (pings and pongs are handled internally); after the last, h
	// gets (nil, err) once, err being the channel's end. h runs on the
	// read loop: while it runs nothing more is read, and it must never
	// wait on a write. Route is called once.
	Route(h func(m *proto.Message, err error))
	// Close shuts the channel down; the routed handler then gets its end.
	Close() error
	// RemoteAddr describes the peer, for diagnostics.
	RemoteAddr() string
}

// Config tunes a channel's liveness detection.
type Config struct {
	// HeartbeatInterval is the longest a channel stays quiet: it pings
	// once nothing was written on it for this long, so a busy link, whose
	// frames are heartbeats already, carries no pings. Zero selects the
	// default; negative disables pings (for tests), though pongs still
	// answer the peer's.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long a silent peer is tolerated. Zero
	// selects 3x the interval.
	HeartbeatTimeout time.Duration
}

// DefaultHeartbeatInterval is the default HeartbeatInterval.
const DefaultHeartbeatInterval = 250 * time.Millisecond

func (c Config) interval() time.Duration {
	if c.HeartbeatInterval == 0 {
		return DefaultHeartbeatInterval
	}
	return c.HeartbeatInterval
}

func (c Config) timeout() time.Duration {
	if c.HeartbeatTimeout > 0 {
		return c.HeartbeatTimeout
	}
	iv := c.interval()
	if iv <= 0 {
		return 0 // heartbeats disabled: no read deadline
	}
	return 3 * iv
}

// Dialer opens a raw connection to a candidate address. It abstracts over
// real TCP and the in-memory simulated network so the same bootstrap code
// runs in both.
type Dialer func(addr string) (net.Conn, error)

// Acceptor abstracts a listener (net.Listener or netsim.Listener).
type Acceptor interface {
	Accept() (net.Conn, error)
	Close() error
	Addr() net.Addr
}

// TCPDialer dials over the real network.
func TCPDialer(timeout time.Duration) Dialer {
	return func(addr string) (net.Conn, error) {
		return net.DialTimeout("tcp", addr, timeout)
	}
}
