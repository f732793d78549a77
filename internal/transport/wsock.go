package transport

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pando/internal/proto"
)

// WSock is the WebSocket-like channel: proto frames over a stream
// connection, with ping/pong heartbeats and deadline-based disconnection
// detection. It reproduces the two properties of RFC 6455 that Pando
// depends on — ordered reliable message delivery and heartbeat-based
// failure suspicion (paper §2.4.1).
type WSock struct {
	conn net.Conn
	// br makes the peer's coalesced writes coalesced reads: one Read takes
	// every frame of a vectored send, where a prefix and a body used to
	// cost a syscall (a rendezvous on netsim) each. Bodies larger than the
	// buffer bypass it, straight into their arena buffer.
	br *bufio.Reader

	wmu sync.Mutex // serializes frame writes
	// heard: a frame arrived since keepalive last looked. parked: the read
	// loop is handing a frame on (a full recvq, a blocked Route handler)
	// and not reading — back-pressure of ours, not silence of the peer's.
	heard, parked atomic.Bool
	// lastWrite is when the last write completed, in nanoseconds since
	// epoch: the keepalive pings only after a full interval without one.
	lastWrite atomic.Int64

	recvq chan *proto.Message

	// Route: once deliver is set the read loop hands frames to it instead
	// of recvq; dmu orders the switch against the read loop's queueing.
	dmu     sync.Mutex
	deliver atomic.Pointer[func(*proto.Message, error)]
	exited  bool // the read loop has returned (under dmu)

	wire proto.WireFormat // outgoing frame format

	mu     sync.Mutex
	err    error
	closed bool
	done   chan struct{}
}

var _ Channel = (*WSock)(nil)

// NewWSock wraps conn into a heartbeat-monitored message channel and
// starts its read and keepalive loops.
func NewWSock(conn net.Conn, cfg Config) *WSock {
	w := &WSock{
		conn:  conn,
		br:    bufio.NewReaderSize(conn, readBufSize),
		recvq: make(chan *proto.Message, 64),
		done:  make(chan struct{}),
	}
	go w.readLoop()
	if interval, timeout := cfg.interval(), cfg.timeout(); interval > 0 || timeout > 0 {
		go w.keepalive(interval, timeout)
	}
	return w
}

// readBufSize holds a credit window of small frames and is cheap enough to
// keep per connection of a large fleet.
const readBufSize = 4 << 10

// Send transmits one message.
func (w *WSock) Send(m *proto.Message) error {
	w.mu.Lock()
	if w.closed {
		err := w.err
		w.mu.Unlock()
		if err == nil {
			err = ErrChannelClosed
		}
		return err
	}
	w.mu.Unlock()

	w.wmu.Lock()
	defer w.wmu.Unlock()
	if err := w.wire.WriteFrame(w.conn, m); err != nil {
		w.fail(fmt.Errorf("transport: send: %w", err))
		return err
	}
	w.wrote()
	return nil
}

// epoch anchors lastWrite on the monotonic clock.
var epoch = time.Now()

// wrote records that a write completed.
func (w *WSock) wrote() { w.lastWrite.Store(int64(time.Since(epoch))) }

// SendBatch transmits several messages as a single write: the frames are
// encoded back to back into one arena buffer and handed to the kernel in
// one syscall, amortizing per-frame write overhead across the batch (the
// vectored-write half of the zero-alloc hot path; the coalescing duplex
// decides what lands in a batch). The batch occupies the write lock once,
// so it is atomic with respect to concurrent Sends, and frame order is
// preserved.
func (w *WSock) SendBatch(ms []*proto.Message) error {
	if len(ms) == 0 {
		return nil
	}
	if len(ms) == 1 {
		return w.Send(ms[0])
	}
	w.mu.Lock()
	if w.closed {
		err := w.err
		w.mu.Unlock()
		if err == nil {
			err = ErrChannelClosed
		}
		return err
	}
	w.mu.Unlock()

	size := 0
	for _, m := range ms {
		size += len(m.Data) + 160
	}
	buf := proto.GetBuf(size)
	var err error
	for _, m := range ms {
		if buf, err = w.wire.AppendFrame(buf, m); err != nil {
			proto.PutBuf(buf)
			return err
		}
	}

	w.wmu.Lock()
	defer w.wmu.Unlock()
	_, err = w.conn.Write(buf)
	proto.PutBuf(buf)
	if err != nil {
		err = fmt.Errorf("transport: send batch: %w", err)
		w.fail(err)
		return err
	}
	w.wrote()
	return nil
}

// Recv returns the next non-heartbeat message: the handshake's and the
// signalling's reads, before the data plane routes the channel.
func (w *WSock) Recv() (*proto.Message, error) {
	select {
	case m, ok := <-w.recvq:
		if !ok {
			return nil, w.Err()
		}
		return m, nil
	case <-w.done:
		// Drain anything queued before the failure.
		select {
		case m, ok := <-w.recvq:
			if ok {
				return m, nil
			}
		default:
		}
		return nil, w.Err()
	}
}

// Err returns the terminal error of the channel, if any.
func (w *WSock) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	return ErrChannelClosed
}

// Close shuts the channel down gracefully.
func (w *WSock) Close() error {
	w.fail(ErrChannelClosed)
	return nil
}

// RemoteAddr describes the peer.
func (w *WSock) RemoteAddr() string {
	if a := w.conn.RemoteAddr(); a != nil {
		return a.String()
	}
	return "unknown"
}

func (w *WSock) fail(err error) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.err = err
	close(w.done)
	w.mu.Unlock()
	w.conn.Close()
}

// Route implements Channel. Frames Recv had not taken go first, on the
// caller's goroutine. While h runs nothing is read: back-pressure, which
// the keepalive does not count as silence. Recv must not follow Route.
func (w *WSock) Route(h func(*proto.Message, error)) {
	w.dmu.Lock()
	w.flushLocked(h)
	exited := w.exited
	if !exited {
		w.deliver.Store(&h)
	}
	w.dmu.Unlock()
	if exited {
		h(nil, w.Err())
	}
}

// flushLocked hands h whatever recvq holds. Caller holds dmu.
func (w *WSock) flushLocked(h func(*proto.Message, error)) {
	for {
		select {
		case m, ok := <-w.recvq:
			if !ok {
				return
			}
			h(m, nil)
		default:
			return
		}
	}
}

// dispatch passes one data frame on, to the Route handler or to recvq. It
// reports false when the channel shut down first.
func (w *WSock) dispatch(m *proto.Message) bool {
	if h := w.deliver.Load(); h != nil {
		(*h)(m, nil)
		return true
	}
	select {
	case w.recvq <- m:
	case <-w.done:
		proto.Release(m) // no consumer will: back to the arena
		return false
	}
	// Route may have flushed and switched while m waited for room; then m
	// is this loop's to hand over.
	w.dmu.Lock()
	if h := w.deliver.Load(); h != nil {
		w.flushLocked(*h)
	}
	w.dmu.Unlock()
	return true
}

func (w *WSock) readLoop() {
	defer func() {
		w.dmu.Lock()
		w.exited = true
		h := w.deliver.Load()
		w.dmu.Unlock()
		close(w.recvq)
		if h != nil {
			(*h)(nil, w.Err())
		}
	}()
	for {
		m, err := proto.ReadFrame(w.br)
		if err != nil {
			w.fail(err)
			return
		}
		if !w.heard.Load() {
			w.heard.Store(true)
		}
		switch m.Type {
		case proto.TypePing:
			proto.Release(m)
			_ = w.Send(&proto.Message{Type: proto.TypePong})
		case proto.TypePong:
			proto.Release(m)
		default:
			w.parked.Store(true)
			ok := w.dispatch(m)
			w.heard.Store(true) // the silence bound restarts once we read again
			w.parked.Store(false)
			if !ok {
				return
			}
		}
	}
}

// keepalive sends the pings and is the failure detector. It wakes at
// least once per tick (the ping interval, or timeout/8 without pings),
// where every frame used to pay for a deadline reset on the conn.
//
// Every frame is a heartbeat, so a ping goes out only when nothing was
// written for a whole interval: the keepalive sleeps until the last
// completed write is an interval old, and a link that carries data or
// pongs carries no pings. The peer still hears a frame from us at least
// once per interval, and a pong answers each of its pings, so a peer that
// does not ping stays alive on our pongs.
//
// Silence is a timer, not a read deadline: a deadline that expires
// between a frame and the wake that would have moved it kills a live
// peer, whereas the timer's handler can look at heard first. Each wake
// that heard a frame restarts the timer, so a peer that falls silent fails
// with ErrHeartbeatTimeout no earlier than timeout after its last frame
// and less than one tick later than that. Time the read loop spends parked
// on its consumer does not count: nothing was read, so nothing was missed.
//
// A stalled write is caught by the conn's write deadline, which each wake
// pushes timeout+tick ahead. The write completes no more, so within a
// tick the link is idle and the keepalive takes the write lock itself (for
// the ping) and stops waking: that write fails no earlier than timeout and
// at most two ticks later.
func (w *WSock) keepalive(interval, timeout time.Duration) {
	tick := interval
	if tick <= 0 {
		tick = max(timeout/8, time.Millisecond)
	}
	t := time.NewTimer(tick)
	defer t.Stop()
	var silence <-chan time.Time
	var timer *time.Timer
	if timeout > 0 {
		timer = time.NewTimer(timeout)
		defer timer.Stop()
		silence = timer.C
	}
	pushWriteDeadline := func() {
		if timeout > 0 {
			_ = w.conn.SetWriteDeadline(time.Now().Add(timeout + tick))
		}
	}
	pushWriteDeadline()
	for {
		select {
		case <-w.done:
			return
		case <-silence:
			// parked first: the read loop sets heard before it unparks.
			if parked := w.parked.Load(); !w.heard.Swap(false) && !parked {
				w.fail(ErrHeartbeatTimeout)
				return
			}
			timer.Reset(timeout)
			continue
		case <-t.C:
		}
		if timeout > 0 && w.heard.Swap(false) {
			timer.Reset(timeout)
		}
		pushWriteDeadline()
		next := tick
		if interval <= 0 {
			w.wmu.Lock() // wait out a write in progress, as a ping would
			w.wmu.Unlock()
		} else if idle := time.Since(epoch) - time.Duration(w.lastWrite.Load()); idle < interval {
			next = interval - idle // a frame went out: it was the heartbeat
		} else if err := w.Send(&proto.Message{Type: proto.TypePing}); err != nil {
			return
		}
		t.Reset(next)
	}
}
