package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"pando/internal/netsim"
	"pando/internal/proto"
	"pando/internal/pullstream"
	"pando/internal/race"
)

// scriptedConn is a net.Conn whose reads come from r, cut however r cuts
// them; writes vanish and Close ends the reads.
type scriptedConn struct {
	net.Conn // nil: the unimplemented methods are never called
	r        io.Reader
	closed   chan struct{}
	once     sync.Once
}

func newScriptedConn(r io.Reader) *scriptedConn {
	return &scriptedConn{r: r, closed: make(chan struct{})}
}

func (c *scriptedConn) Read(p []byte) (int, error) {
	select {
	case <-c.closed:
		return 0, net.ErrClosed
	default:
		return c.r.Read(p)
	}
}
func (c *scriptedConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *scriptedConn) Close() error                { c.once.Do(func() { close(c.closed) }); return nil }
func (c *scriptedConn) RemoteAddr() net.Addr        { return nil }

// frameStream encodes n data frames, alternating the raw writer and a
// compressing WireFormat (which deflates the payloads of 512 bytes and
// more), with payload sizes chosen by size.
func frameStream(t *testing.T, n int, size func(i int) int) (stream []byte, want [][]byte) {
	t.Helper()
	writers := []func(io.Writer, *proto.Message) error{proto.WriteFrame, new(proto.WireFormat).WriteFrame}
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		data := bytes.Repeat([]byte{byte('a' + i%26)}, size(i))
		if err := writers[i%len(writers)](&buf, &proto.Message{Type: proto.TypeInput, Seq: uint64(i + 1), Data: data}); err != nil {
			t.Fatal(err)
		}
		want = append(want, data)
	}
	return buf.Bytes(), want
}

// recvAll receives until the channel fails, checking order and payloads.
func recvAll(t *testing.T, w *WSock, want [][]byte) {
	t.Helper()
	for i, data := range want {
		m, err := w.Recv()
		if err != nil {
			t.Fatalf("frame %d of %d: %v", i+1, len(want), err)
		}
		if m.Seq != uint64(i+1) || !bytes.Equal(m.Data, data) {
			t.Fatalf("frame %d: seq %d, %d payload bytes; want seq %d, %d bytes", i+1, m.Seq, len(m.Data), i+1, len(data))
		}
		proto.Release(m)
	}
	if m, err := w.Recv(); err == nil {
		t.Fatalf("frame past the end of the stream: %+v", m)
	}
}

// TestWSockFramesSplitAtEveryByte feeds the read loop one byte per Read:
// every frame boundary, prefix and body is cut at every position.
func TestWSockFramesSplitAtEveryByte(t *testing.T) {
	stream, want := frameStream(t, 60, func(i int) int { return i * 37 % 700 })
	w := NewWSock(newScriptedConn(iotest.OneByteReader(bytes.NewReader(stream))), Config{HeartbeatInterval: -1})
	defer w.Close()
	recvAll(t, w, want)
}

// TestWSockManyFramesInOneRead is the coalesced case the buffer exists
// for: the whole stream is available to the first Read.
func TestWSockManyFramesInOneRead(t *testing.T) {
	stream, want := frameStream(t, 500, func(i int) int { return 7 })
	w := NewWSock(newScriptedConn(bytes.NewReader(stream)), Config{HeartbeatInterval: -1})
	defer w.Close()
	recvAll(t, w, want)
}

// TestWSockLargeFrameBehindSmallOne: a body far larger than the read
// buffer, right behind a frame that left part of it in the buffer.
func TestWSockLargeFrameBehindSmallOne(t *testing.T) {
	for _, chunk := range []int{1 << 20, 1000, 3} {
		stream, want := frameStream(t, 4, func(i int) int {
			if i == 2 {
				return 1 << 20
			}
			return 10
		})
		r := io.Reader(bytes.NewReader(stream))
		if chunk < 1<<20 {
			r = &chunkReader{r: r, n: chunk}
		}
		w := NewWSock(newScriptedConn(r), Config{HeartbeatInterval: -1})
		recvAll(t, w, want)
		w.Close()
	}
}

// chunkReader returns at most n bytes per Read.
type chunkReader struct {
	r io.Reader
	n int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}

// silentPeer keeps a pipe end drained without ever sending.
func silentPeer(conn net.Conn) {
	buf := make([]byte, 4096)
	for {
		if _, err := conn.Read(buf); err != nil {
			return
		}
	}
}

// TestWSockSilenceBounds pins the failure detector's window: a peer that
// stops talking is suspected no earlier than HeartbeatTimeout after its
// last frame and no later than one HeartbeatInterval after that (plus
// what a loaded test host adds).
func TestWSockSilenceBounds(t *testing.T) {
	const interval, timeout = 25 * time.Millisecond, 150 * time.Millisecond
	p := netsim.NewPipe(netsim.Loopback)
	defer p.Cut()
	a := NewWSock(p.A, Config{HeartbeatInterval: interval, HeartbeatTimeout: timeout})
	defer a.Close()
	go silentPeer(p.B)

	// The peer talks for a while (raw frames from its end), then stops.
	var lastFrame time.Time
	for i := 0; i < 8; i++ {
		if err := proto.WriteFrame(p.B, &proto.Message{Type: proto.TypeInput, Seq: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
		lastFrame = time.Now()
		m, err := a.Recv()
		if err != nil {
			t.Fatalf("chatty peer failed after %d frames: %v", i, err)
		}
		proto.Release(m)
		time.Sleep(timeout / 3) // stays well inside the timeout
	}
	_, err := a.Recv()
	silence := time.Since(lastFrame)
	if !errors.Is(err, ErrHeartbeatTimeout) {
		t.Fatalf("err = %v, want ErrHeartbeatTimeout", err)
	}
	if silence < timeout {
		t.Fatalf("suspected after %v of silence, before the %v timeout", silence, timeout)
	}
	if slack := 200 * time.Millisecond; silence > timeout+interval+slack {
		t.Fatalf("suspected after %v of silence, want at most timeout+interval = %v (+%v of scheduling slack)", silence, timeout+interval, slack)
	}
}

// TestWSockBusyVolunteerIsNotSilent: a volunteer whose f outlasts the
// timeout sends no result for a long time, and its read loop, running f,
// answers no ping meanwhile. Its own pings keep the master hearing it, and
// a read loop parked on its handler is not silence, so neither end
// suspects the other.
func TestWSockBusyVolunteerIsNotSilent(t *testing.T) {
	cfg := Config{HeartbeatInterval: 10 * time.Millisecond, HeartbeatTimeout: 40 * time.Millisecond}
	master, volunteer, _ := wsockPair(t, netsim.Loopback, cfg)
	served := make(chan error, 1)
	go func() {
		served <- WorkerServe(volunteer, func(dst, in []byte) ([]byte, error) {
			time.Sleep(6 * cfg.HeartbeatTimeout)
			return append(dst, in...), nil
		}, nil)
	}()
	if err := master.Send(&proto.Message{Type: proto.TypeInput, Seq: 1, Data: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	m, err := master.Recv()
	if err != nil {
		t.Fatalf("master suspected a busy volunteer: %v", err)
	}
	if m.Type != proto.TypeResult || string(m.Data) != "x" {
		t.Fatalf("got %+v", m)
	}
	proto.Release(m)
	if err := master.Send(&proto.Message{Type: proto.TypeGoodbye}); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("volunteer suspected its master while busy: %v", err)
	}
}

// TestWSockBusyVolunteerIsNotSilentRouted is the same with both
// ends' data planes routed: the master accepts results on its read loop
// (MasterDuplex) while pinging, and f outlasts the timeout twice in a row
// on the worker's read loop. Every result arrives, and both ends end
// cleanly.
func TestWSockBusyVolunteerIsNotSilentRouted(t *testing.T) {
	cfg := Config{HeartbeatInterval: 10 * time.Millisecond, HeartbeatTimeout: 40 * time.Millisecond}
	master, volunteer, _ := wsockPair(t, netsim.Loopback, cfg)
	served := make(chan error, 1)
	go func() {
		served <- serveTyped(volunteer, JSONCodec[int]{}, JSONCodec[int]{}, func(v int) (int, error) {
			time.Sleep(6 * cfg.HeartbeatTimeout)
			return v * 10, nil
		}, nil)
	}()
	d := typedDuplex[int, int](master, JSONCodec[int]{}, JSONCodec[int]{}, nil)
	go d.Sink(pullstream.Values(1, 2))
	got, err := pullstream.Collect(d.Source)
	if err != nil {
		t.Fatalf("master suspected a busy volunteer: %v", err)
	}
	if len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("results %v, want [10 20]", got)
	}
	if err := <-served; err != nil {
		t.Fatalf("volunteer suspected its master while busy: %v", err)
	}
}

// TestWSockSlowConsumerIsNotSilence: while the read loop is parked on its
// consumer — a full receive queue, a blocked Route handler — for longer
// than the timeout, a peer that keeps pinging is not suspected, and every
// frame it sent arrives once the consumer resumes. Over TCP, so the frames
// wait in socket buffers rather than in the writer.
func TestWSockSlowConsumerIsNotSilence(t *testing.T) {
	const n = 200 // several times the receive queue
	cfg := Config{HeartbeatInterval: 10 * time.Millisecond, HeartbeatTimeout: 50 * time.Millisecond}
	pause := 6 * cfg.HeartbeatTimeout
	for _, routed := range []bool{false, true} {
		name := "recv"
		if routed {
			name = "route"
		}
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Skipf("no loopback TCP: %v", err)
			}
			defer ln.Close()
			peer, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer peer.Close()
			conn, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			w := NewWSock(conn, cfg)
			defer w.Close()

			// The peer: n frames at once, then a ping per interval; pongs
			// and pings coming back are drained.
			go silentPeer(peer)
			go func() {
				for i := 0; i < n; i++ {
					if proto.WriteFrame(peer, &proto.Message{Type: proto.TypeInput, Seq: uint64(i + 1)}) != nil {
						return
					}
				}
				for proto.WriteFrame(peer, &proto.Message{Type: proto.TypePing}) == nil {
					time.Sleep(cfg.HeartbeatInterval)
				}
			}()

			got := make(chan *proto.Message)
			if routed {
				first := true
				go w.Route(func(m *proto.Message, _ error) {
					if first {
						first = false
						time.Sleep(pause)
					}
					got <- m
				})
			} else {
				go func() {
					time.Sleep(pause)
					for {
						m, _ := w.Recv()
						got <- m
						if m == nil {
							return
						}
					}
				}()
			}
			for i := 1; i <= n; i++ {
				m := <-got
				if m == nil {
					t.Fatalf("channel failed after %d of %d frames: %v", i-1, n, w.Err())
				}
				if m.Seq != uint64(i) {
					t.Fatalf("frame %d has seq %d", i, m.Seq)
				}
				proto.Release(m)
			}
			// Caught up: the pings alone keep it alive from here.
			select {
			case m := <-got:
				t.Fatalf("after the last frame: %+v, err %v", m, w.Err())
			case <-time.After(3 * cfg.HeartbeatTimeout):
			}
		})
	}
}

// TestWSockStalledWriteFails: a peer that stops draining its socket fails
// the writer within the detector's bound instead of wedging it — the
// write deadline is kept ahead by the keepalive ticks, not per send.
func TestWSockStalledWriteFails(t *testing.T) {
	a, b := net.Pipe() // b is never read: every write to a blocks
	defer b.Close()
	w := NewWSock(a, Config{HeartbeatInterval: 10 * time.Millisecond, HeartbeatTimeout: 50 * time.Millisecond})
	defer w.Close()
	start := time.Now()
	err := w.Send(&proto.Message{Type: proto.TypeInput, Seq: 1, Data: make([]byte, 64)})
	if err == nil {
		t.Fatal("a write nobody reads succeeded")
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond || elapsed > 2*time.Second {
		t.Fatalf("stalled write failed after %v, want about timeout + two ticks", elapsed)
	}
}

// TestWSockRouteDeliversInOrder switches a channel to direct delivery
// while frames are queued and more are arriving: the handler must see all
// of them exactly once, in order, then the nil that ends the channel.
func TestWSockRouteDeliversInOrder(t *testing.T) {
	const n = 400 // several times the receive queue
	a, b, _ := wsockPair(t, netsim.Loopback, Config{HeartbeatInterval: -1})
	go func() {
		for i := 0; i < n; i++ {
			if err := a.Send(&proto.Message{Type: proto.TypeInput, Seq: uint64(i + 1)}); err != nil {
				return
			}
		}
		a.Close()
	}()
	// Let the queue fill and the read loop block on it before routing.
	time.Sleep(20 * time.Millisecond)
	var next uint64
	ended := make(chan struct{})
	b.Route(func(m *proto.Message, _ error) {
		if m == nil {
			close(ended)
			return
		}
		next++
		if m.Seq != next {
			t.Errorf("routed seq %d, want %d", m.Seq, next)
		}
		proto.Release(m)
	})
	select {
	case <-ended:
	case <-time.After(5 * time.Second):
		t.Fatal("the end of the channel was never routed")
	}
	if next != n {
		t.Fatalf("routed %d frames, want %d", next, n)
	}
}

// TestWSockRouteAfterFailure: routing a channel that already failed
// still hands over what was queued, then the end.
func TestWSockRouteAfterFailure(t *testing.T) {
	stream, _ := frameStream(t, 3, func(int) int { return 5 })
	w := NewWSock(newScriptedConn(bytes.NewReader(stream)), Config{HeartbeatInterval: -1})
	for exited := false; !exited; runtime.Gosched() { // wait for the read loop to end at the EOF
		w.dmu.Lock()
		exited = w.exited
		w.dmu.Unlock()
	}
	var got []uint64
	ended := false
	w.Route(func(m *proto.Message, _ error) {
		if m == nil {
			ended = true
			return
		}
		got = append(got, m.Seq)
	})
	if !ended || len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("routed %v, ended %v; want [1 2 3] then the end", got, ended)
	}
}

// TestWSockRoundTripAllocs guards the frame path: on a fresh channel pair,
// with no setup, a send and its echo allocate nothing, heartbeats on
// (they used to cost a deadline reset, with its timer allocations, per
// frame).
func TestWSockRoundTripAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	near, far, _ := wsockPair(t, netsim.Loopback, Config{})
	go func() {
		for {
			m, err := far.Recv()
			if err != nil {
				return
			}
			err = far.Send(m)
			proto.Release(m)
			if err != nil {
				return
			}
		}
	}()
	msg := &proto.Message{Type: proto.TypeInput, Seq: 1, Data: []byte("1234567")}
	allocs := testing.AllocsPerRun(2000, func() {
		if err := near.Send(msg); err != nil {
			t.Fatal(err)
		}
		m, err := near.Recv()
		if err != nil {
			t.Fatal(err)
		}
		proto.Release(m)
	})
	if allocs > 0.5 {
		t.Fatalf("round trip allocates %.2f objects, want 0", allocs)
	}
}
