package transport

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"pando/internal/netsim"
	"pando/internal/proto"
)

// tapConn records the type of every frame written through it. Each Write
// holds whole frames (one Send, or one SendBatch), so it decodes alone.
type tapConn struct {
	net.Conn
	mu    sync.Mutex
	types []proto.Type
}

func (c *tapConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if err != nil {
		return n, err
	}
	for r := bytes.NewReader(p); r.Len() > 0; {
		m, err := proto.ReadFrame(r)
		if err != nil {
			panic("tapConn: a write that is not whole frames: " + err.Error())
		}
		c.mu.Lock()
		c.types = append(c.types, m.Type)
		c.mu.Unlock()
		proto.Release(m)
	}
	return n, nil
}

// count reports how many frames of each given type were written.
func (c *tapConn) count(types ...proto.Type) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, got := range c.types {
		for _, want := range types {
			if got == want {
				n++
			}
		}
	}
	return n
}

// tappedPair is wsockPair with each end's writes recorded.
func tappedPair(t *testing.T, cfgA, cfgB Config) (a, b *WSock, ta, tb *tapConn) {
	t.Helper()
	p := netsim.NewPipe(netsim.Loopback)
	ta, tb = &tapConn{Conn: p.A}, &tapConn{Conn: p.B}
	a, b = NewWSock(ta, cfgA), NewWSock(tb, cfgB)
	t.Cleanup(func() {
		a.Close()
		b.Close()
		p.Cut()
	})
	return a, b, ta, tb
}

// exchange sends a frame each way and waits for both: neither end has
// suspected the other.
func exchange(t *testing.T, a, b *WSock) {
	t.Helper()
	for i, ends := range [][2]*WSock{{a, b}, {b, a}} {
		if err := ends[0].Send(&proto.Message{Type: proto.TypeInput, Seq: uint64(i + 1)}); err != nil {
			t.Fatalf("send %d: %v", i+1, err)
		}
		m, err := ends[1].Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i+1, err)
		}
		proto.Release(m)
	}
}

// TestWSockBusyLinkSendsNoPing: data frames are heartbeats. A frame goes
// each way every tenth of an interval for 20 intervals, and neither end
// writes a ping (a keepalive that pinged every interval wrote ~20 each).
func TestWSockBusyLinkSendsNoPing(t *testing.T) {
	const interval = 50 * time.Millisecond
	a, b, ta, tb := tappedPair(t, Config{HeartbeatInterval: interval}, Config{HeartbeatInterval: interval})
	go func() { // b echoes every frame
		for {
			m, err := b.Recv()
			if err != nil {
				return
			}
			err = b.Send(m)
			proto.Release(m)
			if err != nil {
				return
			}
		}
	}()
	const n = 200
	for i := 1; i <= n; i++ {
		if err := a.Send(&proto.Message{Type: proto.TypeInput, Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		m, err := a.Recv()
		if err != nil {
			t.Fatalf("echo %d: %v", i, err)
		}
		proto.Release(m)
		time.Sleep(interval / 10)
	}
	if pa, pb := ta.count(proto.TypePing), tb.count(proto.TypePing); pa+pb > 0 {
		t.Fatalf("a busy link carried pings: %d from one end, %d from the other", pa, pb)
	}
}

// TestWSockIdleLinkHeartbeats: on an idle link each end writes a
// heartbeat about once per interval, and neither suspects the other. A
// pong counts: it is a write like any other, so the end that answers
// the other's pings need not ping itself.
func TestWSockIdleLinkHeartbeats(t *testing.T) {
	const interval, intervals = 20 * time.Millisecond, 10
	cfg := Config{HeartbeatInterval: interval}
	a, b, ta, tb := tappedPair(t, cfg, cfg)
	time.Sleep(intervals * interval)
	// A lone pinger writes one frame per interval and a little more; the
	// margin of two absorbs a late wake-up on a loaded host.
	for name, tap := range map[string]*tapConn{"a": ta, "b": tb} {
		if n := tap.count(proto.TypePing, proto.TypePong); n < intervals-2 {
			t.Errorf("end %s wrote %d heartbeats in %d intervals", name, n, intervals)
		}
	}
	exchange(t, a, b)
}

// TestWSockPingsDisabledPeerLivesOnPongs: an end with heartbeats off
// never pings, and its peer, which pings with a timeout of four
// intervals, keeps it alive on the pongs alone.
func TestWSockPingsDisabledPeerLivesOnPongs(t *testing.T) {
	const interval, intervals = 20 * time.Millisecond, 10
	quiet, pinger, tq, tp := tappedPair(t,
		Config{HeartbeatInterval: -1},
		Config{HeartbeatInterval: interval, HeartbeatTimeout: 4 * interval})
	time.Sleep(intervals * interval)
	if n := tq.count(proto.TypePing); n > 0 {
		t.Fatalf("the end with heartbeats off wrote %d pings", n)
	}
	if n := tp.count(proto.TypePing); n < intervals-2 {
		t.Fatalf("the pinging end wrote %d pings in %d intervals", n, intervals)
	}
	if n := tq.count(proto.TypePong); n < intervals-2 {
		t.Fatalf("the end with heartbeats off wrote %d pongs in %d intervals", n, intervals)
	}
	exchange(t, quiet, pinger)
}
