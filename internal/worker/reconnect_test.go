package worker

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"pando/internal/netsim"
	"pando/internal/proto"
	"pando/internal/transport"
)

// trackedConn wraps a net.Conn and records whether it was closed.
type trackedConn struct {
	net.Conn
	mu     sync.Mutex
	closed bool
}

func (c *trackedConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return c.Conn.Close()
}

func (c *trackedConn) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// joinVia is one join attempt for ServeWithReconnect: dial, then JoinWS.
func joinVia(v *Volunteer, dial transport.Dialer) func() error {
	return func() error {
		conn, err := dial("master")
		if err != nil {
			return err
		}
		return v.JoinWS(conn)
	}
}

// TestJoinWSClosesConnOnHandshakeRefusal: a master that refuses every
// handshake must not leak one socket per retry of a bounded MaxAttempts
// rejoin loop — JoinWS itself releases the conn it was handed.
func TestJoinWSClosesConnOnHandshakeRefusal(t *testing.T) {
	var mu sync.Mutex
	var dialed []*trackedConn

	dial := func(addr string) (net.Conn, error) {
		pipe := netsim.NewPipe(netsim.Loopback)
		// Refusing master: read the hello, reject, hang up.
		go func() {
			ch := transport.NewWSock(pipe.A, transport.Config{HeartbeatInterval: -1})
			if _, err := ch.Recv(); err != nil {
				return
			}
			_ = ch.Send(&proto.Message{Type: proto.TypeError, Err: "deployment full"})
			ch.Close()
		}()
		tc := &trackedConn{Conn: pipe.B}
		mu.Lock()
		dialed = append(dialed, tc)
		mu.Unlock()
		return tc, nil
	}

	v := &Volunteer{Name: "leaky?", Channel: transport.Config{HeartbeatInterval: -1}, CrashAfter: -1}
	err := ServeWithReconnect(context.Background(), v,
		ReconnectConfig{InitialBackoff: time.Millisecond, MaxAttempts: 4},
		joinVia(v, dial))
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(dialed) != 4 {
		t.Fatalf("dialed %d times, want 4", len(dialed))
	}
	deadline := time.Now().Add(2 * time.Second)
	for i, tc := range dialed {
		for !tc.isClosed() {
			if time.Now().After(deadline) {
				t.Fatalf("conn %d leaked: never closed after its join failed", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestJoinWSClosesConnOnDeadMaster: the same invariant when the failure
// is not a polite refusal but a peer that hangs up mid-handshake.
func TestJoinWSClosesConnOnDeadMaster(t *testing.T) {
	var mu sync.Mutex
	var dialed []*trackedConn

	dial := func(addr string) (net.Conn, error) {
		pipe := netsim.NewPipe(netsim.Loopback)
		go func() {
			// Accept the connection, then sever it without a word.
			time.Sleep(5 * time.Millisecond)
			pipe.Cut()
		}()
		tc := &trackedConn{Conn: pipe.B}
		mu.Lock()
		dialed = append(dialed, tc)
		mu.Unlock()
		return tc, nil
	}

	v := &Volunteer{Channel: transport.Config{HeartbeatInterval: -1}, CrashAfter: -1}
	err := ServeWithReconnect(context.Background(), v,
		ReconnectConfig{InitialBackoff: time.Millisecond, MaxAttempts: 2},
		joinVia(v, dial))
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	mu.Lock()
	defer mu.Unlock()
	deadline := time.Now().Add(2 * time.Second)
	for i, tc := range dialed {
		for !tc.isClosed() {
			if time.Now().After(deadline) {
				t.Fatalf("conn %d leaked after the peer died", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestServeWithReconnectCancelWhileJoinBlocked: cancelling the context
// while join is blocked (a master that never answers the handshake) must
// return ctx.Err() promptly, not wait for the join to time out.
func TestServeWithReconnectCancelWhileJoinBlocked(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	joined := make(chan struct{})
	v := &Volunteer{CrashAfter: -1}

	done := make(chan error, 1)
	go func() {
		done <- ServeWithReconnect(ctx, v, ReconnectConfig{}, func() error {
			close(joined)
			select {} // blocked forever: a handshake that never answers
		})
	}()
	<-joined
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("took %v to observe cancellation, want prompt return", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeWithReconnect never returned after cancellation")
	}
}
