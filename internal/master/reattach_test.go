package master

import (
	"net"
	"sync"
	"testing"
	"time"

	"pando/internal/netsim"
	"pando/internal/pullstream"
	"pando/internal/sched"
	"pando/internal/transport"
	"pando/internal/worker"
)

// TestReattachDoesNotInheritStaleFlowState is the rejoin-severing
// regression test: a worker whose link stalls (no error, no heartbeat —
// the partial-synchrony worst case) reconnects under the same name via
// ServeWithReconnect. The reattached worker must not inherit the departed
// controller's stale EWMA round-trip and credit window: the rejoin hello
// (incarnation > 0, same instance token) makes the pool sever the
// half-open session immediately, so its controller detaches, its
// in-flight values re-lend, and the per-name flow state is the fresh
// controller's alone.
//
// Without the severing, this test fails twice over: the per-name flow
// rows stay doubled (stale window + fresh window) for as long as the
// master's own failure detector stays silent — here forever, heartbeats
// are disabled master-side — and the two values stuck on the stalled
// link are never re-lent, deadlocking the stream short of completion.
func TestReattachDoesNotInheritStaleFlowState(t *testing.T) {
	const n = 400
	cfg := Config{
		FuncName: "reattach-square",
		// The master never suspects the stall on its own: no pings, no
		// read deadline. Only the rejoin hello can save it.
		Channel: transport.Config{HeartbeatInterval: -1},
		Flow:    sched.Policy{Min: 1, Max: 8},
	}
	m := New[int, int](cfg, transport.JSONCodec[int]{}, transport.JSONCodec[int]{})
	ln := netsim.NewListener("master-reattach", netsim.Loopback)
	defer ln.Close()
	go m.ServeWS(ln)

	var pmu sync.Mutex
	var pipes []*netsim.Pipe
	dial := func(addr string) (net.Conn, error) {
		conn, pipe, err := ln.Dial()
		if err != nil {
			return nil, err
		}
		pmu.Lock()
		pipes = append(pipes, pipe)
		pmu.Unlock()
		return conn, nil
	}
	// The volunteer's own heartbeats detect the stall quickly and
	// ServeWithReconnect rejoins — same Volunteer instance, same name.
	// The per-item delay keeps the reattached worker busy for a few
	// hundred milliseconds, so the poll below observes the stream while it
	// is still running however fast the data plane gets.
	v := &worker.Volunteer{
		Name:       "w",
		Handler:    jsonSquare,
		Delay:      time.Millisecond,
		CrashAfter: -1,
		Channel:    transport.Config{HeartbeatInterval: 10 * time.Millisecond},
	}
	go func() {
		_ = worker.ServeWithReconnect(nil, v, worker.ReconnectConfig{
			InitialBackoff: 10 * time.Millisecond,
		}, func() error {
			conn, err := dial("master-reattach")
			if err != nil {
				return err
			}
			return v.JoinWS(conn)
		})
	}()

	out := m.Bind(pullstream.Count(n))
	outc, errc := pullstream.ToChan(out)

	consumed := 0
	for consumed < 100 {
		if _, ok := <-outc; !ok {
			t.Fatalf("stream ended after %d results", consumed)
		}
		consumed++
	}
	// Stall the first connection without erroring it: bytes freeze in
	// both directions, the TCP-level analogue of a suspended laptop.
	pmu.Lock()
	first := pipes[0]
	pmu.Unlock()
	first.Pause()

	// The reattached worker must appear as exactly one flow row — the
	// departed controller severed and detached — while the stream is
	// still running.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, _, subs, ended := m.engine.Stats()
		flows := m.engine.Flows()
		if subs >= 2 && ended >= 1 && len(flows) == 1 && flows[0].Name == "w" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stale session never severed: subs=%d ended=%d flows=%+v", subs, ended, flows)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// And the stream completes: the two values stuck on the stalled link
	// were re-lent to the fresh attachment.
	for consumed < n {
		if _, ok := <-outc; !ok {
			t.Fatalf("stream ended after %d results", consumed)
		}
		consumed++
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerReattachFreshController documents the sched-level
// contract the fix restores: detach-then-reattach under the same name
// yields a controller with no inherited window or round-trip state.
func TestSchedulerReattachFreshController(t *testing.T) {
	s := sched.New(sched.Adaptive(1, 16), nil)
	c1 := s.Attach("w", nil)
	// Grow the first controller's window with steady round-trips (long
	// enough that scheduler jitter cannot read as congestion).
	for i := 0; i < 200 && c1.Window() < 2; i++ {
		if !c1.Acquire() {
			t.Fatal("acquire failed")
		}
		c1.Sent()
		time.Sleep(2 * time.Millisecond)
		c1.Result()
	}
	if c1.Window() <= 1 {
		t.Fatalf("first controller never grew: window %d", c1.Window())
	}
	s.Detach(c1)
	c2 := s.Attach("w", nil)
	defer s.Detach(c2)
	if got := c2.Window(); got != 1 {
		t.Fatalf("reattached controller window = %d, want the policy minimum 1 (no inheritance)", got)
	}
	flows := s.Flows()
	if len(flows) != 1 {
		t.Fatalf("flows = %+v, want exactly the fresh attachment", flows)
	}
	if flows[0].Rate != 0 {
		t.Fatalf("reattached controller inherited an EWMA rate: %v", flows[0].Rate)
	}
}
