package worker

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"pando/internal/netsim"
	"pando/internal/proto"
	"pando/internal/transport"
)

var regSeq atomic.Int64

func uniqueName() string { return fmt.Sprintf("worker-test-fn-%d", regSeq.Add(1)) }

func double(dst, b []byte) ([]byte, error) {
	var v int
	if err := json.Unmarshal(b, &v); err != nil {
		return nil, err
	}
	return strconv.AppendInt(dst, int64(v*2), 10), nil
}

func TestRegisterLookupRegistered(t *testing.T) {
	name := uniqueName()
	Register(name, double)
	h, ok := Lookup(name)
	if !ok {
		t.Fatal("registered function not found")
	}
	out, err := h(nil, []byte("21"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "42" {
		t.Fatalf("out = %s", out)
	}
	found := false
	for _, n := range Registered() {
		if n == name {
			found = true
		}
	}
	if !found {
		t.Fatal("Registered() missing the new function")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	name := uniqueName()
	Register(name, double)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register(name, double)
}

// fakeMaster speaks the master's side of the handshake on a channel.
func fakeMaster(t *testing.T, ch *transport.WSock, funcName string, inputs []int) <-chan []int {
	t.Helper()
	results := make(chan []int, 1)
	go func() {
		defer close(results)
		hello, err := ch.Recv()
		if err != nil {
			t.Error(err)
			return
		}
		if err := proto.CheckHello(hello); err != nil {
			t.Error(err)
			return
		}
		if err := ch.Send(&proto.Message{Type: proto.TypeWelcome, Func: funcName}); err != nil {
			t.Error(err)
			return
		}
		var got []int
		for i, v := range inputs {
			data, _ := json.Marshal(v)
			if err := ch.Send(&proto.Message{Type: proto.TypeInput, Seq: uint64(i + 1), Data: data}); err != nil {
				t.Error(err)
				return
			}
			m, err := ch.Recv()
			if err != nil {
				return // crash path: deliver what we have
			}
			if m.Type == proto.TypeResult && m.Err == "" {
				var r int
				_ = json.Unmarshal(m.Data, &r)
				got = append(got, r)
			}
		}
		_ = ch.Send(&proto.Message{Type: proto.TypeGoodbye})
		results <- got
	}()
	return results
}

func TestVolunteerServesRegisteredFunction(t *testing.T) {
	name := uniqueName()
	Register(name, double)
	p := netsim.NewPipe(netsim.Loopback)
	defer p.Cut()
	cfg := transport.Config{HeartbeatInterval: -1}
	masterCh := transport.NewWSock(p.A, cfg)
	results := fakeMaster(t, masterCh, name, []int{1, 2, 3})

	v := &Volunteer{Name: "dev", Channel: cfg, CrashAfter: -1}
	if err := v.JoinWS(p.B); err != nil {
		t.Fatal(err)
	}
	got := <-results
	if len(got) != 3 || got[0] != 2 || got[2] != 6 {
		t.Fatalf("got %v", got)
	}
	if v.Processed() != 3 {
		t.Fatalf("processed = %d", v.Processed())
	}
}

func TestVolunteerUnknownFunction(t *testing.T) {
	p := netsim.NewPipe(netsim.Loopback)
	defer p.Cut()
	cfg := transport.Config{HeartbeatInterval: -1}
	masterCh := transport.NewWSock(p.A, cfg)
	go fakeMaster(t, masterCh, "no-such-function-anywhere", nil)

	v := &Volunteer{Name: "dev", Channel: cfg, CrashAfter: -1}
	err := v.JoinWS(p.B)
	if err == nil {
		t.Fatal("join succeeded with unknown function")
	}
}

func TestVolunteerCrashInjection(t *testing.T) {
	name := uniqueName()
	Register(name, double)
	p := netsim.NewPipe(netsim.Loopback)
	defer p.Cut()
	cfg := transport.Config{HeartbeatInterval: 20 * time.Millisecond}
	masterCh := transport.NewWSock(p.A, cfg)
	results := fakeMaster(t, masterCh, name, []int{1, 2, 3, 4, 5, 6})

	v := &Volunteer{Name: "dev", Channel: cfg, CrashAfter: 2}
	err := v.JoinWS(p.B)
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	got := <-results
	if len(got) > 2 {
		t.Fatalf("master received %d results from a volunteer that crashed after 2", len(got))
	}
	if v.Processed() != 2 {
		t.Fatalf("processed = %d, want 2", v.Processed())
	}
}

func TestVolunteerHandlerOverride(t *testing.T) {
	// A Handler set directly bypasses the registry entirely.
	p := netsim.NewPipe(netsim.Loopback)
	defer p.Cut()
	cfg := transport.Config{HeartbeatInterval: -1}
	masterCh := transport.NewWSock(p.A, cfg)
	results := fakeMaster(t, masterCh, "whatever-name", []int{10})

	v := &Volunteer{Name: "dev", Channel: cfg, CrashAfter: -1, Handler: double}
	if err := v.JoinWS(p.B); err != nil {
		t.Fatal(err)
	}
	got := <-results
	if len(got) != 1 || got[0] != 20 {
		t.Fatalf("got %v", got)
	}
}

func TestVolunteerDelaySlowsProcessing(t *testing.T) {
	name := uniqueName()
	Register(name, double)
	p := netsim.NewPipe(netsim.Loopback)
	defer p.Cut()
	cfg := transport.Config{HeartbeatInterval: -1}
	masterCh := transport.NewWSock(p.A, cfg)
	results := fakeMaster(t, masterCh, name, []int{1, 2, 3})

	v := &Volunteer{Name: "dev", Channel: cfg, CrashAfter: -1, Delay: 20 * time.Millisecond}
	start := time.Now()
	if err := v.JoinWS(p.B); err != nil {
		t.Fatal(err)
	}
	<-results
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Fatalf("3 items with 20ms delay took %v, want >= 60ms", elapsed)
	}
}

func TestJoinURLBadURL(t *testing.T) {
	v := &Volunteer{CrashAfter: -1}
	dial := func(addr string) (net.Conn, error) { return nil, errors.New("nope") }
	if err := v.JoinURL("http://127.0.0.1:1/", dial); err == nil {
		t.Fatal("expected error for unreachable URL")
	}
}

func TestServeWithReconnectCompletesGracefully(t *testing.T) {
	v := &Volunteer{CrashAfter: -1}
	calls := 0
	err := ServeWithReconnect(context.Background(), v, ReconnectConfig{}, func() error {
		calls++
		return nil // graceful completion on first join
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d", calls)
	}
}

func TestServeWithReconnectRetriesThenExhausts(t *testing.T) {
	v := &Volunteer{CrashAfter: -1}
	calls := 0
	err := ServeWithReconnect(context.Background(), v,
		ReconnectConfig{InitialBackoff: time.Millisecond, MaxAttempts: 3},
		func() error {
			calls++
			return errors.New("join failed")
		})
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestServeWithReconnectContextCancel(t *testing.T) {
	v := &Volunteer{CrashAfter: -1}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	err := ServeWithReconnect(ctx, v, ReconnectConfig{InitialBackoff: 5 * time.Millisecond}, func() error {
		return errors.New("always failing")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestServeWithReconnectResetsAfterProgress(t *testing.T) {
	// Joins that made progress reset the failure counter: with
	// MaxAttempts 2, alternating work/failure must not exhaust.
	name := uniqueName()
	Register(name, double)
	v := &Volunteer{Name: "dev", Channel: transport.Config{HeartbeatInterval: -1}, CrashAfter: -1}

	round := 0
	err := ServeWithReconnect(context.Background(), v,
		ReconnectConfig{InitialBackoff: time.Millisecond, MaxAttempts: 2},
		func() error {
			round++
			if round >= 4 {
				return nil // deployment completed
			}
			// Simulate a working period: a master that sends one input,
			// reads the result, then severs the link (never a goodbye).
			p := netsim.NewPipe(netsim.Loopback)
			masterCh := transport.NewWSock(p.A, transport.Config{HeartbeatInterval: 20 * time.Millisecond})
			go func() {
				defer p.Cut()
				if _, err := masterCh.Recv(); err != nil { // hello
					return
				}
				if err := masterCh.Send(&proto.Message{Type: proto.TypeWelcome, Func: name}); err != nil {
					return
				}
				data, _ := json.Marshal(round)
				if err := masterCh.Send(&proto.Message{Type: proto.TypeInput, Seq: 1, Data: data}); err != nil {
					return
				}
				_, _ = masterCh.Recv() // the result
			}()
			err := v.JoinWS(p.B)
			if err == nil {
				return errors.New("link severed")
			}
			return err
		})
	if err != nil {
		t.Fatalf("err = %v; progress should keep resetting the budget", err)
	}
	if v.Processed() < 3 {
		t.Fatalf("processed = %d across reconnects, want >= 3", v.Processed())
	}
}

func TestReconnectWSAgainstRealMaster(t *testing.T) {
	// Full loop: the volunteer crashes repeatedly (CrashAfter) but keeps
	// rejoining until the master's stream completes.
	name := uniqueName()
	Register(name, double)
	// a fresh volunteer per life would reset CrashAfter; share one with a
	// rolling crash threshold instead
	v := &Volunteer{Name: "lazarus", Channel: transport.Config{HeartbeatInterval: 25 * time.Millisecond}, CrashAfter: 5}

	ln := netsim.NewListener("reconnect-master", netsim.LAN)
	defer ln.Close()

	masterDone := make(chan []int, 1)
	go func() {
		// Minimal master loop: accept successive volunteer lives and feed
		// them the remaining inputs.
		var got []int
		next := 1
		for next <= 12 {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			ch := transport.NewWSock(conn, transport.Config{HeartbeatInterval: 25 * time.Millisecond})
			var remaining []int
			for i := next; i <= 12; i++ {
				remaining = append(remaining, i)
			}
			results := fakeMaster(t, ch, name, remaining)
			if rs, ok := <-results; ok {
				got = append(got, rs...)
				next += len(rs)
			} else {
				// Crashed mid-stream: count what the volunteer confirmed.
				next = 1 + v.Processed()
				got = got[:0]
				for i := 1; i <= v.Processed(); i++ {
					got = append(got, i*2)
				}
			}
		}
		masterDone <- got
	}()

	go func() {
		dial := func(string) (net.Conn, error) {
			c, _, err := ln.Dial()
			return c, err
		}
		// Raise the crash threshold on every life so each rejoin does a
		// bit more work before crashing again.
		ServeWithReconnect(context.Background(), v,
			ReconnectConfig{InitialBackoff: 5 * time.Millisecond},
			func() error {
				v.mu.Lock()
				v.CrashAfter = v.processed + 5
				v.mu.Unlock()
				conn, err := dial("")
				if err != nil {
					return err
				}
				return v.JoinWS(conn)
			})
	}()

	select {
	case got := <-masterDone:
		if len(got) < 12 {
			t.Fatalf("master collected %d results, want 12", len(got))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reconnecting volunteer never completed the stream")
	}
}
