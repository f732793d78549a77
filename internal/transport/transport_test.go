package transport

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"pando/internal/netsim"
	"pando/internal/proto"
	"pando/internal/pullstream"
)

func wsockPair(t *testing.T, link netsim.Link, cfg Config) (*WSock, *WSock, *netsim.Pipe) {
	t.Helper()
	p := netsim.NewPipe(link)
	a := NewWSock(p.A, cfg)
	b := NewWSock(p.B, cfg)
	t.Cleanup(func() {
		a.Close()
		b.Close()
		p.Cut()
	})
	return a, b, p
}

// typedDuplex is MasterDuplex with each result frame decoded by out and
// released, as the master's emit stage decodes and releases it.
func typedDuplex[I, O any](ch Channel, in Codec[I], out Codec[O], meter Meter) pullstream.Duplex[I, O] {
	d := MasterDuplex(ch, in, meter)
	aliases := Aliases(out)
	return pullstream.Duplex[I, O]{Sink: d.Sink, Source: func(abort error, cb pullstream.Callback[O]) {
		d.Source(abort, func(end error, m *proto.Message) {
			var v O
			if end == nil {
				if v, end = out.Decode(m.Data); end == nil && aliases {
					m.Detach()
				}
				proto.Release(m)
			}
			cb(end, v)
		})
	}}
}

func TestWSockSendRecv(t *testing.T) {
	a, b, _ := wsockPair(t, netsim.Loopback, Config{HeartbeatInterval: -1})
	if err := a.Send(&proto.Message{Type: proto.TypeInput, Seq: 1, Data: []byte(`"x"`)}); err != nil {
		t.Fatal(err)
	}
	m, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != proto.TypeInput || m.Seq != 1 {
		t.Fatalf("got %+v", m)
	}
}

func TestWSockOrderPreserved(t *testing.T) {
	a, b, _ := wsockPair(t, netsim.LAN, Config{HeartbeatInterval: -1})
	const n = 50
	go func() {
		for i := uint64(1); i <= n; i++ {
			if err := a.Send(&proto.Message{Type: proto.TypeInput, Seq: i}); err != nil {
				return
			}
		}
	}()
	for i := uint64(1); i <= n; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Seq != i {
			t.Fatalf("out of order: got %d, want %d", m.Seq, i)
		}
	}
}

func TestWSockHeartbeatKeepsIdleChannelAlive(t *testing.T) {
	cfg := Config{HeartbeatInterval: 20 * time.Millisecond}
	a, b, _ := wsockPair(t, netsim.Loopback, cfg)
	// Stay idle for several timeouts; heartbeats must keep it alive.
	time.Sleep(300 * time.Millisecond)
	if err := a.Send(&proto.Message{Type: proto.TypeInput, Seq: 9}); err != nil {
		t.Fatal(err)
	}
	m, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Seq != 9 {
		t.Fatalf("got %+v", m)
	}
}

func TestWSockHeartbeatDetectsCrash(t *testing.T) {
	cfg := Config{HeartbeatInterval: 20 * time.Millisecond}
	a, _, pipe := wsockPair(t, netsim.Loopback, cfg)
	pipe.Cut() // crash-stop: the peer vanishes without goodbye
	_, err := a.Recv()
	if err == nil {
		t.Fatal("Recv succeeded after crash")
	}
}

func TestWSockHeartbeatTimeoutOnSilentPeer(t *testing.T) {
	// A peer that is reachable but completely silent (no pings) must be
	// suspected after the timeout.
	p := netsim.NewPipe(netsim.Loopback)
	defer p.Cut()
	a := NewWSock(p.A, Config{HeartbeatInterval: 20 * time.Millisecond, HeartbeatTimeout: 80 * time.Millisecond})
	defer a.Close()
	// p.B side never answers: we read its bytes to keep the pipe from
	// blocking but send nothing.
	go func() {
		buf := make([]byte, 4096)
		for {
			if _, err := p.B.Read(buf); err != nil {
				return
			}
		}
	}()
	start := time.Now()
	_, err := a.Recv()
	if !errors.Is(err, ErrHeartbeatTimeout) {
		t.Fatalf("err = %v, want ErrHeartbeatTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("detection took %v, want about the 80ms timeout", elapsed)
	}
}

func TestWSockSendAfterClose(t *testing.T) {
	a, _, _ := wsockPair(t, netsim.Loopback, Config{HeartbeatInterval: -1})
	a.Close()
	if err := a.Send(&proto.Message{Type: proto.TypePing}); err == nil {
		t.Fatal("Send succeeded on closed channel")
	}
}

func TestWSockConcurrentSenders(t *testing.T) {
	a, b, _ := wsockPair(t, netsim.Loopback, Config{HeartbeatInterval: -1})
	var wg sync.WaitGroup
	const senders, per = 8, 25
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := a.Send(&proto.Message{Type: proto.TypeInput}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	recvd := 0
	for recvd < senders*per {
		if _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
		recvd++
	}
	wg.Wait()
}

func TestSignalServerRelay(t *testing.T) {
	ln := netsim.NewListener("signal", netsim.Loopback)
	srv := NewSignalServer()
	go srv.Serve(ln, Config{HeartbeatInterval: -1})
	defer srv.Close()

	dial := func() *WSock {
		c, _, err := ln.Dial()
		if err != nil {
			t.Fatal(err)
		}
		return NewWSock(c, Config{HeartbeatInterval: -1})
	}

	alice := dial()
	bob := dial()
	if err := JoinSignal(alice, "alice"); err != nil {
		t.Fatal(err)
	}
	if err := JoinSignal(bob, "bob"); err != nil {
		t.Fatal(err)
	}

	if err := alice.Send(&proto.Message{Type: proto.TypeOffer, To: "bob", Addr: "somewhere"}); err != nil {
		t.Fatal(err)
	}
	m, err := bob.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != proto.TypeOffer || m.Peer != "alice" || m.Addr != "somewhere" {
		t.Fatalf("relayed message: %+v", m)
	}
}

func TestSignalServerUnknownPeer(t *testing.T) {
	ln := netsim.NewListener("signal", netsim.Loopback)
	srv := NewSignalServer()
	go srv.Serve(ln, Config{HeartbeatInterval: -1})
	defer srv.Close()

	c, _, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	alice := NewWSock(c, Config{HeartbeatInterval: -1})
	if err := JoinSignal(alice, "alice"); err != nil {
		t.Fatal(err)
	}
	if err := alice.Send(&proto.Message{Type: proto.TypeOffer, To: "ghost"}); err != nil {
		t.Fatal(err)
	}
	m, err := alice.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != proto.TypeError || !strings.Contains(m.Err, "ghost") {
		t.Fatalf("got %+v, want error about ghost", m)
	}
}

func TestSignalServerDuplicateID(t *testing.T) {
	ln := netsim.NewListener("signal", netsim.Loopback)
	srv := NewSignalServer()
	go srv.Serve(ln, Config{HeartbeatInterval: -1})
	defer srv.Close()

	c1, _, _ := ln.Dial()
	first := NewWSock(c1, Config{HeartbeatInterval: -1})
	if err := JoinSignal(first, "dup"); err != nil {
		t.Fatal(err)
	}
	c2, _, _ := ln.Dial()
	second := NewWSock(c2, Config{HeartbeatInterval: -1})
	if err := JoinSignal(second, "dup"); err == nil {
		t.Fatal("duplicate join accepted")
	}
}

// TestArchitectureBootstrapWebRTC reproduces the paper's Figure 7
// bootstrap: the master joins the public server, a volunteer joins, they
// exchange offer/answer through the relay, establish a direct connection,
// and the signalling connection closes.
func TestArchitectureBootstrapWebRTC(t *testing.T) {
	cfg := Config{HeartbeatInterval: -1}

	// Public server.
	signalLn := netsim.NewListener("public-server", netsim.WAN)
	srv := NewSignalServer()
	go srv.Serve(signalLn, cfg)
	defer srv.Close()

	// Master: direct listener + signalling registration.
	directLn := netsim.NewListener("master-direct", netsim.WAN)
	msc, _, err := signalLn.Dial()
	if err != nil {
		t.Fatal(err)
	}
	masterSignal := NewWSock(msc, cfg)
	if err := JoinSignal(masterSignal, "master"); err != nil {
		t.Fatal(err)
	}
	answerer := NewRTCAnswerer(masterSignal, directLn, cfg)
	defer answerer.Close()

	// Volunteer: joins the relay, offers, establishes direct connection.
	vsc, _, err := signalLn.Dial()
	if err != nil {
		t.Fatal(err)
	}
	volSignal := NewWSock(vsc, cfg)
	if err := JoinSignal(volSignal, "volunteer-1"); err != nil {
		t.Fatal(err)
	}
	dial := func(addr string) (net.Conn, error) {
		if addr != "master-direct" {
			return nil, fmt.Errorf("unexpected candidate %q", addr)
		}
		c, _, err := directLn.Dial()
		return c, err
	}
	volCh, err := RTCOfferServing(volSignal, "volunteer-1", "master", nil, dial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer volCh.Close()

	masterCh := <-answerer.Incoming()
	defer masterCh.Close()

	// Application data flows over the direct channel.
	if err := masterCh.Send(&proto.Message{Type: proto.TypeInput, Seq: 7, Data: []byte(`"frame-7"`)}); err != nil {
		t.Fatal(err)
	}
	m, err := volCh.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Seq != 7 {
		t.Fatalf("got %+v", m)
	}

	// The volunteer's signalling connection must be closed.
	if err := volSignal.Send(&proto.Message{Type: proto.TypeOffer, To: "master"}); err == nil {
		t.Fatal("signalling channel still open after establishment")
	}
}

// bytewise adapts a typed f to WorkerServe's handler: each input is
// decoded by in and each result appended to dst by out, as
// pando.CodecHandler does for volunteers.
func bytewise[I, O any](in Codec[I], out Codec[O], f func(I) (O, error)) func(dst, input []byte) ([]byte, error) {
	return func(dst, input []byte) ([]byte, error) {
		v, err := in.Decode(input)
		if err != nil {
			return nil, err
		}
		r, err := f(v)
		if err != nil {
			return nil, err
		}
		return AppendEncode(out, dst, r)
	}
}

// serveTyped runs WorkerServe with f, and the functions reassign resolves
// to, over typed values (bytewise).
func serveTyped[I, O any](ch Channel, in Codec[I], out Codec[O], f func(I) (O, error), reassign func(string) (func(I) (O, error), error)) error {
	var next func(string) (func(dst, input []byte) ([]byte, error), error)
	if reassign != nil {
		next = func(name string) (func(dst, input []byte) ([]byte, error), error) {
			nf, err := reassign(name)
			return bytewise(in, out, nf), err
		}
	}
	return WorkerServe(ch, bytewise(in, out, f), next)
}

func TestRawCodecPassThrough(t *testing.T) {
	c := RawCodec{}
	in := []byte(`{"x":1}`)
	enc, err := c.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := c.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if string(dec) != string(in) {
		t.Fatalf("round trip changed data: %s", dec)
	}
}

func TestMasterDuplexWorkerServeRoundTrip(t *testing.T) {
	cfg := Config{HeartbeatInterval: -1}
	p := netsim.NewPipe(netsim.LAN)
	defer p.Cut()
	masterCh := NewWSock(p.A, cfg)
	workerCh := NewWSock(p.B, cfg)

	go func() {
		err := serveTyped(workerCh, JSONCodec[int]{}, JSONCodec[int]{}, func(v int) (int, error) {
			return v * v, nil
		}, nil)
		if err != nil {
			t.Error(err)
		}
	}()

	d := typedDuplex[int, int](masterCh, JSONCodec[int]{}, JSONCodec[int]{}, nil)
	go d.Sink(pullstream.Count(100))
	got, err := pullstream.Collect(d.Source)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("got %d results, want 100", len(got))
	}
	for i, v := range got {
		if v != (i+1)*(i+1) {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestMasterDuplexWorkerApplicationError(t *testing.T) {
	cfg := Config{HeartbeatInterval: -1}
	p := netsim.NewPipe(netsim.Loopback)
	defer p.Cut()
	masterCh := NewWSock(p.A, cfg)
	workerCh := NewWSock(p.B, cfg)

	go serveTyped(workerCh, JSONCodec[int]{}, JSONCodec[int]{}, func(v int) (int, error) {
		if v == 3 {
			return 0, errors.New("render failed")
		}
		return v, nil
	}, nil)

	d := typedDuplex[int, int](masterCh, JSONCodec[int]{}, JSONCodec[int]{}, nil)
	go d.Sink(pullstream.Count(10))
	got, err := pullstream.Collect(d.Source)
	var werr *WorkerError
	if !errors.As(err, &werr) {
		t.Fatalf("err = %v, want WorkerError", err)
	}
	if len(got) != 2 {
		t.Fatalf("got %v, want 2 results before failure", got)
	}
}

func TestMasterDuplexWorkerCrash(t *testing.T) {
	cfg := Config{HeartbeatInterval: 20 * time.Millisecond}
	p := netsim.NewPipe(netsim.Loopback)
	masterCh := NewWSock(p.A, cfg)
	workerCh := NewWSock(p.B, cfg)

	go serveTyped(workerCh, JSONCodec[int]{}, JSONCodec[int]{}, func(v int) (int, error) {
		return v, nil
	}, nil)

	d := typedDuplex[int, int](masterCh, JSONCodec[int]{}, JSONCodec[int]{}, nil)
	go d.Sink(pullstream.Count(100))

	// Pull two results, then crash the link while values are in flight.
	pull := func() (int, error) {
		type ans struct {
			end error
			v   int
		}
		ch := make(chan ans, 1)
		d.Source(nil, func(end error, v int) { ch <- ans{end, v} })
		a := <-ch
		return a.v, a.end
	}
	for want := 1; want <= 2; want++ {
		v, end := pull()
		if end != nil {
			t.Fatalf("result %d: unexpected end %v", want, end)
		}
		if v != want {
			t.Fatalf("result = %d, want %d", v, want)
		}
	}
	p.Cut() // crash-stop while the worker still holds values

	deadline := time.After(5 * time.Second)
	for {
		errc := make(chan error, 1)
		go func() {
			_, end := pull()
			errc <- end
		}()
		select {
		case end := <-errc:
			if end != nil {
				return // failure detected, as required
			}
		case <-deadline:
			t.Fatal("crash never detected")
		}
	}
}

func TestWSockSurvivesTransientStall(t *testing.T) {
	// Partial synchrony (paper §2.3): a stall shorter than the heartbeat
	// timeout is not a crash — the channel must survive it and deliver
	// the delayed traffic afterwards.
	cfg := Config{HeartbeatInterval: 30 * time.Millisecond, HeartbeatTimeout: 400 * time.Millisecond}
	p := netsim.NewPipe(netsim.Loopback)
	defer p.Cut()
	a := NewWSock(p.A, cfg)
	b := NewWSock(p.B, cfg)
	defer a.Close()
	defer b.Close()

	// Traffic flows, then the link stalls briefly.
	if err := a.Send(&proto.Message{Type: proto.TypeInput, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	p.Pause()
	time.Sleep(150 * time.Millisecond) // well below the 400ms timeout
	p.Resume()

	if err := a.Send(&proto.Message{Type: proto.TypeInput, Seq: 2}); err != nil {
		t.Fatalf("send after stall: %v", err)
	}
	m, err := b.Recv()
	if err != nil {
		t.Fatalf("recv after stall: %v (stall was wrongly treated as a crash)", err)
	}
	if m.Seq != 2 {
		t.Fatalf("seq = %d", m.Seq)
	}
}

func TestWSockStallLongerThanTimeoutIsACrash(t *testing.T) {
	cfg := Config{HeartbeatInterval: 20 * time.Millisecond, HeartbeatTimeout: 80 * time.Millisecond}
	p := netsim.NewPipe(netsim.Loopback)
	defer p.Cut()
	a := NewWSock(p.A, cfg)
	defer a.Close()
	b := NewWSock(p.B, cfg)
	defer b.Close()

	p.Pause() // stall forever: must be suspected after the timeout
	start := time.Now()
	_, err := a.Recv()
	if err == nil {
		t.Fatal("channel survived an unbounded stall")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("detection took %v", elapsed)
	}
}

func TestSignalServerOnJoinHook(t *testing.T) {
	ln := netsim.NewListener("signal-hook", netsim.Loopback)
	srv := NewSignalServer()
	var mu sync.Mutex
	var joined []string
	srv.OnJoin = func(id string) {
		mu.Lock()
		joined = append(joined, id)
		mu.Unlock()
	}
	go srv.Serve(ln, Config{HeartbeatInterval: -1})
	defer srv.Close()

	dial := func() *WSock {
		c, _, err := ln.Dial()
		if err != nil {
			t.Fatal(err)
		}
		return NewWSock(c, Config{HeartbeatInterval: -1})
	}
	if err := JoinSignal(dial(), "alice"); err != nil {
		t.Fatal(err)
	}
	if err := JoinSignal(dial(), "bob"); err != nil {
		t.Fatal(err)
	}
	// A duplicate registration is refused and must not fire the hook.
	if err := JoinSignal(dial(), "alice"); err == nil {
		t.Fatal("duplicate join accepted")
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(joined)
		mu.Unlock()
		if n >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("OnJoin fired %d times, want 2", n)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(joined) != 2 || joined[0] != "alice" || joined[1] != "bob" {
		t.Fatalf("OnJoin saw %v, want [alice bob]", joined)
	}
}
