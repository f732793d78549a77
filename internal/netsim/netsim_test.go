package netsim

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

func TestPipeBasicTransfer(t *testing.T) {
	p := NewPipe(Loopback)
	defer p.Cut()
	msg := []byte("hello pando")
	go func() {
		if _, err := p.A.Write(msg); err != nil {
			t.Error(err)
		}
	}()
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(p.B, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("got %q, want %q", buf, msg)
	}
}

func TestPipeBidirectional(t *testing.T) {
	p := NewPipe(Loopback)
	defer p.Cut()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		p.A.Write([]byte("ping"))
		buf := make([]byte, 4)
		io.ReadFull(p.A, buf)
		if string(buf) != "pong" {
			t.Errorf("A got %q", buf)
		}
	}()
	go func() {
		defer wg.Done()
		buf := make([]byte, 4)
		io.ReadFull(p.B, buf)
		if string(buf) != "ping" {
			t.Errorf("B got %q", buf)
		}
		p.B.Write([]byte("pong"))
	}()
	wg.Wait()
}

func TestPipeLatencyApplied(t *testing.T) {
	lat := 30 * time.Millisecond
	p := NewPipe(Link{Latency: lat})
	defer p.Cut()
	start := time.Now()
	go p.A.Write([]byte("x"))
	buf := make([]byte, 1)
	if _, err := io.ReadFull(p.B, buf); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < lat {
		t.Fatalf("delivery took %v, want >= %v", elapsed, lat)
	}
	if elapsed > 10*lat {
		t.Fatalf("delivery took %v, far more than latency %v", elapsed, lat)
	}
}

func TestPipePipeliningHidesLatency(t *testing.T) {
	// Two chunks sent back-to-back must arrive ~one latency apart from
	// the send time, not two: the link pipelines (this is the property
	// that batching exploits, paper §5.5).
	lat := 40 * time.Millisecond
	p := NewPipe(Link{Latency: lat})
	defer p.Cut()
	start := time.Now()
	go func() {
		p.A.Write([]byte("a"))
		p.A.Write([]byte("b"))
	}()
	buf := make([]byte, 1)
	io.ReadFull(p.B, buf)
	io.ReadFull(p.B, buf)
	elapsed := time.Since(start)
	if elapsed > lat+lat/2 {
		t.Fatalf("two chunks took %v; pipelining should deliver both in ~%v", elapsed, lat)
	}
}

func TestPipeBandwidthPacing(t *testing.T) {
	// 64 KiB over a 256 KiB/s link must take at least ~250ms.
	p := NewPipe(Link{Bandwidth: 256 << 10})
	defer p.Cut()
	payload := make([]byte, 64<<10)
	start := time.Now()
	go func() {
		p.A.Write(payload)
	}()
	buf := make([]byte, len(payload))
	if _, err := io.ReadFull(p.B, buf); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 200*time.Millisecond {
		t.Fatalf("64KiB over 256KiB/s took %v, want >= ~250ms", elapsed)
	}
}

func TestPipeCutFailsBothEnds(t *testing.T) {
	p := NewPipe(Loopback)
	done := make(chan error, 2)
	go func() {
		buf := make([]byte, 1)
		_, err := p.A.Read(buf)
		done <- err
	}()
	go func() {
		buf := make([]byte, 1)
		_, err := p.B.Read(buf)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	p.Cut()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("read succeeded after Cut")
			}
		case <-time.After(2 * time.Second):
			t.Fatal("read did not fail after Cut")
		}
	}
}

func TestPipeCloseOneEndPropagatesEOF(t *testing.T) {
	p := NewPipe(Loopback)
	defer p.Cut()
	p.A.Close()
	buf := make([]byte, 1)
	deadline := time.Now().Add(2 * time.Second)
	p.B.SetReadDeadline(deadline)
	if _, err := p.B.Read(buf); err == nil {
		t.Fatal("expected EOF after remote close")
	}
}

func TestListenerAcceptDial(t *testing.T) {
	ln := NewListener("master", Loopback)
	defer ln.Close()

	type acceptResult struct {
		c   io.ReadWriteCloser
		err error
	}
	acc := make(chan acceptResult, 1)
	go func() {
		c, err := ln.Accept()
		acc <- acceptResult{c, err}
	}()

	client, _, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	ar := <-acc
	if ar.err != nil {
		t.Fatal(ar.err)
	}
	go client.Write([]byte("hi"))
	buf := make([]byte, 2)
	if _, err := io.ReadFull(ar.c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hi" {
		t.Fatalf("got %q", buf)
	}
}

func TestListenerCloseSeversConnections(t *testing.T) {
	ln := NewListener("master", Loopback)
	go ln.Accept()
	client, _, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	buf := make([]byte, 1)
	client.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := client.Read(buf); err == nil {
		t.Fatal("read succeeded after listener close")
	}
	if _, _, err := ln.Dial(); err == nil {
		t.Fatal("dial succeeded after close")
	}
}

func TestPipeJitterDeterministic(t *testing.T) {
	// Two pipes with the same seed stamp the same delay sequence in each
	// direction, whether the other direction writes between its chunks or
	// only after them. With an hour of jitter, two different draws land
	// microseconds apart with negligible probability, so bracketing each
	// stamp by the clock around its Write pins the delay it drew.
	const n = 64
	type span struct{ lo, hi time.Duration }
	stamps := func(interleave bool) (ab, ba []span) {
		p := NewPipe(Link{Jitter: time.Hour, Seed: 7})
		defer p.Cut()
		write := func(c net.Conn, f *flow, out *[]span) {
			before := time.Now()
			if _, err := c.Write([]byte{1}); err != nil {
				t.Fatal(err)
			}
			after := time.Now()
			f.mu.Lock()
			at := f.q[len(f.q)-1].deliverAt
			f.mu.Unlock()
			*out = append(*out, span{at.Sub(after), at.Sub(before)})
		}
		for i := 0; i < n; i++ {
			write(p.A, &p.ab, &ab)
			if interleave {
				write(p.B, &p.ba, &ba)
			}
		}
		for len(ba) < n {
			write(p.B, &p.ba, &ba)
		}
		return ab, ba
	}
	ab1, ba1 := stamps(false)
	ab2, ba2 := stamps(true)
	for dir, runs := range [][2][]span{{ab1, ab2}, {ba1, ba2}} {
		distinct := map[time.Duration]bool{}
		for i := range runs[0] {
			x, y := runs[0][i], runs[1][i]
			if x.hi < y.lo || y.hi < x.lo {
				t.Fatalf("direction %d, chunk %d: delay in [%v, %v] alone, [%v, %v] interleaved", dir, i, x.lo, x.hi, y.lo, y.hi)
			}
			distinct[x.lo.Round(time.Second)] = true
		}
		if len(distinct) < n/2 {
			t.Fatalf("direction %d: %d distinct delays in %d chunks; jitter is not being drawn", dir, len(distinct), n)
		}
	}
}

func TestPipeWriteDeadlineOnFullPausedLink(t *testing.T) {
	p := NewPipe(Loopback)
	defer p.Cut()
	p.Pause()
	for i := 0; i < maxInFlight; i++ {
		if _, err := p.A.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	p.A.SetWriteDeadline(start.Add(50 * time.Millisecond))
	done := make(chan error, 1)
	go func() {
		_, err := p.A.Write([]byte("x"))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("write on a full link returned %v before its deadline", err)
	default:
	}
	// Moving the deadline applies to the Write already blocked.
	pushed := start.Add(250 * time.Millisecond)
	p.A.SetWriteDeadline(pushed)
	select {
	case err := <-done:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("blocked write returned %v, want os.ErrDeadlineExceeded", err)
		}
		if early := time.Until(pushed); early > 0 {
			t.Fatalf("blocked write gave up %v before its pushed-back deadline", early)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked write never hit its deadline")
	}
}

func TestPipeConcurrentWritesDoNotInterleave(t *testing.T) {
	// Each Write is several chunks; the chunks of two Writes never mix,
	// even when every writer has to wait for room chunk by chunk.
	const writers, size = 8, 100 << 10
	p := NewPipe(Loopback)
	defer p.Cut()
	p.Pause()
	for i := 0; i < maxInFlight; i++ {
		if _, err := p.A.Write([]byte{'-'}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.A.Write(bytes.Repeat([]byte{byte('a' + w)}, size)); err != nil {
				t.Error(err)
			}
		}()
	}
	p.Resume()
	got := make([]byte, maxInFlight+writers*size)
	p.B.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(p.B, got); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	got = got[maxInFlight:]
	seen := map[byte]bool{}
	for w := 0; w < writers; w++ {
		run := got[w*size : (w+1)*size]
		if bytes.Count(run, run[:1]) != size {
			t.Fatalf("write %d arrived interleaved with another", w)
		}
		seen[run[0]] = true
	}
	if len(seen) != writers {
		t.Fatalf("%d distinct writes arrived, want %d", len(seen), writers)
	}
}

func TestPipePeerWritesAfterCloseAreCounted(t *testing.T) {
	// A peer that vanished still lets the other end write, as a socket
	// does: the bytes enter the link, are counted, and go nowhere.
	p := NewPipe(Loopback)
	defer p.Cut()
	p.A.Close()
	for i := 0; i < 2*maxInFlight; i++ {
		if n, err := p.B.Write([]byte("late")); n != 4 || err != nil {
			t.Fatalf("write %d after the peer closed: %d, %v", i, n, err)
		}
	}
	if _, bToA := p.Bytes(); bToA != 8*maxInFlight {
		t.Fatalf("B→A carried %d bytes, want %d", bToA, 8*maxInFlight)
	}
	if _, err := p.B.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read from the closed peer: %v, want io.EOF", err)
	}
	if _, err := p.A.Write([]byte("x")); err != io.ErrClosedPipe {
		t.Fatalf("write on the closed end: %v, want io.ErrClosedPipe", err)
	}
}

func TestPipeCloseDeliversQueuedChunksBeforeEOF(t *testing.T) {
	// What an endpoint wrote before it closed still reaches the peer, in
	// full, and only then does the peer see io.EOF.
	p := NewPipe(Link{Latency: 5 * time.Millisecond})
	defer p.Cut()
	p.Pause()
	var want []byte
	for i := 0; i < 10; i++ {
		msg := bytes.Repeat([]byte{byte(i)}, 1000*i+1)
		if _, err := p.A.Write(msg); err != nil {
			t.Fatal(err)
		}
		want = append(want, msg...)
	}
	p.A.Close()
	p.Resume()
	got, err := io.ReadAll(p.B)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read %d bytes before EOF, want the %d written before Close", len(got), len(want))
	}
}

func TestListenerForgetsDeadPipes(t *testing.T) {
	// A long-lived listener lists only the pipes still alive, while its
	// byte totals keep counting what the dead ones carried.
	ln := NewListener("churn", Loopback)
	defer ln.Close()
	var in, out int64
	live := 0
	for i := 0; i < 10000; i++ {
		c, p, err := ln.Dial()
		if err != nil {
			t.Fatal(err)
		}
		s, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		up, down := []byte("hello"), []byte("hi")
		if _, err := c.Write(up); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Write(down); err != nil {
			t.Fatal(err)
		}
		in, out = in+int64(len(up)), out+int64(len(down))
		switch {
		case i%1000 == 0: // both ends stay open
			live++
		case i%1000 == 500: // one end closed: still alive
			c.Close()
			live++
		case i%2 == 0:
			p.Cut()
		default:
			c.Close()
			s.Close()
		}
	}
	ln.mu.Lock()
	listed := len(ln.pipes)
	ln.mu.Unlock()
	if listed != live {
		t.Fatalf("listener lists %d pipes, %d are alive", listed, live)
	}
	if gotIn, gotOut := ln.Bytes(); gotIn != in || gotOut != out {
		t.Fatalf("Bytes() = %d, %d; wrote %d, %d", gotIn, gotOut, in, out)
	}
}

func TestPipeLargeTransfer(t *testing.T) {
	p := NewPipe(Link{Latency: time.Millisecond})
	defer p.Cut()
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	go func() {
		p.A.Write(payload)
		p.A.Close()
	}()
	got, err := io.ReadAll(p.B)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted: got %d bytes, want %d", len(got), len(payload))
	}
}

func TestPipePauseResumeHoldsDelivery(t *testing.T) {
	p := NewPipe(Loopback)
	defer p.Cut()
	p.Pause()
	go p.A.Write([]byte("x"))
	delivered := make(chan struct{})
	go func() {
		buf := make([]byte, 1)
		io.ReadFull(p.B, buf)
		close(delivered)
	}()
	select {
	case <-delivered:
		t.Fatal("byte delivered while link paused")
	case <-time.After(50 * time.Millisecond):
	}
	p.Resume()
	select {
	case <-delivered:
	case <-time.After(2 * time.Second):
		t.Fatal("byte never delivered after resume")
	}
}

func TestPipePauseIdempotent(t *testing.T) {
	p := NewPipe(Loopback)
	defer p.Cut()
	p.Pause()
	p.Pause() // second pause is a no-op
	p.Resume()
	p.Resume() // second resume is a no-op
	go p.A.Write([]byte("y"))
	buf := make([]byte, 1)
	if _, err := io.ReadFull(p.B, buf); err != nil {
		t.Fatal(err)
	}
}

func TestPipeCutWhilePaused(t *testing.T) {
	p := NewPipe(Loopback)
	p.Pause()
	go p.A.Write([]byte("z"))
	time.Sleep(10 * time.Millisecond)
	p.Cut() // must not deadlock against the held delivery
	buf := make([]byte, 1)
	p.B.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := p.B.Read(buf); err == nil {
		t.Fatal("read succeeded after cut")
	}
}
