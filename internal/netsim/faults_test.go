package netsim

// Tests for the chaos fault hooks: per-direction drop/corrupt injection,
// asymmetric degradation, and the per-direction jitter generators under
// heavy concurrency (the -race tier's regression for the shared-RNG fix).

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"time"
)

// TestPipeInjectDropIsAsymmetric: a drop-all fault on A→B silences that
// direction while B→A keeps delivering.
func TestPipeInjectDropIsAsymmetric(t *testing.T) {
	p := NewPipe(Loopback)
	defer p.Cut()
	p.Inject(true, func(data []byte) ([]byte, bool) { return nil, false })

	// B→A unaffected.
	go p.B.Write([]byte("pong"))
	buf := make([]byte, 4)
	if _, err := io.ReadFull(p.A, buf); err != nil {
		t.Fatalf("B→A delivery failed under an A→B fault: %v", err)
	}

	// A→B dropped.
	go p.A.Write([]byte("ping"))
	delivered := make(chan struct{})
	go func() {
		one := make([]byte, 1)
		if _, err := io.ReadFull(p.B, one); err == nil {
			close(delivered)
		}
	}()
	select {
	case <-delivered:
		t.Fatal("chunk delivered despite drop-all fault")
	case <-time.After(60 * time.Millisecond):
	}

	// Healing the direction restores delivery for new chunks.
	p.Inject(true, nil)
	go p.A.Write([]byte("again"))
	select {
	case <-delivered:
	case <-time.After(2 * time.Second):
		t.Fatal("delivery never resumed after healing the fault")
	}
}

// TestPipeInjectCorrupt: a corrupting fault delivers mangled bytes — the
// stream still flows, but its content is garbage, which is what forces
// the protocol layer above to fail the connection.
func TestPipeInjectCorrupt(t *testing.T) {
	p := NewPipe(Loopback)
	defer p.Cut()
	p.Inject(true, func(data []byte) ([]byte, bool) {
		out := append([]byte(nil), data...)
		for i := range out {
			out[i] ^= 0xFF
		}
		return out, true
	})
	msg := []byte("payload")
	go p.A.Write(msg)
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(p.B, buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf, msg) {
		t.Fatal("corrupting fault delivered the original bytes")
	}
	for i := range buf {
		if buf[i] != msg[i]^0xFF {
			t.Fatalf("byte %d = %#x, want %#x", i, buf[i], msg[i]^0xFF)
		}
	}
}

// TestPipeDegradeAsymmetric: extra latency applies to one direction only
// and heals back to the base link.
func TestPipeDegradeAsymmetric(t *testing.T) {
	const extra = 60 * time.Millisecond
	p := NewPipe(Loopback)
	defer p.Cut()
	p.Degrade(true, extra)

	oneWay := func(w, r io.ReadWriter) time.Duration {
		start := time.Now()
		go w.Write([]byte("x"))
		buf := make([]byte, 1)
		if _, err := io.ReadFull(r, buf); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	if d := oneWay(p.A, p.B); d < extra {
		t.Fatalf("degraded A→B delivered in %v, want >= %v", d, extra)
	}
	if d := oneWay(p.B, p.A); d > extra/2 {
		t.Fatalf("clean B→A delivered in %v; degradation leaked across directions", d)
	}
	p.Degrade(true, 0)
	if d := oneWay(p.A, p.B); d > extra/2 {
		t.Fatalf("healed A→B delivered in %v; degradation did not heal", d)
	}
}

// TestPipeJitterManyPipesConcurrent is the race regression for the jitter
// generator: many pipes with jitter enabled, both directions active at
// once, must be data-race free (each direction owns its generator, under
// its own lock).
func TestPipeJitterManyPipesConcurrent(t *testing.T) {
	const pipes = 32
	var wg sync.WaitGroup
	for i := 0; i < pipes; i++ {
		p := NewPipe(Link{Latency: time.Millisecond, Jitter: 2 * time.Millisecond, Seed: int64(i + 1)})
		defer p.Cut()
		wg.Add(2)
		go func() {
			defer wg.Done()
			for k := 0; k < 8; k++ {
				p.A.Write([]byte("a"))
			}
			buf := make([]byte, 8)
			io.ReadFull(p.A, buf)
		}()
		go func() {
			defer wg.Done()
			buf := make([]byte, 8)
			io.ReadFull(p.B, buf)
			for k := 0; k < 8; k++ {
				p.B.Write([]byte("b"))
			}
		}()
	}
	wg.Wait()
}

// TestPipeFaultDuringPauseAndCut: installing and firing faults around
// Pause/Cut must not deadlock or panic — the combination a chaos schedule
// routinely produces.
func TestPipeFaultDuringPauseAndCut(t *testing.T) {
	p := NewPipe(Link{Jitter: time.Millisecond, Seed: 7})
	p.Inject(true, func(data []byte) ([]byte, bool) { return data, len(data)%2 == 0 })
	p.Degrade(false, 5*time.Millisecond)
	p.Pause()
	go p.A.Write([]byte("xy"))
	go p.B.Write([]byte("z"))
	time.Sleep(10 * time.Millisecond)
	p.Resume()
	time.Sleep(10 * time.Millisecond)
	p.Pause()
	p.Cut() // must release everything the pause holds
	buf := make([]byte, 1)
	p.B.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := p.B.Read(buf); err == nil {
		// A delivered chunk may have landed before the cut; the second
		// read must fail.
		if _, err := p.B.Read(buf); err == nil {
			t.Fatal("reads keep succeeding after Cut")
		}
	}
}
