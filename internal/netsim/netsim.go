// Package netsim simulates the networks of the paper's evaluation: the
// Wi-Fi LAN of the personal-device experiment (§5.2), the France-wide VPN
// of the Grid5000 experiment (§5.3), and the Europe-wide WAN of the
// PlanetLab experiment (§5.4).
//
// NewPipe returns a pair of net.Conn endpoints joined by a link with
// configurable propagation latency, jitter, and bandwidth. Chunks written
// on one end are delivered on the other after the link delay, with
// pipelining preserved: a second chunk may be in flight while the first is
// still propagating, which is exactly the property that lets Pando hide
// latency by batching inputs (paper §5.5).
//
// The link can be Cut to simulate a sudden crash or loss of connectivity,
// the failure mode of the paper's crash-stop model (§2.3). Beyond the
// crash-stop primitive, a pipe supports the composable fault hooks the
// chaos harness (internal/chaos) drives: Pause/Resume freeze delivery (a
// transient stall or partition), Degrade adds extra one-way latency to a
// single direction (asymmetric congestion), and Inject installs a
// per-chunk FaultFunc that can drop or corrupt bytes in flight — on a
// reliable stream transport either manifests as stream corruption, which
// the protocol layer must treat exactly like a crash.
package netsim

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Link describes one direction-symmetric network link.
type Link struct {
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// Jitter adds a uniform random delay in [0, Jitter) per chunk.
	Jitter time.Duration
	// Bandwidth in bytes per second; 0 means unlimited.
	Bandwidth int64
	// Seed makes jitter deterministic; 0 uses a fixed default.
	Seed int64
}

// Predefined links approximating the paper's three deployment scenarios.
// The absolute values are scaled down so experiments complete quickly; the
// ratios between scenarios match the paper's settings (LAN Wi-Fi vs
// continental VPN vs Europe-wide WAN).
var (
	// LAN approximates a home Wi-Fi network.
	LAN = Link{Latency: 2 * time.Millisecond, Jitter: time.Millisecond, Bandwidth: 12 << 20}
	// VPN approximates the Grid5000 VPN reached through Wi-Fi + INRIA's
	// network (France-wide).
	VPN = Link{Latency: 10 * time.Millisecond, Jitter: 2 * time.Millisecond, Bandwidth: 8 << 20}
	// WAN approximates PlanetLab EU nodes across Europe.
	WAN = Link{Latency: 40 * time.Millisecond, Jitter: 10 * time.Millisecond, Bandwidth: 4 << 20}
	// Loopback is an ideal link for unit tests.
	Loopback = Link{}
)

// FaultFunc inspects one chunk about to enter the link. It returns the
// (possibly modified) bytes to deliver, or ok=false to drop the chunk
// entirely. Dropping or corrupting bytes of a reliable stream garbles
// every following frame, so the receiving protocol layer is expected to
// fail the connection — which is precisely the fault model chaos tests
// want: packet-level loss that surfaces as a crash-stop failure.
type FaultFunc func(data []byte) (out []byte, ok bool)

// Directions of a pipe, for the asymmetric fault hooks.
const (
	dirAtoB = 0
	dirBtoA = 1
)

// Pipe is a bidirectional in-memory connection with link simulation.
type Pipe struct {
	// A and B are the two endpoints.
	A, B net.Conn

	mu     sync.Mutex
	inner  []net.Conn
	cut    bool
	closed chan struct{}
	frozen chan struct{} // non-nil while the link is paused

	// rng is the pipe's jitter source: one seeded generator per pipe,
	// lock-protected because both relay directions draw from it. (A
	// process-wide source would be a contention point — and a race
	// magnet — with thousands of simulated pipes.)
	rngMu sync.Mutex
	rng   *rand.Rand

	// Fault state, per direction, changeable at run time.
	faultMu sync.Mutex
	fault   [2]FaultFunc
	extra   [2]time.Duration

	// Bytes carried per direction, counted as chunks enter the link —
	// what a bandwidth meter on the wire would see. The compression
	// bench reads these to compare bytes-on-wire across formats.
	bytes [2]atomic.Int64
}

// chunk is a unit of data in flight on the link.
type chunk struct {
	data      []byte
	deliverAt time.Time
	// buf, when non-nil, is the chunkPool buffer backing data; the
	// deliverer returns it to the pool after the write. Chunks that
	// passed through a fault hook carry no buf: the hook may have
	// swapped or retained the slice.
	buf *[]byte
}

// chunkPool recycles relay chunk buffers. Every chunk is at most
// relayBufSize, so one size class covers all of them; without the pool a
// busy fleet allocates (and the runtime zeroes) one fresh buffer per
// write, which at tens of thousands of simulated pipes is the dominant
// GC load of the simulation rather than of the system under test.
var chunkPool = sync.Pool{
	New: func() any { b := make([]byte, relayBufSize); return &b },
}

const relayBufSize = 32 * 1024

// NewPipe creates a connected pair of endpoints joined by link l. The
// pipe's jitter generator is seeded from l.Seed (zero selects a fixed
// default of 1, so unseeded pipes stay deterministic); Listener.Dial
// threads a distinct per-connection seed through here.
//
//pando:deterministic
func NewPipe(l Link) *Pipe {
	aUser, aInner := net.Pipe()
	bUser, bInner := net.Pipe()
	p := &Pipe{
		A:      aUser,
		B:      bUser,
		inner:  []net.Conn{aInner, bInner},
		closed: make(chan struct{}),
	}
	seed := l.Seed
	if seed == 0 {
		seed = 1
	}
	p.rng = rand.New(rand.NewSource(seed))
	go p.relay(aInner, bInner, l, dirAtoB)
	go p.relay(bInner, aInner, l, dirBtoA)
	return p
}

// jitter draws one delay in [0, j) from the pipe's locked generator.
//
//pando:deterministic
func (p *Pipe) jitter(j time.Duration) time.Duration {
	if j <= 0 {
		return 0
	}
	p.rngMu.Lock()
	defer p.rngMu.Unlock()
	return time.Duration(p.rng.Int63n(int64(j)))
}

// Inject installs f as the fault hook for one direction (A→B when aToB,
// B→A otherwise); nil heals the direction. Each chunk read off the source
// endpoint passes through f before it is queued on the link.
func (p *Pipe) Inject(aToB bool, f FaultFunc) {
	p.faultMu.Lock()
	defer p.faultMu.Unlock()
	p.fault[dirIdx(aToB)] = f
}

// Degrade adds extra one-way propagation delay to a single direction,
// modelling asymmetric link degradation (a congested uplink under a clean
// downlink); zero heals the direction.
func (p *Pipe) Degrade(aToB bool, extra time.Duration) {
	p.faultMu.Lock()
	defer p.faultMu.Unlock()
	p.extra[dirIdx(aToB)] = extra
}

func dirIdx(aToB bool) int {
	if aToB {
		return dirAtoB
	}
	return dirBtoA
}

// mangle applies the direction's current fault state to one chunk. The
// clean return reports whether the bytes passed through untouched by any
// hook (and so may keep riding a pooled buffer).
func (p *Pipe) mangle(dir int, data []byte) (out []byte, ok, clean bool, extra time.Duration) {
	p.faultMu.Lock()
	f := p.fault[dir]
	extra = p.extra[dir]
	p.faultMu.Unlock()
	if f == nil {
		return data, true, true, extra
	}
	out, ok = f(data)
	return out, ok, false, extra
}

// gate blocks while the link is paused.
func (p *Pipe) gate() {
	p.mu.Lock()
	frozen := p.frozen
	p.mu.Unlock()
	if frozen != nil {
		select {
		case <-frozen:
		case <-p.closed:
		}
	}
}

// Pause freezes the link: bytes already in flight and new bytes are held
// until Resume. It models a transient network stall (a Wi-Fi dropout, a
// suspended laptop) — the partial-synchrony scenario of the paper's §2.3:
// a stall shorter than the heartbeat timeout must not be treated as a
// crash.
func (p *Pipe) Pause() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.frozen == nil {
		p.frozen = make(chan struct{})
	}
}

// Resume releases a paused link; held bytes are delivered immediately.
func (p *Pipe) Resume() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.frozen != nil {
		close(p.frozen)
		p.frozen = nil
	}
}

// Cut severs the link abruptly in both directions: all pending and future
// reads and writes on both endpoints fail. This models a browser tab
// closing or connectivity loss without a goodbye.
func (p *Pipe) Cut() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cut {
		return
	}
	p.cut = true
	close(p.closed)
	for _, c := range p.inner {
		c.Close()
	}
	p.A.Close()
	p.B.Close()
}

// relay moves chunks from src to dst applying the link delay model and
// the direction's fault state. The gate blocks while the link is paused.
// The delay/loss/jitter decisions are seed-determined; only the mapping
// of those decisions onto delivery instants touches the wall clock (each
// touch annotated below).
//
//pando:deterministic
func (p *Pipe) relay(src, dst net.Conn, l Link, dir int) {
	closed := p.closed
	// The in-flight queue bounds how much data the link buffers beyond
	// what the endpoints' own pipes hold; past it the writer blocks, which
	// is ordinary network backpressure. Keep it modest: chunk headers
	// carry pointers, so with tens of thousands of simulated pipes alive a
	// deep preallocated queue per relay direction costs gigabytes of
	// zeroed, GC-scanned channel buffer that dwarfs the traffic itself.
	inFlight := make(chan chunk, 256)

	// Deliverer: writes chunks at their delivery time, in order.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for c := range inFlight {
			//pando:nondeterministic waits out a delivery instant already stamped from the seeded delay model
			d := time.Until(c.deliverAt)
			if d > 0 {
				timer := time.NewTimer(d)
				select {
				case <-timer.C:
				case <-closed:
					timer.Stop()
					return
				}
			}
			p.gate()
			_, err := dst.Write(c.data)
			if c.buf != nil {
				chunkPool.Put(c.buf)
			}
			if err != nil {
				return
			}
		}
		// Source ended cleanly; propagate EOF.
		dst.Close()
	}()

	// Reader: stamps each chunk with its delivery time at read time so
	// later chunks propagate while earlier ones are still in flight.
	// Each read lands directly in a pooled chunk buffer — no per-chunk
	// allocation or copy on the clean path; the deliverer recycles the
	// buffer once the bytes are written out the far end.
	var busyUntil time.Time
	for {
		bp := chunkPool.Get().(*[]byte)
		n, err := src.Read(*bp)
		if n > 0 {
			p.bytes[dir].Add(int64(n))
			//pando:nondeterministic stamping delivery instants: the delay amounts are seeded, only their anchor is the wall clock
			now := time.Now()
			start := now
			if busyUntil.After(now) {
				start = busyUntil
			}
			var tx time.Duration
			if l.Bandwidth > 0 {
				tx = time.Duration(float64(n) / float64(l.Bandwidth) * float64(time.Second))
			}
			// Transmission occupies the link whether or not the chunk is
			// then lost — a dropped packet still burned the bandwidth.
			busyUntil = start.Add(tx)
			data, deliver, clean, extra := p.mangle(dir, (*bp)[:n])
			owner := bp
			if !clean {
				// A fault hook saw (and may retain or have replaced) the
				// buffer; let the GC have it rather than risk recycling
				// bytes still aliased somewhere.
				owner = nil
			}
			if deliver {
				delay := l.Latency + extra + p.jitter(l.Jitter)
				select {
				case inFlight <- chunk{data: data, deliverAt: busyUntil.Add(delay), buf: owner}:
				case <-closed:
					close(inFlight)
					wg.Wait()
					return
				}
			} else if owner != nil {
				chunkPool.Put(owner)
			}
		} else {
			chunkPool.Put(bp)
		}
		if err != nil {
			close(inFlight)
			wg.Wait()
			return
		}
	}
}

// Bytes reports how many bytes have entered the link in each direction
// (A→B, B→A) since the pipe was created. Dropped chunks still count:
// they burned the simulated bandwidth.
func (p *Pipe) Bytes() (aToB, bToA int64) {
	return p.bytes[dirAtoB].Load(), p.bytes[dirBtoA].Load()
}

// Listener is an in-memory listener whose accepted connections go through
// simulated links, letting tests and benchmarks stand up a full
// master/volunteer topology without real sockets.
type Listener struct {
	link    Link
	mu      sync.Mutex
	queue   chan net.Conn
	closed  bool
	pipes   []*Pipe
	addr    simAddr
	nextSeq int64
}

type simAddr string

func (a simAddr) Network() string { return "netsim" }
func (a simAddr) String() string  { return string(a) }

// NewListener creates a listener whose connections traverse link l.
func NewListener(name string, l Link) *Listener {
	return &Listener{
		link:  l,
		queue: make(chan net.Conn, 64),
		addr:  simAddr(name),
	}
}

// Dial connects to the listener through a fresh simulated link and returns
// the client endpoint together with the pipe (for fault injection).
func (ln *Listener) Dial() (net.Conn, *Pipe, error) {
	ln.mu.Lock()
	if ln.closed {
		ln.mu.Unlock()
		return nil, nil, errors.New("netsim: listener closed")
	}
	link := ln.link
	ln.nextSeq++
	link.Seed = ln.nextSeq * 7919
	p := NewPipe(link)
	ln.pipes = append(ln.pipes, p)
	ln.mu.Unlock()

	select {
	case ln.queue <- p.B:
		return p.A, p, nil
	default:
		p.Cut()
		return nil, nil, errors.New("netsim: accept queue full")
	}
}

// Accept waits for the next inbound connection.
func (ln *Listener) Accept() (net.Conn, error) {
	c, ok := <-ln.queue
	if !ok {
		return nil, errors.New("netsim: listener closed")
	}
	return c, nil
}

// Close shuts the listener down and severs every connection it created.
func (ln *Listener) Close() error {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	if ln.closed {
		return nil
	}
	ln.closed = true
	close(ln.queue)
	for _, p := range ln.pipes {
		p.Cut()
	}
	return nil
}

// Addr returns the listener's simulated address.
func (ln *Listener) Addr() net.Addr { return ln.addr }

// Bytes sums the per-direction byte counters of every connection this
// listener has created: dialer→acceptor and acceptor→dialer totals. For
// a master listener this is the fleet's aggregate uplink and downlink
// bytes-on-wire.
func (ln *Listener) Bytes() (in, out int64) {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	for _, p := range ln.pipes {
		a, b := p.Bytes()
		in += a
		out += b
	}
	return in, out
}
