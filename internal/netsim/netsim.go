// Package netsim simulates the networks of the paper's evaluation: the
// Wi-Fi LAN of the personal-device experiment (§5.2), the France-wide VPN
// of the Grid5000 experiment (§5.3), and the Europe-wide WAN of the
// PlanetLab experiment (§5.4).
//
// NewPipe returns a pair of net.Conn endpoints joined by a link with
// configurable propagation latency, jitter, and bandwidth. Each direction
// is a bounded queue of timed chunks that Write stamps with their delivery
// instants and Read hands over, in order, once due: a pipe owns no
// goroutine, and a chunk costs one hand-off, the writer waking the reader.
// Pipelining is preserved: a second chunk may be in flight while the first
// is still propagating, which is exactly the property that lets Pando hide
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
	"io"
	"maps"
	"math/rand"
	"net"
	"os"
	"slices"
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

// Pipe is a bidirectional in-memory connection with link simulation.
type Pipe struct {
	// A and B are the two endpoints.
	A, B net.Conn

	ab, ba flow

	ends   atomic.Int32 // endpoints closed
	done   sync.Once
	onDone func() // runs once both endpoints are closed or the pipe is cut
}

// flow is one direction of a pipe: the chunks one endpoint wrote and the
// other has not read yet, oldest first, with that direction's link state.
// The directions share no lock and no random source: each draws jitter
// from its own generator, seeded from (Link.Seed, direction), so its
// delays do not depend on how the other direction's chunks interleave.
type flow struct {
	link  Link
	seed  int64
	bytes atomic.Int64
	fault atomic.Pointer[FaultFunc]
	extra atomic.Int64 // Degrade's extra one-way delay

	rmu, wmu sync.Mutex // serialize Reads, and Writes, as net.Pipe does

	mu                 sync.Mutex
	q                  []chunk // q[head:] is in flight, off bytes of q[head] read
	head, off          int
	busyUntil          time.Time
	rng                *rand.Rand // made for the first jittered chunk
	paused, cut        bool
	eof                bool          // the writer closed: Read drains q, then io.EOF
	gone               bool          // the reader closed: writes are counted and dropped
	rdl, wdl           time.Time     // deadlines; zero means none
	rtimer, wtimer     *time.Timer   // reused by every timed wait of Read, of Write
	readable, writable chan struct{} // capacity 1: wake a blocked Read, Write
}

// chunk is a unit of data in flight on the link, due at deliverAt (zero
// on an ideal link: due at once, without reading the clock). buf, when
// non-nil, is the chunkPools buffer behind data; chunks a fault hook saw
// have none, as the hook may have kept or replaced the slice.
type chunk struct {
	data      []byte
	deliverAt time.Time
	buf       *[]byte
}

func (c *chunk) recycle() {
	if c.buf != nil {
		chunkPool(len(*c.buf)).Put(c.buf)
	}
}

// chunkPools recycle chunk buffers: Write copies each chunk into one and
// Read returns it once the chunk is consumed. Without them a busy fleet
// allocates (and the runtime zeroes) one fresh buffer per write, which at
// tens of thousands of simulated pipes is the dominant GC load of the
// simulation rather than of the system under test. Every chunk is at most
// chunkSize, but most frames are far smaller, so buffers come in three
// size classes: a 20 B frame in flight holds 512 B, not 32 KiB.
var chunkPools = [...]sync.Pool{
	{New: func() any { b := make([]byte, 512); return &b }},
	{New: func() any { b := make([]byte, 4<<10); return &b }},
	{New: func() any { b := make([]byte, chunkSize); return &b }},
}

// chunkPool returns the pool of the smallest size class that holds n bytes.
func chunkPool(n int) *sync.Pool {
	switch {
	case n <= 512:
		return &chunkPools[0]
	case n <= 4<<10:
		return &chunkPools[1]
	}
	return &chunkPools[2]
}

const (
	chunkSize = 32 * 1024
	// maxInFlight bounds the chunks queued in one direction; past it a
	// Write blocks, which is ordinary network backpressure.
	maxInFlight = 256
)

// NewPipe creates a connected pair of endpoints joined by link l. Each
// direction's jitter generator is seeded from l.Seed and the direction
// (zero selects a fixed default of 1, so unseeded pipes stay
// deterministic); Listener.Dial threads a distinct per-connection seed
// through here.
func NewPipe(l Link) *Pipe {
	seed := l.Seed
	if seed == 0 {
		seed = 1
	}
	p := &Pipe{onDone: func() {}}
	for dir, f := range []*flow{&p.ab, &p.ba} {
		f.link, f.seed = l, seed<<1|int64(dir)
		f.readable, f.writable = make(chan struct{}, 1), make(chan struct{}, 1)
	}
	p.A = &end{p: p, in: &p.ba, out: &p.ab}
	p.B = &end{p: p, in: &p.ab, out: &p.ba}
	return p
}

func (p *Pipe) flow(aToB bool) *flow {
	if aToB {
		return &p.ab
	}
	return &p.ba
}

// Inject installs f as the fault hook for one direction (A→B when aToB,
// B→A otherwise); nil heals the direction. Each chunk written on the
// source endpoint passes through f before it is queued on the link.
func (p *Pipe) Inject(aToB bool, f FaultFunc) {
	p.flow(aToB).fault.Store(&f)
}

// Degrade adds extra one-way propagation delay to a single direction,
// modelling asymmetric link degradation (a congested uplink under a clean
// downlink); zero heals the direction.
func (p *Pipe) Degrade(aToB bool, extra time.Duration) {
	p.flow(aToB).extra.Store(int64(extra))
}

// Pause freezes the link: bytes already in flight and new bytes are held
// until Resume. It models a transient network stall (a Wi-Fi dropout, a
// suspended laptop) — the partial-synchrony scenario of the paper's §2.3:
// a stall shorter than the heartbeat timeout must not be treated as a
// crash.
func (p *Pipe) Pause() {
	set(&p.ab, &p.ab.paused, true)
	set(&p.ba, &p.ba.paused, true)
}

// Resume releases a paused link; held bytes are delivered immediately.
func (p *Pipe) Resume() {
	set(&p.ab, &p.ab.paused, false)
	set(&p.ba, &p.ba.paused, false)
}

// Cut severs the link abruptly in both directions: all pending and future
// reads and writes on both endpoints fail. This models a browser tab
// closing or connectivity loss without a goodbye.
func (p *Pipe) Cut() {
	set(&p.ab, &p.ab.cut, true)
	set(&p.ba, &p.ba.cut, true)
	p.done.Do(p.onDone)
}

// Bytes reports how many bytes have entered the link in each direction
// (A→B, B→A) since the pipe was created. Dropped chunks still count:
// they burned the simulated bandwidth.
func (p *Pipe) Bytes() (aToB, bToA int64) {
	return p.ab.bytes.Load(), p.ba.bytes.Load()
}

// set changes one field of f's state, returning its old value, and wakes
// whoever waits on f. A cut flow, or one nobody reads any more, drops what
// it holds.
func set[T any](f *flow, field *T, v T) (old T) {
	f.mu.Lock()
	old, *field = *field, v
	if f.cut || f.gone {
		for _, c := range f.q[f.head:] {
			c.recycle()
		}
		f.q, f.head, f.off = nil, 0, 0
	}
	f.mu.Unlock()
	signal(f.readable)
	signal(f.writable)
	return old
}

func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// waitLocked releases f.mu until ch is signalled or, when d > 0, until d
// has passed on *t, the timer one side of the flow reuses for every wait.
func (f *flow) waitLocked(ch chan struct{}, t **time.Timer, d time.Duration) {
	var timeout <-chan time.Time
	if d > 0 {
		if *t == nil {
			*t = time.NewTimer(d)
		} else {
			(*t).Reset(d)
		}
		timeout = (*t).C
	}
	f.mu.Unlock()
	select {
	case <-ch:
	case <-timeout:
	}
	f.mu.Lock()
}

// until reports how long until t, reading the clock into *now on first
// need. The zero time is always due, so an ideal link never reads it.
func until(t time.Time, now *time.Time) time.Duration {
	if t.IsZero() {
		return 0
	}
	if now.IsZero() {
		*now = time.Now()
	}
	return t.Sub(*now)
}

// end is one endpoint of a Pipe: it writes into one flow and reads from
// the other.
type end struct {
	p       *Pipe
	in, out *flow
}

// Write cuts b into chunks of at most chunkSize bytes, each stamped and
// delayed on its own, and puts them on the link in turn.
func (e *end) Write(b []byte) (int, error) {
	e.out.wmu.Lock()
	defer e.out.wmu.Unlock()
	for n := 0; ; {
		k := min(len(b)-n, chunkSize)
		if err := e.out.put(b[n : n+k]); err != nil {
			return n, err
		}
		if n += k; n == len(b) {
			return n, nil
		}
	}
}

// put counts one chunk, stamps it with its delivery instant and queues
// it, waiting while the direction holds maxInFlight chunks. The stamp is
// the link model: transmission starts when the link is free and lasts
// n/Bandwidth, then the chunk propagates for Latency, plus the direction's
// Degrade delay, plus seeded jitter. A chunk the fault hook drops, or that
// a closed reader will never see, still burned its transmission time.
func (f *flow) put(data []byte) error {
	c, deliver := chunk{}, true
	if hook := f.fault.Load(); hook != nil && *hook != nil {
		// The hook may keep or replace what it is handed, so it gets a
		// copy, and what it returns is never recycled.
		c.data, deliver = (*hook)(append([]byte(nil), data...))
	} else {
		c.buf = chunkPool(len(data)).Get().(*[]byte)
		c.data = (*c.buf)[:copy(*c.buf, data)]
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var now time.Time
	for {
		now = time.Time{}
		left := until(f.wdl, &now)
		var err error
		if f.cut || f.eof {
			err = io.ErrClosedPipe
		} else if !f.wdl.IsZero() && left <= 0 {
			err = os.ErrDeadlineExceeded
		}
		if err != nil {
			c.recycle()
			return err
		}
		if f.gone || len(f.q)-f.head < maxInFlight {
			break
		}
		f.waitLocked(f.writable, &f.wtimer, left)
	}
	f.bytes.Add(int64(len(data)))
	keep := deliver && !f.gone && len(c.data) > 0
	var delay time.Duration
	if keep {
		delay = f.link.Latency + time.Duration(f.extra.Load())
		if j := f.link.Jitter; j > 0 {
			if f.rng == nil {
				f.rng = rand.New(rand.NewSource(f.seed))
			}
			delay += time.Duration(f.rng.Int63n(int64(j)))
		}
	}
	if bw := f.link.Bandwidth; bw > 0 || delay > 0 {
		if now.IsZero() {
			now = time.Now()
		}
		if f.busyUntil.Before(now) {
			f.busyUntil = now
		}
		if bw > 0 {
			f.busyUntil = f.busyUntil.Add(time.Duration(float64(len(data)) / float64(bw) * float64(time.Second)))
		}
		c.deliverAt = f.busyUntil.Add(delay)
	}
	if !keep {
		c.recycle()
		return nil
	}
	f.q = append(f.q, c)
	signal(f.readable)
	return nil
}

// Read waits until the head chunk is due and the link not paused, then
// copies it and every chunk due behind it, up to len(b), the way a socket
// read takes its whole receive buffer.
func (e *end) Read(b []byte) (int, error) {
	f := e.in
	f.rmu.Lock()
	defer f.rmu.Unlock()
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		var now time.Time
		left := until(f.rdl, &now)
		switch {
		case f.cut || f.gone:
			return 0, io.ErrClosedPipe
		case !f.rdl.IsZero() && left <= 0:
			return 0, os.ErrDeadlineExceeded
		case f.head == len(f.q) && f.eof:
			return 0, io.EOF
		}
		if f.head < len(f.q) && !f.paused {
			due := until(f.q[f.head].deliverAt, &now)
			if due <= 0 {
				return f.takeLocked(b, now), nil
			}
			if left == 0 || due < left {
				left = due
			}
		}
		f.waitLocked(f.readable, &f.rtimer, left)
	}
}

// takeLocked copies the head chunk, which is due, and the due chunks
// behind it into b.
func (f *flow) takeLocked(b []byte, now time.Time) int {
	if len(f.q)-f.head >= maxInFlight {
		signal(f.writable) // there will be room
	}
	n := 0
	for n < len(b) && f.head < len(f.q) {
		c := &f.q[f.head]
		if n > 0 && until(c.deliverAt, &now) > 0 {
			break
		}
		k := copy(b[n:], c.data[f.off:])
		n += k
		if f.off += k; f.off < len(c.data) {
			break
		}
		c.recycle()
		*c = chunk{}
		f.head, f.off = f.head+1, 0
		if f.head > len(f.q)/2 { // reuse the array: move what is left to its front
			m := copy(f.q, f.q[f.head:])
			clear(f.q[m:])
			f.q, f.head = f.q[:m], 0
		}
	}
	return n
}

// Close ends this endpoint. What it already wrote stays readable by the
// peer, followed by io.EOF; what was queued towards it is dropped, and
// the peer's later writes are counted and dropped, as a socket whose peer
// vanished still accepts them.
func (e *end) Close() error {
	if !set(e.in, &e.in.gone, true) {
		set(e.out, &e.out.eof, true)
		if e.p.ends.Add(1) == 2 {
			e.p.done.Do(e.p.onDone)
		}
	}
	return nil
}

func (e *end) LocalAddr() net.Addr  { return simAddr("pipe") }
func (e *end) RemoteAddr() net.Addr { return simAddr("pipe") }

func (e *end) SetDeadline(t time.Time) error {
	e.SetReadDeadline(t)
	return e.SetWriteDeadline(t)
}

func (e *end) SetReadDeadline(t time.Time) error {
	set(e.in, &e.in.rdl, t)
	return nil
}

func (e *end) SetWriteDeadline(t time.Time) error {
	set(e.out, &e.out.wdl, t)
	return nil
}

// Listener is an in-memory listener whose accepted connections go through
// simulated links, letting tests and benchmarks stand up a full
// master/volunteer topology without real sockets.
type Listener struct {
	link    Link
	mu      sync.Mutex
	queue   chan net.Conn
	closed  bool
	pipes   map[*Pipe]struct{} // live: not cut, and an endpoint still open
	gone    [2]int64           // bytes carried by the pipes no longer listed
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
		pipes: make(map[*Pipe]struct{}),
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
	p.onDone = func() { // nothing enters a dead pipe: fold in its counts
		a, b := p.Bytes()
		ln.mu.Lock()
		defer ln.mu.Unlock()
		delete(ln.pipes, p)
		ln.gone[0], ln.gone[1] = ln.gone[0]+a, ln.gone[1]+b
	}
	select {
	case ln.queue <- p.B:
		ln.pipes[p] = struct{}{}
		ln.mu.Unlock()
		return p.A, p, nil
	default:
		ln.mu.Unlock()
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
	if ln.closed {
		ln.mu.Unlock()
		return nil
	}
	ln.closed = true
	close(ln.queue)
	live := slices.Collect(maps.Keys(ln.pipes))
	ln.mu.Unlock()
	for _, p := range live {
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
	in, out = ln.gone[0], ln.gone[1]
	for p := range ln.pipes {
		a, b := p.Bytes()
		in += a
		out += b
	}
	return in, out
}
