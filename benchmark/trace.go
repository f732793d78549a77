package main

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	pando "pando"
	"pando/internal/worker"
)

// Tracing lives entirely in shims the public API lets a caller inject:
// codecs given to WithCodec and CodecHandler, a wrapper around f, and
// net.Conn wrappers on both ends of every link. Nothing inside the
// program is touched, and the measured reps install none of this.
//
// The shims record raw events with a content key; analyze.go turns them
// into per-item span chains once the rep is over.

// codecEvent is one Encode or Decode call on the master. gid is the
// calling goroutine when the workload asked for it (see goid), else 0.
type codecEvent struct {
	key        uint64
	start, end int64
	gid        int64
}

// volEvent is one item's pass through a volunteer: decode, kernel,
// encode, always in that order on the volunteer's single serve loop.
type volEvent struct {
	inKey, outKey      uint64
	decStart, decEnd   int64
	kernStart, kernEnd int64
	encStart, encEnd   int64
}

type connStats struct {
	writes, reads     atomic.Int64
	bytesOut, bytesIn atomic.Int64
	writeNs, readNs   atomic.Int64 // time inside Write; time blocked in Read
}

type crashEvent struct {
	vol int
	at  int64
}

type tracer struct {
	items   int
	byConn  bool  // record the calling goroutine of master-side codec calls
	startAt int64 // stamp() when the first input was offered

	// Indexed by item: written by the feeder (offered, inKeys) and by the
	// consumer (taken, emitted).
	offeredAt []int64
	inKeys    []uint64
	takenAt   []int64
	emittedAt []int64

	// Master-side codec calls arrive from one goroutine per connection;
	// slots are claimed with an atomic counter so recording takes no lock.
	enc, dec   []codecEvent
	encN, decN atomic.Int64
	dropped    atomic.Int64

	mu      sync.Mutex
	vols    []*volTrace
	crashes []crashEvent

	masterConn, volConn connStats
}

// volTrace belongs to one volunteer's serve loop; only that goroutine
// touches cur and events until the rep is torn down.
type volTrace struct {
	id        int
	cur       volEvent
	events    []volEvent
	processed int
}

func newTracer(items int, byConn bool) *tracer {
	// A re-lent item is encoded again, so leave room for every item twice.
	return &tracer{
		items:     items,
		byConn:    byConn,
		offeredAt: make([]int64, items),
		inKeys:    make([]uint64, items),
		takenAt:   make([]int64, items),
		emittedAt: make([]int64, items),
		enc:       make([]codecEvent, 2*items+1024),
		dec:       make([]codecEvent, 2*items+1024),
	}
}

// traceEpoch anchors every trace timestamp: nanoseconds of monotonic
// time since the process started tracing.
var traceEpoch = time.Now()

func stamp() int64 { return int64(time.Since(traceEpoch)) }

func (t *tracer) begin() { t.startAt = stamp() }

func (t *tracer) offered(i int, key uint64) {
	t.inKeys[i] = key
	t.offeredAt[i] = stamp()
}

// emitted takes the rep's own stamps, which count from the first offer.
func (t *tracer) emitted(i int, taken, at int64) {
	t.takenAt[i], t.emittedAt[i] = t.startAt+taken, t.startAt+at
}

func record(events []codecEvent, n *atomic.Int64, dropped *atomic.Int64, e codecEvent) {
	slot := n.Add(1) - 1
	if int(slot) >= len(events) {
		dropped.Add(1)
		return
	}
	events[slot] = e
}

func (t *tracer) masterEncoded(key uint64, start, end int64) {
	record(t.enc, &t.encN, &t.dropped, codecEvent{key, start, end, t.caller()})
}

func (t *tracer) masterDecoded(key uint64, start, end int64) {
	record(t.dec, &t.decN, &t.dropped, codecEvent{key, start, end, t.caller()})
}

// caller names the goroutine a master-side codec call runs on. The
// master encodes on one goroutine per connection and decodes on another,
// so the goroutine stands for the connection — the one thing a codec
// shim is not told. It is only needed where inputs repeat (tiles-16k):
// there a content key fits several items in flight on different
// volunteers, and only the connection says which one a volunteer got.
// runtime.Stack costs microseconds, so workloads with unique inputs
// leave it off.
func (t *tracer) caller() int64 {
	if !t.byConn {
		return 0
	}
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id int64
	for _, c := range buf[min(len("goroutine "), n):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

func (t *tracer) volunteer(id int) *volTrace {
	vt := &volTrace{id: id}
	t.mu.Lock()
	t.vols = append(t.vols, vt)
	t.mu.Unlock()
	return vt
}

func (vt *volTrace) decoded(key uint64, start, end int64) {
	vt.cur = volEvent{inKey: key, decStart: start, decEnd: end}
}

func (vt *volTrace) kernelRan(start, end int64) {
	vt.cur.kernStart, vt.cur.kernEnd = start, end
}

func (vt *volTrace) encoded(key uint64, start, end int64) {
	vt.cur.outKey, vt.cur.encStart, vt.cur.encEnd = key, start, end
	vt.events = append(vt.events, vt.cur)
}

func (t *tracer) crashed(vol int) {
	at := stamp()
	t.mu.Lock()
	t.crashes = append(t.crashes, crashEvent{vol, at})
	t.mu.Unlock()
}

// finish collects what is only known after teardown. vols is in join
// order, the order volunteer() was called in.
func (t *tracer) finish(vols []*worker.Volunteer) {
	for i, v := range vols {
		t.vols[i].processed = v.Processed()
	}
}

// tracedCodec times Encode or Decode of the codec it wraps and reports
// the call with the typed value's content key — the typed value is what
// identifies the item. DecodeAliases is forwarded, so the receive path
// makes the same pooling decisions as with the bare codec: the traced
// data plane is the measured one.
type tracedCodec[T any] struct {
	inner    pando.Codec[T]
	key      func(T) uint64
	onEncode func(key uint64, start, end int64) // nil: Encode passes through
	onDecode func(key uint64, start, end int64) // nil: Decode passes through
}

func (c *tracedCodec[T]) Encode(v T) ([]byte, error) {
	if c.onEncode == nil {
		return c.inner.Encode(v)
	}
	start := stamp()
	data, err := c.inner.Encode(v)
	end := stamp()
	c.onEncode(c.key(v), start, end)
	return data, err
}

func (c *tracedCodec[T]) Decode(data []byte) (T, error) {
	if c.onDecode == nil {
		return c.inner.Decode(data)
	}
	start := stamp()
	v, err := c.inner.Decode(data)
	end := stamp()
	if err == nil {
		c.onDecode(c.key(v), start, end)
	}
	return v, err
}

func (c *tracedCodec[T]) DecodeAliases() bool {
	if a, ok := c.inner.(interface{ DecodeAliases() bool }); ok {
		return a.DecodeAliases()
	}
	return true // what the transport assumes of a codec that does not say
}

// tracedConn counts calls, bytes and time on one end of a link.
type tracedConn struct {
	net.Conn
	stats *connStats
}

func (c *tracedConn) Write(b []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(b)
	c.stats.writeNs.Add(int64(time.Since(start)))
	c.stats.writes.Add(1)
	c.stats.bytesOut.Add(int64(n))
	return n, err
}

func (c *tracedConn) Read(b []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Read(b)
	c.stats.readNs.Add(int64(time.Since(start)))
	c.stats.reads.Add(1)
	c.stats.bytesIn.Add(int64(n))
	return n, err
}

// tracedAcceptor hands the master wrapped connections.
type tracedAcceptor struct {
	pando.Acceptor
	stats *connStats
}

func (a tracedAcceptor) Accept() (net.Conn, error) {
	conn, err := a.Acceptor.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: conn, stats: a.stats}, nil
}
