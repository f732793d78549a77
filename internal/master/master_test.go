package master

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pando/internal/fleet"
	"pando/internal/netsim"
	"pando/internal/proto"
	"pando/internal/pullstream"
	"pando/internal/sched"
	"pando/internal/transport"
	"pando/internal/worker"
)

func jsonSquare(dst, b []byte) ([]byte, error) {
	var v int
	if err := json.Unmarshal(b, &v); err != nil {
		return nil, err
	}
	return strconv.AppendInt(dst, int64(v*v), 10), nil
}

// newTestMaster creates an ordered job registered on a pool of its own,
// the shape of every pando.New deployment, with 25 ms heartbeats on the
// pool's channels. Volunteers join through the pool.
func newTestMaster(t *testing.T, cfg Config) (*Master[int, int], *fleet.Pool) {
	t.Helper()
	return newTestMasterOn(t, cfg, transport.Config{HeartbeatInterval: 25 * time.Millisecond})
}

// newTestMasterOn is newTestMaster with the pool's channel config given.
func newTestMasterOn(t *testing.T, cfg Config, ch transport.Config) (*Master[int, int], *fleet.Pool) {
	t.Helper()
	if cfg.FuncName == "" {
		cfg.FuncName = "square"
	}
	cfg.Ordered = true
	m := NewJob[int, int](cfg, transport.JSONCodec[int]{}, transport.JSONCodec[int]{})
	pool := fleet.NewPool(fleet.Config{Channel: ch})
	if err := pool.Register(m.Job()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	return m, pool
}

// startVolunteer dials the listener and joins on a goroutine, returning
// the volunteer and its pipe for fault injection.
func startVolunteer(t *testing.T, ln *netsim.Listener, v *worker.Volunteer) *netsim.Pipe {
	t.Helper()
	conn, pipe, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	if v.Channel.HeartbeatInterval == 0 {
		v.Channel.HeartbeatInterval = 25 * time.Millisecond
	}
	if v.CrashAfter == 0 {
		v.CrashAfter = -1
	}
	go v.JoinWS(conn)
	return pipe
}

func TestMasterSingleVolunteerWS(t *testing.T) {
	m, pool := newTestMaster(t, Config{})
	ln := netsim.NewListener("master", netsim.LAN)
	defer ln.Close()
	go pool.ServeWS(ln)

	out := m.Bind(pullstream.Count(25))
	startVolunteer(t, ln, &worker.Volunteer{Name: "laptop", Handler: jsonSquare, CrashAfter: -1})

	got, err := pullstream.Collect(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 25 {
		t.Fatalf("got %d results, want 25", len(got))
	}
	for i, v := range got {
		if v != (i+1)*(i+1) {
			t.Fatalf("got[%d] = %d, want %d", i, v, (i+1)*(i+1))
		}
	}
	if m.TotalItems() != 25 {
		t.Fatalf("accounting: %d items, want 25", m.TotalItems())
	}
}

func TestMasterMultipleVolunteersOrdered(t *testing.T) {
	m, pool := newTestMaster(t, Config{})
	ln := netsim.NewListener("master", netsim.LAN)
	defer ln.Close()
	go pool.ServeWS(ln)

	out := m.Bind(pullstream.Count(100))
	for i := 0; i < 4; i++ {
		startVolunteer(t, ln, &worker.Volunteer{
			Name:    fmt.Sprintf("dev-%d", i),
			Handler: jsonSquare,
			Delay:   time.Duration(i) * 500 * time.Microsecond,
		})
	}

	got, err := pullstream.Collect(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("got %d results, want 100", len(got))
	}
	for i, v := range got {
		if v != (i+1)*(i+1) {
			t.Fatalf("got[%d] = %d (output must be ordered)", i, v)
		}
	}
}

func TestMasterVolunteerCrashRecovery(t *testing.T) {
	// Figure 4 at the system level: a volunteer crashes mid-stream; its
	// in-flight values are re-lent to the survivor; all outputs arrive.
	// The crash closes the connection, which the master sees at once, so
	// the silence timeout only decides how long a stall of the whole
	// process is tolerated; 2 s as in the benchmark's fleet-churn. Under
	// js/wasm a stall of Node's (likely compiling code on first use)
	// outlasted the default three 25 ms intervals, and the master and both
	// volunteers declared each other dead for good.
	ch := transport.Config{HeartbeatInterval: 25 * time.Millisecond, HeartbeatTimeout: 2 * time.Second}
	m, pool := newTestMasterOn(t, Config{}, ch)
	ln := netsim.NewListener("master", netsim.LAN)
	defer ln.Close()
	go pool.ServeWS(ln)

	out := m.Bind(pullstream.Count(60))
	startVolunteer(t, ln, &worker.Volunteer{Name: "tablet", Handler: jsonSquare, CrashAfter: 5, Delay: time.Millisecond, Channel: ch})
	startVolunteer(t, ln, &worker.Volunteer{Name: "phone", Handler: jsonSquare, Channel: ch})

	got, err := pullstream.Collect(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 60 {
		t.Fatalf("got %d results, want 60", len(got))
	}
	for i, v := range got {
		if v != (i+1)*(i+1) {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestMasterNetworkCutRecovery(t *testing.T) {
	// Crash injected at the network level: the link is severed without
	// the volunteer's cooperation; heartbeats detect it.
	m, pool := newTestMaster(t, Config{})
	ln := netsim.NewListener("master", netsim.LAN)
	defer ln.Close()
	go pool.ServeWS(ln)

	out := m.Bind(pullstream.Count(40))
	victim := startVolunteer(t, ln, &worker.Volunteer{Name: "flaky", Handler: jsonSquare, Delay: 2 * time.Millisecond})
	go func() {
		time.Sleep(20 * time.Millisecond)
		victim.Cut()
	}()
	startVolunteer(t, ln, &worker.Volunteer{Name: "stable", Handler: jsonSquare})

	got, err := pullstream.Collect(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 40 {
		t.Fatalf("got %d results, want 40", len(got))
	}
}

func TestMasterLateJoin(t *testing.T) {
	// Dynamic scaling: the computation starts with no volunteer at all;
	// one joins later and the stream completes.
	m, pool := newTestMaster(t, Config{})
	ln := netsim.NewListener("master", netsim.LAN)
	defer ln.Close()
	go pool.ServeWS(ln)

	out := m.Bind(pullstream.Count(10))
	outc, errc := pullstream.ToChan(context.Background(), out)

	time.Sleep(30 * time.Millisecond) // nobody there yet
	startVolunteer(t, ln, &worker.Volunteer{Name: "late", Handler: jsonSquare})

	var got []int
	for v := range outc {
		got = append(got, v)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("got %d results, want 10", len(got))
	}
}

func TestMasterRejectsBadVersion(t *testing.T) {
	_, pool := newTestMaster(t, Config{})
	ln := netsim.NewListener("master", netsim.Loopback)
	defer ln.Close()
	go pool.ServeWS(ln)

	conn, _, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	ch := transport.NewWSock(conn, transport.Config{HeartbeatInterval: -1})
	// Wrong protocol version (a stale volunteer binary).
	if err := ch.Send(mustHello("/pando/0.0.1")); err != nil {
		t.Fatal(err)
	}
	reply, err := ch.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Err == "" {
		t.Fatalf("expected rejection, got %+v", reply)
	}
}

func TestMasterAdaptiveFasterDeviceProcessesMore(t *testing.T) {
	// Table 2's % columns: throughput share tracks device speed.
	m, pool := newTestMaster(t, Config{})
	ln := netsim.NewListener("master", netsim.LAN)
	defer ln.Close()
	go pool.ServeWS(ln)

	out := m.Bind(pullstream.Count(80))
	startVolunteer(t, ln, &worker.Volunteer{Name: "fast", Handler: jsonSquare, Delay: 500 * time.Microsecond})
	startVolunteer(t, ln, &worker.Volunteer{Name: "slow", Handler: jsonSquare, Delay: 8 * time.Millisecond})

	if _, err := pullstream.Collect(out); err != nil {
		t.Fatal(err)
	}
	var fast, slow int
	for _, w := range m.Stats() {
		switch w.Name {
		case "fast":
			fast = w.Items
		case "slow":
			slow = w.Items
		}
	}
	if fast <= slow {
		t.Fatalf("fast processed %d <= slow %d; lending must be adaptive", fast, slow)
	}
	if fast+slow != 80 {
		t.Fatalf("accounting mismatch: %d + %d != 80", fast, slow)
	}
}

func TestMasterWebRTCVolunteer(t *testing.T) {
	// End-to-end WAN-style deployment: volunteer bootstraps through the
	// public server and computes over the direct channel (paper §5.4).
	// The explicit timeout keeps the failure detector honest about the
	// link it watches: the WAN profile's RTT is 80–100ms, so the default
	// 3x-interval timeout (75ms) would sit inside the round trip and
	// declare a healthy peer dead whenever two jitter draws line up —
	// and this deployment's single volunteer does not rejoin.
	cfg := transport.Config{HeartbeatInterval: 25 * time.Millisecond, HeartbeatTimeout: 300 * time.Millisecond}
	m, pool := newTestMasterOn(t, Config{Flow: sched.Static(4)}, cfg)

	signalLn := netsim.NewListener("public", netsim.WAN)
	srv := transport.NewSignalServer()
	go srv.Serve(signalLn, cfg)
	defer srv.Close()

	directLn := netsim.NewListener("master-direct", netsim.WAN)
	msc, _, err := signalLn.Dial()
	if err != nil {
		t.Fatal(err)
	}
	masterSignal := transport.NewWSock(msc, cfg)
	if err := transport.JoinSignal(masterSignal, "master"); err != nil {
		t.Fatal(err)
	}
	answerer := transport.NewRTCAnswerer(masterSignal, directLn, cfg)
	defer answerer.Close()
	go pool.ServeRTC(answerer)

	out := m.Bind(pullstream.Count(20))

	vsc, _, err := signalLn.Dial()
	if err != nil {
		t.Fatal(err)
	}
	volSignal := transport.NewWSock(vsc, cfg)
	dial := func(addr string) (net.Conn, error) {
		c, _, err := directLn.Dial()
		return c, err
	}
	v := &worker.Volunteer{Name: "planetlab-node", Handler: jsonSquare, CrashAfter: -1, Channel: cfg}
	go v.JoinRTC(volSignal, "planetlab-node", "master", dial)

	got, err := pullstream.Collect(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("got %d results, want 20", len(got))
	}
	for i, r := range got {
		if r != (i+1)*(i+1) {
			t.Fatalf("got[%d] = %d", i, r)
		}
	}
}

func TestWorkerStatsThroughput(t *testing.T) {
	w := WorkerStats{
		Items:     100,
		FirstSeen: time.Unix(0, 0),
		LastSeen:  time.Unix(10, 0),
	}
	if tp := w.Throughput(); tp != 10 {
		t.Fatalf("throughput = %v, want 10", tp)
	}
	empty := WorkerStats{}
	if tp := empty.Throughput(); tp != 0 {
		t.Fatalf("empty throughput = %v, want 0", tp)
	}
}

func TestRegistryRegisterLookup(t *testing.T) {
	worker.Register("test-fn-"+strconv.Itoa(int(time.Now().UnixNano())), jsonSquare)
	if _, ok := worker.Lookup("definitely-missing"); ok {
		t.Fatal("lookup of missing function succeeded")
	}
	if len(worker.Registered()) == 0 {
		t.Fatal("registry empty after registration")
	}
}

func mustHello(version string) *proto.Message {
	return &proto.Message{Type: proto.TypeHello, Version: version}
}

// TestReporterWindowedRates reads the §5.1 windowed rates through the
// reporter: the device's line shows a positive rate, and the summary line
// shows the sum of the devices' rates.
func TestReporterWindowedRates(t *testing.T) {
	m, pool := newTestMaster(t, Config{})
	ln := netsim.NewListener("master-window", netsim.Loopback)
	defer ln.Close()
	go pool.ServeWS(ln)

	out := m.Bind(pullstream.Count(30))
	startVolunteer(t, ln, &worker.Volunteer{Name: "dev", Handler: jsonSquare})
	if _, err := pullstream.Collect(out); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	report(&buf, m.Stats(), 10*time.Second, time.Now())
	per, total := reportedRates(t, buf.String())
	if per["dev"] <= 0 {
		t.Fatalf("dev windowed throughput = %v\n%s", per["dev"], buf.String())
	}
	if total != per["dev"] {
		t.Fatalf("total %v != sum of devices %v\n%s", total, per["dev"], buf.String())
	}
	// A window that opens after completion counts nothing.
	for _, row := range m.Stats() {
		if tp := row.ThroughputWithin(time.Second, time.Now().Add(10*time.Second)); tp != 0 {
			t.Fatalf("stale window shows %v items/s for %s", tp, row.Name)
		}
	}
}

// reportedRates parses one report tick: each device line's items/s by
// name, and the summary line's total.
func reportedRates(t *testing.T, report string) (perDevice map[string]float64, total float64) {
	t.Helper()
	perDevice = make(map[string]float64)
	for _, line := range strings.Split(strings.TrimSpace(report), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 9 && f[2] == "device(s)":
			total, _ = strconv.ParseFloat(f[7], 64)
		case len(f) > 6 && f[6] == "items/s":
			perDevice[f[1]], _ = strconv.ParseFloat(f[5], 64)
		default:
			t.Fatalf("unexpected report line %q", line)
		}
	}
	return perDevice, total
}

func TestWorkerStatsItemsWithin(t *testing.T) {
	// On a whole second, so that each item sits at the start of its bucket
	// and the one-second resolution does not show.
	now := time.Now().Truncate(time.Second)
	var d device
	for i := 0; i < 10; i++ {
		d.record(now.Add(time.Duration(i)*time.Second), 1)
	}
	w := d.snapshot()
	latest := now.Add(9 * time.Second)
	if got := w.ItemsWithin(3500*time.Millisecond, latest); got != 4 {
		t.Fatalf("ItemsWithin(3.5s) = %d, want 4 (t=6,7,8,9)", got)
	}
	if got := w.ItemsWithin(time.Hour, latest); got != 10 {
		t.Fatalf("ItemsWithin(1h) = %d, want 10", got)
	}
	if got := w.Items; got != 10 {
		t.Fatalf("Items = %d, want 10", got)
	}
	// The one bucket of error: an item at t=6.5 is inside the window
	// (6.4, 9.4] but in the second the window's far edge cuts through.
	d.record(now.Add(6500*time.Millisecond), 1)
	if got := w.ItemsWithin(3*time.Second, latest.Add(400*time.Millisecond)); got != 3 {
		t.Fatalf("ItemsWithin(3s) at +0.4s = %d, want 3 (t=7,8,9; t=6.5 falls in the cut bucket)", got)
	}
	// The ring is reused: the same bucket MaxWindow later starts over.
	d.record(now.Add(MaxWindow), 1)
	if got := d.snapshot().ItemsWithin(2*time.Second, now.Add(MaxWindow)); got != 1 {
		t.Fatalf("recycled bucket holds %d items, want 1", got)
	}
}

// TestDeviceAccountingBoundedAndExact streams 10^6 results through one
// device: its accounting must not grow with the stream (it kept a
// timestamp per item for five minutes) and the §5.1 cross-check — the
// devices' totals equal what the output saw — must stay exact while
// several attachments of the device count at once.
func TestDeviceAccountingBoundedAndExact(t *testing.T) {
	m, _ := newTestMaster(t, Config{})
	const attachments, each = 4, 250_000
	d := m.device("dev")
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var wg sync.WaitGroup
	for a := 0; a < attachments; a++ {
		r := &proto.Message{}
		results := pullstream.Map(func(int) *proto.Message { return r })(pullstream.Count(each))
		src := countResults(results, false, m.device("dev"))
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := pullstream.Drain(src, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if got := m.TotalItems(); got != attachments*each {
		t.Fatalf("devices total %d items, output saw %d", got, attachments*each)
	}
	if got := d.snapshot().ItemsWithin(MaxWindow, time.Now()); got > attachments*each || got < attachments*each*9/10 {
		t.Fatalf("ItemsWithin(MaxWindow) = %d after %d fresh results", got, attachments*each)
	}
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 1<<20 {
		t.Fatalf("heap grew %d bytes over %d results: accounting is not bounded", grown, attachments*each)
	}
}

func TestReporterEmitsLines(t *testing.T) {
	m, pool := newTestMaster(t, Config{})
	ln := netsim.NewListener("master-report", netsim.Loopback)
	defer ln.Close()
	go pool.ServeWS(ln)

	var buf syncBuffer
	r := StartReporter(&buf, m.Stats, 10*time.Millisecond, time.Second)

	out := m.Bind(pullstream.Count(20))
	startVolunteer(t, ln, &worker.Volunteer{Name: "dev", Handler: jsonSquare, Delay: time.Millisecond})
	if _, err := pullstream.Collect(out); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // let at least one tick fire
	r.Stop()
	r.Stop() // idempotent

	s := buf.String()
	if !strings.Contains(s, "[pando]") || !strings.Contains(s, "dev") {
		t.Fatalf("report output missing expected lines:\n%s", s)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
