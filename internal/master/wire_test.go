package master

import (
	"errors"
	"testing"
	"time"

	"pando/internal/netsim"
	"pando/internal/proto"
	"pando/internal/pullstream"
	"pando/internal/transport"
	"pando/internal/worker"
)

// workerWire waits for the master's accounting to show the device and
// returns its negotiated wire format.
func workerWire(t *testing.T, m *Master[int, int], name string) string {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		for _, w := range m.Stats() {
			if w.Name == name && w.Wire != "" {
				return w.Wire
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("no wire recorded for %q in %v", name, m.Stats())
	return ""
}

// TestAdmitNegotiatesBinaryWire: a format-advertising worker and an
// unrestricted master settle on the newest binary format
// ('/pando/2.2.0') and complete a computation over it.
func TestAdmitNegotiatesBinaryWire(t *testing.T) {
	m := newTestMaster(t, Config{})
	ln := netsim.NewListener("master", netsim.LAN)
	defer ln.Close()
	go m.ServeWS(ln)

	out := m.Bind(pullstream.Count(10))
	startVolunteer(t, ln, &worker.Volunteer{Name: "modern", Handler: jsonSquare, CrashAfter: -1})

	got, err := pullstream.Collect(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("got %d results, want 10", len(got))
	}
	if wire := workerWire(t, m, "modern"); wire != proto.Version3 {
		t.Fatalf("negotiated %q, want %q", wire, proto.Version3)
	}
}

// TestAdmitMasterPinnedToV2 keeps a deployment on '/pando/2.1.0' — no
// compression, no dedup — even for v3-capable workers.
func TestAdmitMasterPinnedToV2(t *testing.T) {
	m := newTestMaster(t, Config{Formats: []string{proto.Version2, proto.Version}})
	ln := netsim.NewListener("master", netsim.LAN)
	defer ln.Close()
	go m.ServeWS(ln)

	out := m.Bind(pullstream.Count(10))
	startVolunteer(t, ln, &worker.Volunteer{Name: "modern", Handler: jsonSquare, CrashAfter: -1})

	if _, err := pullstream.Collect(out); err != nil {
		t.Fatal(err)
	}
	if wire := workerWire(t, m, "modern"); wire != proto.Version2 {
		t.Fatalf("negotiated %q, want %q", wire, proto.Version2)
	}
}

// TestAdmitV1OnlyWorkerFallsBack: a worker that only speaks the JSON wire
// still completes a computation against a v2-capable master — the ISSUE's
// backward-compatibility acceptance criterion.
func TestAdmitV1OnlyWorkerFallsBack(t *testing.T) {
	m := newTestMaster(t, Config{})
	ln := netsim.NewListener("master", netsim.LAN)
	defer ln.Close()
	go m.ServeWS(ln)

	out := m.Bind(pullstream.Count(10))
	startVolunteer(t, ln, &worker.Volunteer{
		Name:    "legacy",
		Handler: jsonSquare,
		Formats: []string{proto.Version},
	})

	got, err := pullstream.Collect(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("got %d results, want 10", len(got))
	}
	for i, v := range got {
		if v != (i+1)*(i+1) {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
	if wire := workerWire(t, m, "legacy"); wire != proto.Version {
		t.Fatalf("negotiated %q, want %q", wire, proto.Version)
	}
}

// TestAdmitMasterPinnedToV1 keeps the whole deployment on the JSON wire
// even for v2-capable workers.
func TestAdmitMasterPinnedToV1(t *testing.T) {
	m := newTestMaster(t, Config{Formats: []string{proto.Version}})
	ln := netsim.NewListener("master", netsim.LAN)
	defer ln.Close()
	go m.ServeWS(ln)

	out := m.Bind(pullstream.Count(5))
	startVolunteer(t, ln, &worker.Volunteer{Name: "modern", Handler: jsonSquare, CrashAfter: -1})

	if _, err := pullstream.Collect(out); err != nil {
		t.Fatal(err)
	}
	if wire := workerWire(t, m, "modern"); wire != proto.Version {
		t.Fatalf("negotiated %q, want %q", wire, proto.Version)
	}
}

// TestAdmitV2OnlyMasterRefusesV1Worker: a deployment that excludes the v1
// fallback refuses a v1-only volunteer instead of silently admitting it
// on an excluded format.
func TestAdmitV2OnlyMasterRefusesV1Worker(t *testing.T) {
	m := newTestMaster(t, Config{Formats: []string{proto.Version2}})

	p := netsim.NewPipe(netsim.Loopback)
	cfg := transport.Config{HeartbeatInterval: -1}
	masterCh := transport.NewWSock(p.A, cfg)

	errc := make(chan error, 1)
	go func() { errc <- m.Admit(masterCh) }()

	v := &worker.Volunteer{Name: "legacy", Handler: jsonSquare, CrashAfter: -1,
		Channel: cfg, Formats: []string{proto.Version}}
	if err := v.JoinWS(p.B); err == nil {
		t.Fatal("v1-only volunteer joined a v2-only master")
	}
	if err := <-errc; !errors.Is(err, proto.ErrNoCommonFormat) {
		t.Fatalf("Admit error = %v, want proto.ErrNoCommonFormat", err)
	}
}

// TestAdmitV1OnlyMasterRefusesV2OnlyWorker: the refusal must key off what
// the volunteer offered, not just the fallback — a peer that declared it
// cannot speak v1 must not be silently admitted on v1.
func TestAdmitV1OnlyMasterRefusesV2OnlyWorker(t *testing.T) {
	m := newTestMaster(t, Config{Formats: []string{proto.Version}})

	p := netsim.NewPipe(netsim.Loopback)
	cfg := transport.Config{HeartbeatInterval: -1}
	masterCh := transport.NewWSock(p.A, cfg)

	errc := make(chan error, 1)
	go func() { errc <- m.Admit(masterCh) }()

	v := &worker.Volunteer{Name: "v2only", Handler: jsonSquare, CrashAfter: -1,
		Channel: cfg, Formats: []string{proto.Version2}}
	if err := v.JoinWS(p.B); err == nil {
		t.Fatal("v2-only volunteer joined a v1-only master")
	}
	if err := <-errc; !errors.Is(err, proto.ErrNoCommonFormat) {
		t.Fatalf("Admit error = %v, want proto.ErrNoCommonFormat", err)
	}
}

// TestAdmitClosedMasterRefuses: Admit on a closed master must refuse the
// handshake with ErrClosed instead of attaching the volunteer to a
// shut-down deployment.
func TestAdmitClosedMasterRefuses(t *testing.T) {
	m := newTestMaster(t, Config{})
	m.Close()

	p := netsim.NewPipe(netsim.Loopback)
	cfg := transport.Config{HeartbeatInterval: -1}
	masterCh := transport.NewWSock(p.A, cfg)

	errc := make(chan error, 1)
	go func() { errc <- m.Admit(masterCh) }()

	v := &worker.Volunteer{Name: "late", Handler: jsonSquare, CrashAfter: -1,
		Channel: cfg}
	joinErr := v.JoinWS(p.B)
	if joinErr == nil {
		t.Fatal("volunteer joined a closed master")
	}

	if err := <-errc; !errors.Is(err, ErrClosed) {
		t.Fatalf("Admit error = %v, want ErrClosed", err)
	}
	if len(m.Stats()) != 0 {
		t.Fatalf("closed master accumulated workers: %v", m.Stats())
	}
}
