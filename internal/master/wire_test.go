package master

import (
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"

	"pando/internal/chaos"
	"pando/internal/netsim"
	"pando/internal/proto"
	"pando/internal/transport"
	"pando/internal/worker"
)

// TestAdmitV2OnlyMasterRefusesV1Worker is what a legacy peer now meets: a
// raw '/pando/1.0.0' JSON hello frame, as a volunteer of the retired JSON
// wire sends it, reaches the admission of the pool the job is registered
// with. The frame is not a '/pando/2.2.0'
// body, so admission fails promptly with proto.ErrBadFrame, the channel
// closes under the peer, and nothing the attempt started outlives it.
func TestAdmitV2OnlyMasterRefusesV1Worker(t *testing.T) {
	guard := chaos.Guard()
	m, pool := newTestMaster(t, Config{})
	p := netsim.NewPipe(netsim.Loopback)

	errc := make(chan error, 1)
	go func() { errc <- pool.Admit(transport.NewWSock(p.A, transport.Config{})) }()

	hello := `{"t":"hello","v":"/pando/1.0.0","p":"legacy","fmts":["/pando/1.0.0"]}`
	frame := append(binary.BigEndian.AppendUint32(nil, uint32(len(hello))), hello...)
	if _, err := p.B.Write(frame); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, proto.ErrBadFrame) {
			t.Fatalf("Admit error = %v, want proto.ErrBadFrame", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("admission of a JSON hello did not fail within 2s")
	}
	// The master closed the channel without a word: the peer reads EOF.
	_ = p.B.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, err := p.B.Read(make([]byte, 64)); !errors.Is(err, io.EOF) {
		t.Fatalf("legacy peer read %d bytes, %v; want io.EOF", n, err)
	}
	if len(m.Stats()) != 0 {
		t.Fatalf("refused peer accounted as a worker: %v", m.Stats())
	}
	p.B.Close()
	m.Close()
	pool.Close()
	if err := guard.Check(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestAdmitClosedMasterRefuses: admission to a closed deployment (the job
// and its pool closed) must refuse the handshake with ErrClosed instead of
// attaching the volunteer to it.
func TestAdmitClosedMasterRefuses(t *testing.T) {
	m, pool := newTestMaster(t, Config{})
	m.Close()
	pool.Close()

	p := netsim.NewPipe(netsim.Loopback)
	cfg := transport.Config{HeartbeatInterval: -1}
	masterCh := transport.NewWSock(p.A, cfg)

	errc := make(chan error, 1)
	go func() { errc <- pool.Admit(masterCh) }()

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
