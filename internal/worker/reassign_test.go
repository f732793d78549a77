package worker

import (
	"strconv"
	"testing"
	"time"

	"pando/internal/netsim"
	"pando/internal/proto"
	"pando/internal/transport"
)

// scriptedMaster wraps the master side of a pipe for direct frame play.
func scriptedMaster(t *testing.T) (*transport.WSock, *Volunteer, chan error) {
	t.Helper()
	pipe := netsim.NewPipe(netsim.Loopback)
	cfg := transport.Config{HeartbeatInterval: -1}
	v := &Volunteer{
		Name:       "dev",
		CrashAfter: -1,
		Functions:  []string{"double", "negate"},
		Resolve: func(name string) (Handler, bool) {
			switch name {
			case "double":
				return func(dst, in []byte) ([]byte, error) {
					n, _ := strconv.Atoi(string(in))
					return strconv.AppendInt(dst, int64(2*n), 10), nil
				}, true
			case "negate":
				return func(dst, in []byte) ([]byte, error) {
					n, _ := strconv.Atoi(string(in))
					return strconv.AppendInt(dst, int64(-n), 10), nil
				}, true
			}
			return nil, false
		},
	}
	done := make(chan error, 1)
	go func() { done <- v.JoinWS(pipe.A) }()
	return transport.NewWSock(pipe.B, cfg), v, done
}

func expectFrame(t *testing.T, ch *transport.WSock, want proto.Type) *proto.Message {
	t.Helper()
	for {
		m, err := ch.Recv()
		if err != nil {
			t.Fatalf("recv awaiting %q: %v", want, err)
		}
		if m.Type == want {
			return m
		}
		t.Fatalf("recv = %+v, want %q", m, want)
	}
}

// TestWorkerHandlesReassignMidSession: a reassign frame switches the
// serving function in place — the echo comes after the switch, and
// subsequent inputs run through the new handler.
func TestWorkerHandlesReassignMidSession(t *testing.T) {
	ch, v, done := scriptedMaster(t)

	hello := expectFrame(t, ch, proto.TypeHello)
	if len(hello.Functions) != 2 || hello.Functions[0] != "double" {
		t.Fatalf("hello functions = %v", hello.Functions)
	}
	if err := ch.Send(&proto.Message{Type: proto.TypeWelcome, Func: "double"}); err != nil {
		t.Fatal(err)
	}

	// First job: double.
	_ = ch.Send(&proto.Message{Type: proto.TypeInput, Seq: 1, Data: []byte(`7`)})
	if res := expectFrame(t, ch, proto.TypeResult); string(res.Data) != "14" {
		t.Fatalf("double(7) = %s", res.Data)
	}

	// Reassign to negate; the echo acknowledges the switch.
	_ = ch.Send(&proto.Message{Type: proto.TypeReassign, Func: "negate"})
	if ack := expectFrame(t, ch, proto.TypeReassign); ack.Func != "negate" {
		t.Fatalf("reassign ack = %+v", ack)
	}
	_ = ch.Send(&proto.Message{Type: proto.TypeInput, Seq: 2, Data: []byte(`7`)})
	if res := expectFrame(t, ch, proto.TypeResult); string(res.Data) != "-7" {
		t.Fatalf("negate(7) = %s", res.Data)
	}

	// Both jobs' work counts toward the same device.
	if v.Processed() != 2 {
		t.Fatalf("processed = %d, want 2 across both jobs", v.Processed())
	}

	_ = ch.Send(&proto.Message{Type: proto.TypeGoodbye})
	expectFrame(t, ch, proto.TypeGoodbye)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("serve did not end after goodbye")
	}
}

// TestWorkerRefusesUnknownReassign: reassignment to a function the
// volunteer cannot resolve fails the session loudly (error frame, then
// the channel closes) instead of silently mis-serving.
func TestWorkerRefusesUnknownReassign(t *testing.T) {
	ch, _, done := scriptedMaster(t)
	expectFrame(t, ch, proto.TypeHello)
	_ = ch.Send(&proto.Message{Type: proto.TypeWelcome, Func: "double"})
	_ = ch.Send(&proto.Message{Type: proto.TypeReassign, Func: "no-such-fn"})
	if m := expectFrame(t, ch, proto.TypeError); m.Err == "" {
		t.Fatalf("error frame = %+v", m)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("serve returned nil after an unresolvable reassign")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("serve did not end after refusing the reassign")
	}
}
