package transport

import (
	"fmt"
	"slices"

	"pando/internal/proto"
)

// This file centralizes the hello/welcome handshake with wire-format
// negotiation, spoken on every admission edge of a deployment: the
// volunteer side (Hello) and the admitting side of a pool (RecvHello,
// then SendWelcome), so the protocol cannot drift between them.
//
// The hello always travels as a v1 frame (the lingua franca any peer
// reads) and lists the formats the client speaks plus, for pool-aware
// volunteers, the processing functions its registry resolves; the
// welcome — also v1 — names the master's choices and carries the
// deployment's whole allowed-format list. Each side switches its
// outgoing frames only after its half concluded; reception sniffs every
// frame, so the switches need no ordering.

// Hello performs the volunteer side of the handshake on ch: it sends the
// hello message (filling in Type, Version and the default format list)
// and validates the welcome, switching the outgoing wire to the
// negotiated format, and returns the welcome, which carries the
// deployment parameters. On error the channel is closed. The caller may
// preset Peer, Formats, Functions, Seq (join incarnation, >0 on rejoins)
// and Token (the volunteer instance nonce that lets the master sever the
// departed incarnation's sessions).
func Hello(ch Channel, hello *proto.Message) (*proto.Message, error) {
	hello.Type = proto.TypeHello
	hello.Version = proto.Version
	if len(hello.Formats) == 0 {
		hello.Formats = proto.SupportedFormats()
	}
	if err := ch.Send(hello); err != nil {
		ch.Close()
		return nil, err
	}
	welcome, err := ch.Recv()
	if err != nil {
		ch.Close()
		return nil, err
	}
	// Error paths release the welcome frame back to the arena; its string
	// fields are decode-time copies, so errors built from them stay valid.
	if welcome.Type == proto.TypeError {
		rerr := fmt.Errorf("transport: rejected: %s", welcome.Err)
		proto.Release(welcome)
		ch.Close()
		return nil, rerr
	}
	if welcome.Type != proto.TypeWelcome {
		rerr := fmt.Errorf("transport: unexpected handshake reply %q", welcome.Type)
		proto.Release(welcome)
		ch.Close()
		return nil, rerr
	}
	// An empty Wire means a pre-negotiation master, which always speaks
	// v1. Either way the selection must be something this peer advertised.
	chosen := welcome.Wire
	if chosen == "" {
		chosen = proto.Version
	}
	wf, ok := proto.LookupFormat(chosen)
	if !ok || !slices.Contains(hello.Formats, chosen) {
		rerr := fmt.Errorf("transport: master selected unsupported wire format %q (supported: %v)", chosen, hello.Formats)
		proto.Release(welcome)
		ch.Close()
		return nil, rerr
	}
	ch.SetWire(wf)
	return welcome, nil
}

// RecvHello receives and validates the hello half of an admission and
// negotiates the wire format strictly against the allowed list (refusing
// peers that share none rather than silently falling back). It does NOT
// reply: a shared pool must first route the volunteer to a job before it
// can name the function in the welcome. On error the peer is sent a
// TypeError frame and the channel is closed.
func RecvHello(ch Channel, allowed []string) (*proto.Message, proto.WireFormat, error) {
	hello, err := ch.Recv()
	if err != nil {
		ch.Close()
		return nil, nil, err
	}
	if err := proto.CheckHello(hello); err != nil {
		proto.Release(hello)
		_ = ch.Send(&proto.Message{Type: proto.TypeError, Err: err.Error()})
		ch.Close()
		return nil, nil, err
	}
	wire, err := proto.NegotiateStrict(allowed, hello.Formats)
	if err != nil {
		proto.Release(hello)
		_ = ch.Send(&proto.Message{Type: proto.TypeError, Err: err.Error()})
		ch.Close()
		return nil, nil, err
	}
	return hello, wire, nil
}

// SendWelcome completes the admitting half: it replies with a welcome
// naming the routed function, the batch bound and the negotiated wire
// (carrying the deployment's allowed-format list), then switches
// outgoing frames. On error the channel is closed.
func SendWelcome(ch Channel, funcName string, batch int, wire proto.WireFormat, allowed []string) error {
	if err := ch.Send(&proto.Message{
		Type:    proto.TypeWelcome,
		Func:    funcName,
		Batch:   batch,
		Wire:    wire.Name(),
		Formats: allowed,
	}); err != nil {
		ch.Close()
		return fmt.Errorf("transport: welcome: %w", err)
	}
	ch.SetWire(wire)
	return nil
}
