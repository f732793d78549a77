package transport

import (
	"fmt"

	"pando/internal/proto"
)

// This file centralizes the hello/welcome handshake, spoken on every
// admission edge of a deployment: the volunteer side (Hello) and the
// admitting side of a pool (RecvHello, then SendWelcome), so the protocol
// cannot drift between them. Both frames travel in the channel's one wire
// format like every other frame; the hello declares the API version
// (proto.Version) and the processing functions the volunteer advertises,
// and the welcome names the routed function and the batch bound.

// Hello performs the volunteer side of the handshake on ch: it sends the
// hello message (filling in Type and Version), validates the reply and
// returns the welcome, which carries the deployment parameters. On error
// the channel is closed. The caller may preset Peer, Functions, Seq (join
// incarnation, >0 on rejoins) and Token (the volunteer instance nonce
// that lets the master sever the departed incarnation's sessions).
func Hello(ch *WSock, hello *proto.Message) (*proto.Message, error) {
	hello.Type = proto.TypeHello
	hello.Version = proto.Version
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
	if welcome.Type != proto.TypeWelcome {
		rerr := fmt.Errorf("transport: unexpected handshake reply %q", welcome.Type)
		if welcome.Type == proto.TypeError {
			rerr = fmt.Errorf("transport: rejected: %s", welcome.Err)
		}
		proto.Release(welcome)
		ch.Close()
		return nil, rerr
	}
	return welcome, nil
}

// RecvHello receives and validates the hello half of an admission. It
// does NOT reply: a shared pool must first route the volunteer to a job
// before it can name the function in the welcome. On error the peer is
// sent a TypeError frame (when it got as far as a well-formed hello) and
// the channel is closed.
func RecvHello(ch *WSock) (*proto.Message, error) {
	hello, err := ch.Recv()
	if err != nil {
		ch.Close()
		return nil, err
	}
	if err := proto.CheckHello(hello); err != nil {
		proto.Release(hello)
		_ = ch.Send(&proto.Message{Type: proto.TypeError, Err: err.Error()})
		ch.Close()
		return nil, err
	}
	return hello, nil
}

// SendWelcome completes the admitting half: it replies with a welcome
// naming the routed function. On error the channel is closed.
func SendWelcome(ch Channel, funcName string) error {
	if err := ch.Send(&proto.Message{Type: proto.TypeWelcome, Func: funcName}); err != nil {
		ch.Close()
		return fmt.Errorf("transport: welcome: %w", err)
	}
	return nil
}
