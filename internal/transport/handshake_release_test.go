package transport

import (
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"pando/internal/proto"
)

// TestHelloRejectionReleasesWelcome pins the Hello error-path release
// discipline: a rejection frame must be returned to the arena after the
// error is built from its decode-time copies, and the error text must
// survive the release. A leak here would be harmless (a cold path, and
// pool.go's contract lets the GC collect it); reading the frame after
// release would not be. The poison canary scribbles every recycled
// buffer, so if the error were built from state aliasing the frame after
// Release, the assertion on the text would read 0xDB garbage instead of
// passing by luck.
func TestHelloRejectionReleasesWelcome(t *testing.T) {
	prevPoison := proto.SetPoisonPut(true)
	defer proto.SetPoisonPut(prevPoison)
	var errFrames atomic.Int32
	prevObs := proto.SetReleaseObserver(func(m *proto.Message) {
		if m.Type == proto.TypeError {
			errFrames.Add(1)
		}
	})
	defer proto.SetReleaseObserver(prevObs)

	a, b := net.Pipe()
	const rejection = "registry full: volunteer quota exhausted"
	serverErr := make(chan error, 1)
	go func() {
		hello, err := proto.ReadFrame(b)
		if err != nil {
			serverErr <- err
			return
		}
		proto.Release(hello)
		serverErr <- proto.WriteFrame(b, &proto.Message{Type: proto.TypeError, Err: rejection})
	}()

	ch := NewWSock(a, Config{})
	welcome, err := Hello(ch, &proto.Message{Peer: "volunteer-1"})
	if err == nil {
		t.Fatalf("rejected handshake returned welcome %+v and nil error", welcome)
	}
	if !strings.Contains(err.Error(), rejection) {
		t.Fatalf("rejection text lost or corrupted after release: %q", err)
	}
	if serr := <-serverErr; serr != nil {
		t.Fatalf("server side: %v", serr)
	}
	if errFrames.Load() == 0 {
		t.Fatal("rejection frame never returned to the arena (release regression on the Hello error path)")
	}
}
