package proto

import (
	"io"
	"sync/atomic"
)

// WireVersion tags the one wire encoding: binary envelopes with
// per-frame DEFLATE (compress.go) and content-addressed payload
// references (Message.Digest, resolved by the transport's dedup halves).
const WireVersion = "/pando/2.2.0"

// WireFormat is the write side of one channel's '/pando/2.2.0' encoding:
// it decides frame by frame whether the DEFLATE layer pays for itself and
// writes either a compressed envelope or a raw one. Each channel owns one
// (a WSock embeds it) because the fast-link test reads per-link state;
// the zero value is ready to use. Fields are atomics: SendBatch encodes
// via AppendFrame outside the channel's write lock, concurrently with Send.
type WireFormat struct {
	rateHint  atomic.Uint64 // float64 bits; items/s hint from the scheduler
	ewmaBytes atomic.Uint64 // float64 bits; smoothed raw frame size
	ewmaRatio atomic.Uint64 // float64 bits; smoothed compressed/raw ratio
}

// LookupFormat resolves a format by its tag: WireVersion yields a fresh
// instance, anything else nothing.
func LookupFormat(name string) (*WireFormat, bool) {
	if name != WireVersion {
		return nil, false
	}
	return new(WireFormat), true
}

// WriteFrame encodes m as one frame on w.
func (c *WireFormat) WriteFrame(w io.Writer, m *Message) error {
	frame := c.appendCompressedFrame(GetBuf(binaryFrameSize(m)), m)
	m.wire = len(frame)
	return writeFrame(w, frame)
}

// ReadFrame decodes one frame from r; reading needs no per-channel state,
// so it is the package-level ReadFrame.
func (c *WireFormat) ReadFrame(r io.Reader) (*Message, error) { return ReadFrame(r) }

// AppendFrame appends one complete frame (length prefix included) to dst
// and returns the extended buffer. It is the building block of vectored
// batch sends: a channel packs several frames back to back in one arena
// buffer and hands the result to a single write.
func (c *WireFormat) AppendFrame(dst []byte, m *Message) ([]byte, error) {
	start := len(dst)
	dst = c.appendCompressedFrame(dst, m)
	if len(dst)-start-4 > MaxFrameSize {
		return dst[:start], ErrFrameTooLarge
	}
	m.wire = len(dst) - start
	return dst, nil
}
