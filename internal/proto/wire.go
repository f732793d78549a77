package proto

import "io"

// WireVersion tags the one wire encoding: binary envelopes with
// per-frame DEFLATE (compress.go) and content-addressed payload
// references (Message.Digest, resolved by the transport's dedup halves).
const WireVersion = "/pando/2.2.0"

// WireFormat is the '/pando/2.2.0' encoding: it decides frame by frame,
// from the frame alone, whether the DEFLATE layer pays for itself and
// writes either a compressed envelope or a raw one. It holds no state, so
// the zero value is ready to use and safe for concurrent use.
type WireFormat struct{}

// LookupFormat resolves a format by its tag: WireVersion yields a
// WireFormat, anything else nothing.
func LookupFormat(name string) (*WireFormat, bool) {
	if name != WireVersion {
		return nil, false
	}
	return new(WireFormat), true
}

// WriteFrame encodes m as one frame on w.
func (*WireFormat) WriteFrame(w io.Writer, m *Message) error {
	frame := appendCompressedFrame(GetBuf(binaryFrameSize(m)), m)
	m.wire = len(frame)
	return writeFrame(w, frame)
}

// ReadFrame decodes one frame from r; it is the package-level ReadFrame.
func (*WireFormat) ReadFrame(r io.Reader) (*Message, error) { return ReadFrame(r) }

// AppendFrame appends one complete frame (length prefix included) to dst
// and returns the extended buffer. It is the building block of vectored
// batch sends: a channel packs several frames back to back in one arena
// buffer and hands the result to a single write.
func (*WireFormat) AppendFrame(dst []byte, m *Message) ([]byte, error) {
	start := len(dst)
	dst = appendCompressedFrame(dst, m)
	if len(dst)-start-4 > MaxFrameSize {
		return dst[:start], ErrFrameTooLarge
	}
	m.wire = len(dst) - start
	return dst, nil
}
