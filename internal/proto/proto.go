// Package proto defines the wire protocol spoken between a Pando master,
// its volunteers, and the public (signalling) server. It is the Go
// rendering of the protocol the paper's Figure 2 refers to: a worker
// declares which protocol version its processing function targets
// ('/pando/1.0.0', checked at the hello) and the master streams inputs
// and collects results over a framed, heartbeat-monitored message
// channel.
//
// Every channel speaks one encoding, '/pando/2.2.0', from its first frame
// on, so there is nothing to negotiate. A frame is a 4-byte big-endian
// body length and a body: either a binary tag-length-value envelope with
// varint lengths and raw payload bytes (magic 0xB2, binary.go) or that
// envelope DEFLATE-compressed (magic 0xB4, compress.go). The writer picks
// per frame (see WireFormat); readers sniff the magic byte.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Version is the protocol version tag of the paper's programming
// interface (Figure 2, the '/pando/1.0.0' property): hellos declare it and
// CheckHello and invitations check it. It names the API a processing
// function targets, not the wire encoding (WireVersion).
const Version = "/pando/1.0.0"

// MaxFrameSize bounds a single frame. The paper notes a limitation on the
// size of individual WebRTC messages in the simple-peer library (§5.1);
// we keep an explicit, much larger bound purely as a safety limit.
const MaxFrameSize = 64 << 20 // 64 MiB

// Type enumerates the message kinds.
type Type string

// Message kinds.
const (
	// Handshake.
	TypeHello   Type = "hello"   // worker → master: version, function, cores
	TypeWelcome Type = "welcome" // master → worker: accepted, batch size

	// Data plane.
	TypeInput  Type = "input"  // master → worker: one input value
	TypeResult Type = "result" // worker → master: one result or error

	// Grouped data plane (extension): several values per frame, cutting
	// per-message overhead on high-latency links ("batching inputs for
	// distribution", paper §1/§5.5).
	TypeInputBatch  Type = "inputs"  // master → worker: array of inputs
	TypeResultBatch Type = "results" // worker → master: array of results

	// Liveness (the heartbeat mechanism of WebSockets and WebRTC that
	// Pando's fault-tolerance relies on, paper §1 and §2.4.1).
	TypePing Type = "ping"
	TypePong Type = "pong"

	// Orderly shutdown.
	TypeGoodbye Type = "goodbye"

	// Fleet reassignment (shared volunteer pools): the master moves a
	// still-connected worker to another job mid-session. The frame names
	// the new processing function, like a welcome; the worker echoes it
	// back once it has switched, which doubles as the drain barrier — the
	// channel is ordered and the worker serial, so every result of the
	// previous job precedes the echo. A worker whose hello advertised no
	// Functions list is never sent one: its first job is its only job.
	TypeReassign Type = "reassign"

	// Content-addressed payload dedup (the '/pando/2.2.0' extension). An
	// input whose Data was already transmitted on this channel may travel
	// as a blob reference instead: Data absent, Digest carrying the
	// SHA-256 of the payload. A worker whose cache cannot resolve the
	// digest asks for the bytes with a blobmiss; the master answers with a
	// blob frame carrying both Digest and Data. Both frames ride the
	// existing ordered channel, so the fetch exchange needs no side
	// connection and stays inside the crash-stop fault model.
	TypeBlobMiss Type = "blobmiss" // worker → master: digest not cached
	TypeBlob     Type = "blob"     // master → worker: digest + payload bytes

	// Signalling through the public server (WebRTC bootstrap, Figure 7).
	TypeJoin      Type = "join"      // peer → server: register peer ID
	TypeOffer     Type = "offer"     // peer → server → peer
	TypeAnswer    Type = "answer"    // peer → server → peer
	TypeCandidate Type = "candidate" // connection endpoint advertisement
	TypeError     Type = "error"
)

// Message is the single envelope used for every exchange. Zero-valued
// fields are omitted from the wire encoding.
type Message struct {
	Type Type
	Seq  uint64 // input/result sequence number
	Data []byte // payload (JSON or opaque bytes)
	Err  string // error carried by a result

	// Service is how long the worker's processing function took on this
	// result's input, in µs. WorkerServe stamps the first result of a
	// session and the first after each reassign; every other frame omits
	// it, and a reader that predates the field skips it (tag 0x05, a
	// numeric field). The master's credit controller sizes a fresh window
	// from it.
	Service uint64

	// Digest is the SHA-256 of a content-addressed payload (the
	// '/pando/2.2.0' dedup extension): on an input it names Data (present
	// alongside the bytes on first transmission, alone on later ones), and
	// on blobmiss/blob frames it names the payload being fetched. Results
	// carry none (older workers attached one; masters ignore it). Decoded,
	// it aliases the frame buffer like Data does — copy it before
	// retaining it past Release.
	Digest []byte

	// Handshake fields.
	Version string // protocol version
	Func    string // processing function name
	Cores   int    // worker parallelism
	Token   string // deployment invitation token

	// Functions (hello only) lists every processing function the
	// volunteer's registry can resolve, sorted — what lets a shared pool
	// route the device to any job it can serve and reassign it when that
	// job completes. The single entry "*" advertises "any function"
	// (volunteers with an explicit handler or resolver). A volunteer with
	// an absent list is routed once, to a compatible job, and never
	// reassigned. On a rejoin after a transient failure the
	// hello also carries Seq (the volunteer's join incarnation, >0 on
	// rejoins) and Token (a per-volunteer-instance nonce), so the master
	// can sever the departed incarnation's half-open sessions instead of
	// waiting for their heartbeats to time out.
	Functions []string

	// Signalling fields.
	Peer string // sender peer ID
	To   string // destination peer ID
	Addr string // candidate network address

	// buf is the pooled frame buffer backing Data when the message was
	// decoded from the arena's read path; Release returns it. See pool.go
	// for the ownership rules.
	buf  []byte
	wire int      // see WireLen
	dig  [32]byte // Digest's storage when SetDigest set it
}

// SetDigest sets Digest to d, held in m itself so that an outbound
// frame's digest costs no allocation of its own.
func (m *Message) SetDigest(d [32]byte) {
	m.dig = d
	m.Digest = m.dig[:]
}

// WireLen is the length of the frame the last write of m produced, after
// compression and any rewrite of m (a dedup reference) before it.
func (m *Message) WireLen() int { return m.wire }

// BatchItem is one element of a grouped input or result frame.
type BatchItem struct {
	// D is the payload.
	D []byte
	// E is a per-item error (results only).
	E string
}

// Errors returned by the framing layer.
var (
	ErrFrameTooLarge = errors.New("proto: frame exceeds maximum size")
	ErrBadVersion    = errors.New("proto: protocol version mismatch")
	ErrBadFrame      = errors.New("proto: malformed frame body")
)

// WriteFrame encodes m as one uncompressed frame on w: what a WireFormat
// writes for a frame it leaves raw, for writers that never compress.
func WriteFrame(w io.Writer, m *Message) error {
	// Encode into an arena buffer: the steady-state write path performs no
	// allocation per frame.
	frame := appendBinaryFrame(GetBuf(binaryFrameSize(m)), m)
	return writeFrame(w, frame)
}

// writeFrame writes one encoded frame with a single Write, so interleaved
// writers cannot corrupt the stream boundary mid-frame, and recycles it.
func writeFrame(w io.Writer, frame []byte) error {
	if len(frame)-4 > MaxFrameSize {
		PutBuf(frame)
		return ErrFrameTooLarge
	}
	_, err := w.Write(frame)
	PutBuf(frame)
	if err != nil {
		return fmt.Errorf("proto: write frame: %w", err)
	}
	return nil
}

// readBody reads one length-prefixed frame body from r into a pooled
// buffer. The caller owns the buffer: either PutBuf it once decoded, or
// hand it to the decoded Message (Own) so Release reclaims it.
func readBody(r io.Reader) ([]byte, error) {
	// The prefix buffer comes from the arena too: a stack array would
	// escape through the io.Reader interface call and cost one heap
	// allocation per frame.
	lenBuf := GetBuf(4)[:4]
	if _, err := io.ReadFull(r, lenBuf); err != nil {
		PutBuf(lenBuf)
		return nil, err
	}
	n := binary.BigEndian.Uint32(lenBuf)
	PutBuf(lenBuf)
	if n > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	body := GetBuf(int(n))[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		PutBuf(body)
		return nil, fmt.Errorf("proto: short frame body: %w", err)
	}
	return body, nil
}

// ReadFrame decodes one frame from r. The body's first byte tells a raw
// envelope (0xB2) from a compressed one (0xB4); any other body, a JSON
// one included, fails with ErrBadFrame.
//
// The returned Message comes from the arena: its Data aliases a pooled
// buffer the message owns. Receive loops should Release it once the
// frame is consumed (after Detach when Data escapes); a message that is
// never released is reclaimed by the GC instead of the pool.
func ReadFrame(r io.Reader) (*Message, error) {
	body, err := readBody(r)
	if err != nil {
		return nil, err
	}
	if len(body) > 0 && body[0] == cmpMagic {
		raw, err := decodeCompressedBody(body)
		PutBuf(body)
		if err != nil {
			return nil, err
		}
		body = raw
	}
	m := GetMessage()
	if err := decodeBinaryBodyInto(m, body); err != nil {
		Release(m)
		PutBuf(body)
		return nil, err
	}
	m.Own(body)
	return m, nil
}

// CheckHello validates a worker's hello message.
func CheckHello(m *Message) error {
	if m.Type != TypeHello {
		return fmt.Errorf("proto: expected hello, got %q", m.Type)
	}
	if m.Version != Version {
		return fmt.Errorf("%w: got %q, want %q", ErrBadVersion, m.Version, Version)
	}
	return nil
}
