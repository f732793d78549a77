// Package proto defines the wire protocol spoken between a Pando master,
// its volunteers, and the public (signalling) server. It is the Go
// rendering of the '/pando/1.0.0' protocol the paper's Figure 2 refers to:
// a worker declares which protocol version its processing function targets
// and the master streams inputs and collects results over a framed,
// heartbeat-monitored message channel.
//
// Two wire formats share the same outer framing (a 4-byte big-endian body
// length): '/pando/1.0.0' encodes the body as JSON, keeping the protocol
// debuggable and mirroring the JavaScript original, while '/pando/2.1.0'
// encodes it as binary tag-length-value fields with varint lengths and raw
// payload bytes, removing the base64 inflation JSON imposes on []byte
// payloads. Bodies are self-describing (a v2 body starts with a magic byte
// no JSON body can start with), so a reader accepts both formats at any
// time; which format a peer *writes* is negotiated during the
// hello/welcome handshake (see WireFormat and Negotiate).
package proto

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Version is the baseline protocol version tag, mirroring the
// '/pando/1.0.0' property of the paper's programming interface (Figure 2).
// Every peer speaks it; hellos always declare it so v1-only masters admit
// newer workers unchanged.
const Version = "/pando/1.0.0"

// Version2 tags the binary wire format: same message vocabulary, binary
// tag-length-value envelope, raw payload bytes (no base64), varint
// lengths, and binary grouped batches.
const Version2 = "/pando/2.1.0"

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
	// previous job precedes the echo. Pre-pool workers ignore the frame
	// (unknown control messages are skipped), which is why masters only
	// reassign workers whose hello advertised a Functions list.
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

// Message is the single envelope used for every exchange. Unused fields
// are omitted from the wire encoding.
type Message struct {
	Type Type   `json:"t"`
	Seq  uint64 `json:"seq,omitempty"` // input/result sequence number
	Data []byte `json:"d,omitempty"`   // payload (JSON or opaque bytes)
	Err  string `json:"e,omitempty"`   // error carried by a result

	// Digest is the SHA-256 of a content-addressed payload (the
	// '/pando/2.2.0' dedup extension): on an input it names Data (present
	// alongside the bytes on first transmission, alone on later ones), and
	// on blobmiss/blob frames it names the payload being fetched. Decoded
	// from a v2 body it aliases the frame buffer like Data does — copy it
	// before retaining it past Release.
	Digest []byte `json:"dg,omitempty"`

	// Handshake fields.
	Version string `json:"v,omitempty"`  // protocol version
	Func    string `json:"f,omitempty"`  // processing function name
	Cores   int    `json:"c,omitempty"`  // worker parallelism
	Batch   int    `json:"b,omitempty"`  // values in flight (Limiter bound)
	Token   string `json:"tk,omitempty"` // deployment invitation token

	// Wire-format negotiation (hello/welcome only). A worker's hello
	// lists the formats it can speak, best first; the master's welcome
	// names the one chosen for the rest of the session. Absent fields
	// mean v1, which is how pre-negotiation peers interoperate.
	Formats []string `json:"fmts,omitempty"` // hello: supported wire formats
	Wire    string   `json:"w,omitempty"`    // welcome: selected wire format

	// Functions (hello only) lists every processing function the
	// volunteer's registry can resolve, sorted — what lets a shared pool
	// route the device to any job it can serve and reassign it when that
	// job completes. The single entry "*" advertises "any function"
	// (volunteers with an explicit handler or resolver). An absent list
	// marks a pre-pool volunteer: it is routed once, to a compatible job,
	// and never reassigned. On a rejoin after a transient failure the
	// hello also carries Seq (the volunteer's join incarnation, >0 on
	// rejoins) and Token (a per-volunteer-instance nonce), so the master
	// can sever the departed incarnation's half-open sessions instead of
	// waiting for their heartbeats to time out.
	Functions []string `json:"fns,omitempty"`

	// Signalling fields.
	Peer string `json:"p,omitempty"`  // sender peer ID
	To   string `json:"to,omitempty"` // destination peer ID
	Addr string `json:"a,omitempty"`  // candidate network address

	// buf is the pooled frame buffer backing Data when the message was
	// decoded from the arena's read path; Release returns it. See pool.go
	// for the ownership rules.
	buf []byte
}

// BatchItem is one element of a grouped input or result frame.
type BatchItem struct {
	// D is the payload.
	D []byte `json:"d,omitempty"`
	// E is a per-item error (results only).
	E string `json:"e,omitempty"`
}

// DecodeBatch parses a grouped frame's Data field, accepting both the v1
// JSON array and the v2 binary batch encoding (a binary batch starts with
// a magic byte no JSON value can start with).
func DecodeBatch(data []byte) ([]BatchItem, error) {
	if len(data) > 0 && data[0] == binBatchMagic {
		return V2.DecodeBatch(data)
	}
	return V1.DecodeBatch(data)
}

// Errors returned by the framing layer.
var (
	ErrFrameTooLarge = errors.New("proto: frame exceeds maximum size")
	ErrBadVersion    = errors.New("proto: protocol version mismatch")
	ErrBadFrame      = errors.New("proto: malformed frame body")
)

// WriteFrame encodes m as one v1 frame on w, the pre-negotiation default.
func WriteFrame(w io.Writer, m *Message) error {
	return V1.WriteFrame(w, m)
}

// writeBody length-prefixes body and writes the frame with one Write from
// an arena buffer, so the v1 path allocates nothing beyond its JSON. A
// body too large for the arena goes out as two ordered Writes instead of
// being copied; callers serialize writes per connection, so the two
// cannot interleave with another frame.
func writeBody(w io.Writer, body []byte) error {
	if len(body) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	inline := 4+len(body) <= maxPooledBuf
	size := 4
	if inline {
		size += len(body)
	}
	frame := binary.BigEndian.AppendUint32(GetBuf(size), uint32(len(body)))
	if inline {
		frame = append(frame, body...)
	}
	_, err := w.Write(frame)
	PutBuf(frame)
	if err == nil && !inline {
		_, err = w.Write(body)
	}
	if err != nil {
		return fmt.Errorf("proto: write frame: %w", err)
	}
	return nil
}

// readBody reads one length-prefixed frame body from r into a pooled
// buffer. The caller owns the buffer: either PutBuf it once decoded, or
// hand it to the decoded Message (adoptBuf) so Release reclaims it.
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

// ReadFrame decodes one frame from r, accepting either wire format: the
// body's first byte distinguishes a v2 binary envelope from v1 JSON.
// Readers therefore never depend on negotiation state, which keeps the
// hello/welcome format switch race-free even with heartbeats in flight.
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
	if len(body) > 0 && body[0] == binMagic {
		m := GetMessage()
		if err := decodeBinaryBodyInto(m, body); err != nil {
			Release(m)
			PutBuf(body)
			return nil, err
		}
		m.adoptBuf(body)
		return m, nil
	}
	if len(body) > 0 && body[0] == cmpMagic {
		raw, err := decodeCompressedBody(body)
		PutBuf(body)
		if err != nil {
			return nil, err
		}
		m := GetMessage()
		if err := decodeBinaryBodyInto(m, raw); err != nil {
			Release(m)
			PutBuf(raw)
			return nil, err
		}
		m.adoptBuf(raw)
		return m, nil
	}
	m := GetMessage()
	err = json.Unmarshal(body, m)
	// v1 JSON decoding copies every field out of the body (base64 []byte
	// included), so the read buffer recycles immediately.
	PutBuf(body)
	if err != nil {
		Release(m)
		return nil, fmt.Errorf("proto: unmarshal: %w", err)
	}
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
