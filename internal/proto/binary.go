package proto

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// This file implements the binary envelope of the '/pando/2.2.0' wire,
// the raw body every frame carries (compressed or not, see compress.go).
// After the 4-byte big-endian length prefix the body is
//
//	magic byte 0xB2, then a sequence of fields:
//	  tag byte with the high bit clear:  uvarint value      (numeric)
//	  tag byte with the high bit set:    uvarint length + raw bytes
//	then a 4-byte little-endian CRC32 (IEEE) of everything before it.
//
// Zero-valued fields are omitted and unknown tags are skipped (the high
// bit tells a decoder how), so fields can be added without breaking older
// peers. Message types are one-byte codes instead of strings, and Data
// travels as raw bytes.
//
// The CRC trailer exists because the chaos suite injects byte-level drop
// and corruption on simulated links: without an integrity check, a
// flipped bit inside a payload or a seq varint decodes as a *valid* frame
// carrying wrong data, silently corrupting the output stream — the one
// failure mode the crash-stop design cannot absorb. With the trailer, any
// corruption surfaces as ErrBadFrame, the channel fails, and the engine
// re-lends the peer's values: corruption degrades to a crash, which the
// stack already tolerates.
//
// Grouped batches (the Data field of inputs/results frames) get their own
// compact encoding: magic 0xB3, uvarint item count, then per item a
// uvarint payload length + payload and a uvarint error length + error;
// batches ride inside a frame body, so the frame CRC covers them.

const (
	binMagic      = 0xB2 // first body byte of a raw envelope
	binBatchMagic = 0xB3 // first byte of a batch payload
	binCRCSize    = 4    // CRC32 trailer bytes at the end of a raw body
)

// Field tags. The high bit selects the wire kind so unknown tags remain
// skippable: clear = uvarint value, set = uvarint length + bytes.
const (
	tagType    = 0x01 // type code (see typeCodes)
	tagSeq     = 0x02
	tagCores   = 0x03
	tagBatch   = 0x04 // reserved: older masters' welcome batch, which no worker read
	tagService = 0x05 // worker service time in µs (a session's first result)

	tagTypeStr = 0x81 // type as string, for types without a code
	tagData    = 0x82
	tagErr     = 0x83
	tagVersion = 0x84
	tagFunc    = 0x85
	tagToken   = 0x86
	tagPeer    = 0x87
	tagTo      = 0x88
	tagAddr    = 0x89
	tagFunc2   = 0x8C // repeated, one per registered function (hello)
	tagDigest  = 0x8D // SHA-256 content address (dedup extension)
)

// typeCodes maps every known message type to a one-byte code; codeTypes
// is the inverse. Code 0 is reserved (meaning "encoded as tagTypeStr").
var typeCodes = map[Type]uint64{
	TypeHello: 1, TypeWelcome: 2,
	TypeInput: 3, TypeResult: 4,
	TypeInputBatch: 5, TypeResultBatch: 6,
	TypePing: 7, TypePong: 8,
	TypeGoodbye: 9,
	TypeJoin:    10, TypeOffer: 11, TypeAnswer: 12, TypeCandidate: 13,
	TypeError: 14, TypeReassign: 15,
	TypeBlobMiss: 16, TypeBlob: 17,
}

var codeTypes = func() map[uint64]Type {
	m := make(map[uint64]Type, len(typeCodes))
	for t, c := range typeCodes {
		m[c] = t
	}
	return m
}()

func appendUint(b []byte, tag byte, v uint64) []byte {
	if v == 0 {
		return b
	}
	b = append(b, tag)
	return binary.AppendUvarint(b, v)
}

func appendBytes(b []byte, tag byte, v []byte) []byte {
	if len(v) == 0 {
		return b
	}
	b = append(b, tag)
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func appendString(b []byte, tag byte, v string) []byte {
	if v == "" {
		return b
	}
	b = append(b, tag)
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

// binaryFrameSize estimates the encoded size of m (length prefix
// included), for sizing the pooled encode buffer without regrowth.
func binaryFrameSize(m *Message) int {
	n := 4 + len(m.Data) + len(m.Err) + len(m.Version) + len(m.Func) +
		len(m.Token) + len(m.Peer) + len(m.To) + len(m.Addr) + len(m.Digest) + 64
	for _, f := range m.Functions {
		n += len(f) + 11
	}
	return n
}

// appendBinaryFrame appends one complete raw frame — length prefix, body,
// CRC trailer — to b and returns the extended buffer. Appending into a
// caller-owned buffer is what lets WriteFrame encode into the arena and
// SendBatch pack several frames back to back for one vectored write.
func appendBinaryFrame(b []byte, m *Message) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0) // length prefix, filled in below
	b = append(b, binMagic)
	if code, ok := typeCodes[m.Type]; ok {
		b = appendUint(b, tagType, code)
	} else {
		b = appendString(b, tagTypeStr, string(m.Type))
	}
	b = appendUint(b, tagSeq, m.Seq)
	b = appendUint(b, tagCores, uint64(m.Cores))
	b = appendUint(b, tagService, m.Service)
	b = appendBytes(b, tagData, m.Data)
	b = appendBytes(b, tagDigest, m.Digest)
	b = appendString(b, tagErr, m.Err)
	b = appendString(b, tagVersion, m.Version)
	b = appendString(b, tagFunc, m.Func)
	b = appendString(b, tagToken, m.Token)
	b = appendString(b, tagPeer, m.Peer)
	b = appendString(b, tagTo, m.To)
	b = appendString(b, tagAddr, m.Addr)
	for _, f := range m.Functions {
		b = appendString(b, tagFunc2, f)
	}
	sum := crc32.ChecksumIEEE(b[start+4:])
	b = binary.LittleEndian.AppendUint32(b, sum)
	binary.BigEndian.PutUint32(b[start:start+4], uint32(len(b)-start-4))
	return b
}

// decodeBinaryBodyInto parses a raw body (including the magic byte) into
// m, verifying the CRC trailer first so a corrupted frame fails the
// channel instead of decoding into a plausible message with wrong
// content. m's Data aliases body; the caller decides whether the message
// adopts the buffer (pooled reads) or the buffer outlives it.
func decodeBinaryBodyInto(m *Message, body []byte) error {
	if len(body) == 0 || body[0] != binMagic {
		return fmt.Errorf("%w: missing envelope magic", ErrBadFrame)
	}
	if len(body) < 1+binCRCSize {
		return fmt.Errorf("%w: body shorter than its CRC trailer", ErrBadFrame)
	}
	payload := body[:len(body)-binCRCSize]
	sum := binary.LittleEndian.Uint32(body[len(body)-binCRCSize:])
	if crc32.ChecksumIEEE(payload) != sum {
		return fmt.Errorf("%w: CRC mismatch (corrupted frame)", ErrBadFrame)
	}
	rest := payload[1:]
	for len(rest) > 0 {
		tag := rest[0]
		rest = rest[1:]
		if tag&0x80 == 0 {
			v, n := binary.Uvarint(rest)
			if n <= 0 {
				return fmt.Errorf("%w: bad varint for tag %#x", ErrBadFrame, tag)
			}
			rest = rest[n:]
			switch tag {
			case tagType:
				t, ok := codeTypes[v]
				if !ok {
					// A code from a newer peer: surface an opaque type
					// the receive loops skip, like an unknown type
					// string, instead of failing the whole channel.
					t = Type(fmt.Sprintf("unknown-%d", v))
				}
				m.Type = t
			case tagSeq:
				m.Seq = v
			case tagCores:
				m.Cores = int(v)
			case tagService:
				m.Service = v
			default:
				// Unknown numeric field from a newer peer: skip.
			}
			continue
		}
		l, n := binary.Uvarint(rest)
		if n <= 0 {
			return fmt.Errorf("%w: bad length for tag %#x", ErrBadFrame, tag)
		}
		rest = rest[n:]
		if l > uint64(len(rest)) {
			return fmt.Errorf("%w: field length %d exceeds body", ErrBadFrame, l)
		}
		val := rest[:l]
		rest = rest[l:]
		switch tag {
		case tagTypeStr:
			m.Type = Type(val)
		case tagData:
			// Alias the body: no copy even for large payloads. The body
			// buffer's ownership follows the message (Own) or the
			// caller keeps it alive — see the arena rules in pool.go.
			m.Data = val
		case tagDigest:
			// Aliases the body like Data; retainers copy.
			m.Digest = val
		case tagErr:
			m.Err = string(val)
		case tagVersion:
			m.Version = string(val)
		case tagFunc:
			m.Func = string(val)
		case tagToken:
			m.Token = string(val)
		case tagPeer:
			m.Peer = string(val)
		case tagTo:
			m.To = string(val)
		case tagAddr:
			m.Addr = string(val)
		case tagFunc2:
			m.Functions = append(m.Functions, string(val))
		default:
			// Unknown length-delimited field from a newer peer: skip.
		}
	}
	if m.Type == "" {
		return fmt.Errorf("%w: missing message type", ErrBadFrame)
	}
	return nil
}

// sliceWriter adapts an append-target buffer to io.Writer, the sink the
// pooled DEFLATE encoder writes into.
type sliceWriter struct{ buf []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// EncodeBatch packs grouped payloads for a frame's Data field.
func EncodeBatch(items []BatchItem) []byte {
	size := 16
	for _, it := range items {
		size += len(it.D) + len(it.E) + 10
	}
	b := make([]byte, 0, size)
	b = append(b, binBatchMagic)
	b = binary.AppendUvarint(b, uint64(len(items)))
	for _, it := range items {
		b = binary.AppendUvarint(b, uint64(len(it.D)))
		b = append(b, it.D...)
		b = binary.AppendUvarint(b, uint64(len(it.E)))
		b = append(b, it.E...)
	}
	return b
}

// DecodeBatchShared unpacks a grouped frame's Data field. Item payloads
// alias data instead of being copied: it is for consumers that fully
// process (or copy) every item before the backing frame is released — the
// worker's apply loop, which re-encodes every reply, and the master's
// re-framing of a result batch into one buffer. Retaining an item past
// the frame's release is a use-after-free of arena memory.
func DecodeBatchShared(data []byte) ([]BatchItem, error) {
	if len(data) == 0 || data[0] != binBatchMagic {
		return nil, fmt.Errorf("%w: missing batch magic", ErrBadFrame)
	}
	rest := data[1:]
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad batch count", ErrBadFrame)
	}
	rest = rest[n:]
	// Each item needs at least two varint bytes; reject counts the body
	// cannot possibly hold before allocating for them.
	if count > uint64(len(rest)/2) {
		return nil, fmt.Errorf("%w: batch count %d exceeds body", ErrBadFrame, count)
	}
	items := make([]BatchItem, 0, count)
	for i := uint64(0); i < count; i++ {
		var it BatchItem
		for f := 0; f < 2; f++ {
			l, n := binary.Uvarint(rest)
			if n <= 0 {
				return nil, fmt.Errorf("%w: bad batch item length", ErrBadFrame)
			}
			rest = rest[n:]
			if l > uint64(len(rest)) {
				return nil, fmt.Errorf("%w: batch item length %d exceeds body", ErrBadFrame, l)
			}
			switch {
			case l == 0:
			case f == 1:
				it.E = string(rest[:l])
			default:
				it.D = rest[:l:l]
			}
			rest = rest[l:]
		}
		items = append(items, it)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after batch", ErrBadFrame, len(rest))
	}
	return items, nil
}
