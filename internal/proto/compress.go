package proto

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// This file implements the compression layer of the '/pando/2.2.0' wire:
// the binary envelope (binary.go) wrapped, frame by frame, in an optional
// DEFLATE layer. A compressed body is
//
//	magic byte 0xB4,
//	uvarint raw (inflated) body length,
//	DEFLATE stream of a complete raw body (magic 0xB2 ... inner CRC),
//	then a 4-byte little-endian CRC32 (IEEE) of everything before it.
//
// The trailing CRC is computed over the *compressed* bytes, so a flipped
// bit on the link is detected before the inflater ever runs: corruption
// surfaces as ErrBadFrame, the channel fails, and the engine re-lends —
// the same degrade-to-crash-stop contract the raw body's trailer
// establishes. The inflated payload is a byte-exact raw body (its own CRC
// included), so the decoder is the raw one; compression composes with the
// envelope instead of forking it.
//
// Compression is decided frame by frame, from the frame itself: the
// writer deflates every frame whose Data reaches cmpMinData and ships the
// result only if it beats the raw body by the gain check; frames it
// leaves raw are plain 0xB2 bodies. Readers sniff each body, so the mix
// needs no signalling. No history of earlier frames and no state of the
// link decides a frame's fate, so a compressible frame after a run of
// incompressible ones is compressed. Both coders run out of pooled state
// (flate coders, arena buffers), so the hot path performs no allocation
// per frame.

// cmpMagic is the first body byte of a compressed envelope.
const cmpMagic = 0xB4

// Compression policy constants.
const (
	// cmpMinData is the smallest Data payload worth compressing; control
	// frames and small results stay on the raw fast path.
	cmpMinData = 512
	// cmpGainNum/cmpGainDen: a compressed body must shrink below
	// num/den of the raw body or the raw encoding is sent instead (the
	// deflate overhead is not worth single-digit savings).
	cmpGainNum = 15
	cmpGainDen = 16
)

// flateEncoder bundles a flate.Writer with its reusable append sink so
// one pool hit services the whole encode path.
type flateEncoder struct {
	w  *flate.Writer
	sw sliceWriter
}

var flateEncoderPool = sync.Pool{New: func() any {
	fw, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
	return &flateEncoder{w: fw}
}}

// deflate appends the DEFLATE stream of src to dst, returning the
// extended buffer. The encoder state is pooled; the destination is
// caller-owned (typically an arena buffer).
func deflate(dst, src []byte) ([]byte, error) {
	e := flateEncoderPool.Get().(*flateEncoder)
	e.sw.buf = dst
	e.w.Reset(&e.sw)
	_, werr := e.w.Write(src)
	cerr := e.w.Close()
	out := e.sw.buf
	e.sw.buf = nil
	flateEncoderPool.Put(e)
	if werr != nil {
		return dst, werr
	}
	if cerr != nil {
		return dst, cerr
	}
	return out, nil
}

// flateDecoder bundles a flate reader with its reusable source so
// inflating a frame allocates nothing in steady state. The one-byte
// scratch lives here because a local array passed through the reader
// interface escapes — one heap byte per frame.
type flateDecoder struct {
	r   io.ReadCloser
	br  bytes.Reader
	one [1]byte
}

var flateDecoderPool = sync.Pool{New: func() any {
	d := &flateDecoder{}
	d.r = flate.NewReader(&d.br)
	return d
}}

// inflate decompresses src into dst (which must be pre-sized to the
// expected raw length) and fails unless the stream inflates to exactly
// len(dst) bytes.
func inflate(dst, src []byte) error {
	d := flateDecoderPool.Get().(*flateDecoder)
	d.br.Reset(src)
	if err := d.r.(flate.Resetter).Reset(&d.br, nil); err != nil {
		flateDecoderPool.Put(d)
		return err
	}
	_, err := io.ReadFull(d.r, dst)
	if err == nil {
		// The stream must end exactly at the declared raw length.
		if n, _ := d.r.Read(d.one[:]); n != 0 {
			err = fmt.Errorf("%w: inflated body exceeds declared length", ErrBadFrame)
		}
	}
	flateDecoderPool.Put(d)
	return err
}

// appendCompressedFrame appends one complete frame to b: either a
// compressed envelope or, when Data is under cmpMinData or the gain check
// says raw wins, a raw one. Appending into a caller-owned buffer keeps the vectored
// batch path (AppendFrame) alloc-free.
func appendCompressedFrame(b []byte, m *Message) []byte {
	if len(m.Data) < cmpMinData {
		return appendBinaryFrame(b, m)
	}
	// Encode the complete raw body into a scratch arena buffer, then
	// compress it. The scratch recycles before return on every path.
	scratch := appendBinaryFrame(GetBuf(binaryFrameSize(m)), m)
	raw := scratch[4:] // strip the length prefix; the compressed body carries its own
	start := len(b)
	b = append(b, 0, 0, 0, 0) // length prefix, filled in below
	b = append(b, cmpMagic)
	b = binary.AppendUvarint(b, uint64(len(raw)))
	compressed, err := deflate(b, raw)
	if err != nil {
		// Deflate failures are exceptional (a broken pool state); fall
		// back to the raw encoding rather than failing the channel.
		PutBuf(scratch)
		return appendBinaryFrame(b[:start], m)
	}
	b = compressed
	compLen := len(b) - start - 4
	if compLen*cmpGainDen >= len(raw)*cmpGainNum {
		// Not worth it: ship the already-encoded raw frame bytes.
		b = append(b[:start], scratch...)
		PutBuf(scratch)
		return b
	}
	PutBuf(scratch)
	sum := crc32.ChecksumIEEE(b[start+4:])
	b = binary.LittleEndian.AppendUint32(b, sum)
	binary.BigEndian.PutUint32(b[start:start+4], uint32(len(b)-start-4))
	return b
}

// decodeCompressedBody verifies and inflates a compressed body (including
// the magic byte), returning the inflated raw body in a fresh arena buffer.
// The caller owns the returned buffer; src is untouched.
func decodeCompressedBody(body []byte) ([]byte, error) {
	if len(body) == 0 || body[0] != cmpMagic {
		return nil, fmt.Errorf("%w: missing compressed-body magic", ErrBadFrame)
	}
	if len(body) < 1+binCRCSize {
		return nil, fmt.Errorf("%w: compressed body shorter than its CRC trailer", ErrBadFrame)
	}
	payload := body[:len(body)-binCRCSize]
	sum := binary.LittleEndian.Uint32(body[len(body)-binCRCSize:])
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("%w: CRC mismatch (corrupted compressed frame)", ErrBadFrame)
	}
	rest := payload[1:]
	rawLen, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad raw-length varint", ErrBadFrame)
	}
	if rawLen > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	rest = rest[n:]
	raw := GetBuf(int(rawLen))[:rawLen]
	if err := inflate(raw, rest); err != nil {
		PutBuf(raw)
		return nil, fmt.Errorf("%w: inflate: %v", ErrBadFrame, err)
	}
	return raw, nil
}
