package transport

import (
	"encoding"
	"encoding/binary"
	"fmt"

	"pando/internal/proto"
)

// This file holds payload codecs beyond the JSON default (duplex.go).
// The binary envelope does not inflate Data, so the payload codec decides whether a workload pays any serialization cost at
// all: RawCodec makes []byte-shaped values (image tiles, ray-trace
// buffers) cross the wire untouched, and BinaryCodec plugs in a type's
// own MarshalBinary/UnmarshalBinary.

// RawCodec passes []byte payloads through untouched: the bytes appear on
// the wire verbatim (unless the wire compresses the frame) — no JSON, no
// base64.
type RawCodec struct{}

// Encode returns b unchanged.
func (RawCodec) Encode(b []byte) ([]byte, error) { return b, nil }

// Decode returns data unchanged.
func (RawCodec) Decode(data []byte) ([]byte, error) { return data, nil }

// DecodeAliases reports true: the decoded value IS the frame payload, so
// receive loops detach the frame buffer before recycling the envelope.
func (RawCodec) DecodeAliases() bool { return true }

var _ Codec[[]byte] = RawCodec{}
var _ AliasingCodec = RawCodec{}

// BinaryCodec encodes values through their own encoding.BinaryMarshaler /
// BinaryUnmarshaler implementations. The second type parameter is the
// pointer form carrying UnmarshalBinary; instantiate it as
// BinaryCodec[T, *T].
type BinaryCodec[T encoding.BinaryMarshaler, PT interface {
	*T
	encoding.BinaryUnmarshaler
}] struct{}

// Encode marshals v with its MarshalBinary.
func (BinaryCodec[T, PT]) Encode(v T) ([]byte, error) { return v.MarshalBinary() }

// Decode unmarshals data with the type's UnmarshalBinary.
func (BinaryCodec[T, PT]) Decode(data []byte) (T, error) {
	var v T
	if err := PT(&v).UnmarshalBinary(data); err != nil {
		var zero T
		return zero, err
	}
	return v, nil
}

// DecodeAliases reports true: an arbitrary UnmarshalBinary may keep
// sub-slices of its input (the interface contract does not forbid it), so
// the arena must assume the decoded value shares the frame.
func (BinaryCodec[T, PT]) DecodeAliases() bool { return true }

// ListCodec makes a group of values one stream item: it is the Codec[[]T]
// over an element codec, which is all the grouped data plane is — the
// same duplex, engine, journal and spill store, carrying lists. Encode
// and Decode frame the group for everything off the wire (journal
// entries, spilled results, verification digests):
// a uvarint count, then each value as a uvarint length + its encoding.
// On the wire MasterDuplex recognizes the codec and packs the same
// element encodings into binary batch frames (TypeInputBatch /
// TypeResultBatch) instead, and re-frames each result batch into this
// framing once, as it accepts it.
type ListCodec[T any] struct{ Elem Codec[T] }

// Encode frames vs into one payload.
func (c ListCodec[T]) Encode(vs []T) ([]byte, error) {
	items, err := c.encodeItems(vs)
	if err != nil {
		return nil, err
	}
	return appendList(nil, items), nil
}

// appendList appends the list framing of items to dst.
func appendList(dst []byte, items []proto.BatchItem) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(items)))
	for _, it := range items {
		dst = binary.AppendUvarint(dst, uint64(len(it.D)))
		dst = append(dst, it.D...)
	}
	return dst
}

// Decode reverses Encode. It is strict: trailing garbage or a short
// buffer is an error, so a stale or foreign journal entry is skipped
// (recomputed) rather than half-restored.
func (c ListCodec[T]) Decode(data []byte) ([]T, error) {
	n, off := binary.Uvarint(data)
	if off <= 0 {
		return nil, fmt.Errorf("transport: list count: truncated")
	}
	if n > uint64(len(data)) {
		// Each member needs at least its length prefix; a count larger
		// than the buffer is corrupt (and would over-allocate).
		return nil, fmt.Errorf("transport: list count %d exceeds payload", n)
	}
	vs := make([]T, n)
	for i := range vs {
		ln, k := binary.Uvarint(data[off:])
		if k <= 0 || ln > uint64(len(data)-off-k) {
			return nil, fmt.Errorf("transport: list member %d: truncated", i)
		}
		off += k
		v, err := c.Elem.Decode(data[off : off+int(ln)])
		if err != nil {
			return nil, fmt.Errorf("transport: decode list member %d: %w", i, err)
		}
		vs[i] = v
		off += int(ln)
	}
	if off != len(data) {
		return nil, fmt.Errorf("transport: list payload has %d trailing bytes", len(data)-off)
	}
	return vs, nil
}

// DecodeAliases reports whether the element codec's values alias.
func (c ListCodec[T]) DecodeAliases() bool { return Aliases(c.Elem) }

// encodeItems maps a group to one BatchItem per member: the wire half (see
// batchCodec), which hands them to the channel's batch packing, and the
// inside of Encode.
func (c ListCodec[T]) encodeItems(vs []T) ([]proto.BatchItem, error) {
	items := make([]proto.BatchItem, len(vs))
	for i, v := range vs {
		data, err := c.Elem.Encode(v)
		if err != nil {
			return nil, fmt.Errorf("transport: encode list member %d: %w", i, err)
		}
		items[i].D = data
	}
	return items, nil
}

// batchCodec is how MasterDuplex tells a list codec from a plain one: a
// codec with the item method travels as batch frames.
type batchCodec[T any] interface {
	encodeItems(T) ([]proto.BatchItem, error)
}
