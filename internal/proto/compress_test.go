package proto

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"
)

// compressibleData returns n bytes that DEFLATE collapses well, so a
// writer's first probe always chooses the compressed encoding.
func compressibleData(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31 + 7)
	}
	return b
}

// wireFrame encodes m through a fresh WireFormat and returns the
// complete frame bytes.
func wireFrame(t testing.TB, m *Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := new(WireFormat).WriteFrame(&buf, m); err != nil {
		t.Fatalf("write: %v", err)
	}
	return buf.Bytes()
}

// forgeCompressed assembles a compressed frame by hand — declared raw length, arbitrary
// "compressed" bytes, and a *valid* CRC over them — so tests can reach
// the inflate error paths that live behind the CRC check.
func forgeCompressed(declaredLen uint64, flateBytes []byte) []byte {
	body := []byte{cmpMagic}
	body = binary.AppendUvarint(body, declaredLen)
	body = append(body, flateBytes...)
	body = binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	return append(frame, body...)
}

// TestCompressedFrameRoundTrip pins the compressed envelope end to end: a
// compressible payload must come back byte-identical, must actually
// travel compressed, and every message field must survive.
func TestCompressedFrameRoundTrip(t *testing.T) {
	in := &Message{
		Type: TypeInput, Seq: 41, Data: compressibleData(4096),
		Digest: bytes.Repeat([]byte{0xAB}, 32),
	}
	frame := wireFrame(t, in)
	if frame[4] != cmpMagic {
		t.Fatalf("compressible frame body starts with %#x, want compressed magic %#x", frame[4], cmpMagic)
	}
	var raw bytes.Buffer
	if err := WriteFrame(&raw, in); err != nil {
		t.Fatal(err)
	}
	if len(frame) >= raw.Len() {
		t.Errorf("compressed frame is %d bytes, raw is %d — no gain", len(frame), raw.Len())
	}
	m, err := ReadFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != in.Type || m.Seq != in.Seq || !bytes.Equal(m.Data, in.Data) || !bytes.Equal(m.Digest, in.Digest) {
		t.Fatalf("round trip mismatch: %+v", m)
	}
	Release(m)

	// Small frames stay on the raw fast path and still decode.
	small := &Message{Type: TypePing, Seq: 7}
	sf := wireFrame(t, small)
	if sf[4] != binMagic {
		t.Fatalf("small frame body starts with %#x, want raw magic %#x", sf[4], binMagic)
	}
	m, err = ReadFrame(bytes.NewReader(sf))
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != TypePing || m.Seq != 7 {
		t.Fatalf("small frame mismatch: %+v", m)
	}
	Release(m)

	// Incompressible data past the size floor is tried, loses, and ships
	// as exactly the raw frame: compression never inflates it.
	noise := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(noise)
	noisy := &Message{Type: TypeInput, Seq: 8, Data: noise}
	raw.Reset()
	if err := WriteFrame(&raw, noisy); err != nil {
		t.Fatal(err)
	}
	if nf := wireFrame(t, noisy); !bytes.Equal(nf, raw.Bytes()) {
		t.Fatalf("incompressible frame: sent %d bytes, want the %d-byte raw frame", len(nf), raw.Len())
	}
}

// TestCompressedFrameCorruption pins every corruption class to a decode
// error — never a panic, never a silently wrong message. This is the
// degrade-to-crash-stop contract: the channel reader surfaces the error
// and the engine treats the peer as crashed.
func TestCompressedFrameCorruption(t *testing.T) {
	good := wireFrame(t, &Message{Type: TypeInput, Seq: 9, Data: compressibleData(2048)})

	// A valid DEFLATE stream of 64 bytes, used to forge frames whose CRC
	// passes but whose declared length lies.
	var deflated []byte
	{
		raw := compressibleData(64)
		var err error
		deflated, err = deflate(nil, raw)
		if err != nil {
			t.Fatal(err)
		}
	}

	cases := map[string][]byte{
		"truncated mid-body":  good[:len(good)-5],
		"truncated to magic":  append(binary.BigEndian.AppendUint32(nil, 1), cmpMagic),
		"missing CRC trailer": append(binary.BigEndian.AppendUint32(nil, 3), cmpMagic, 0x01, 0x02),
		"garbage flate, valid CRC": forgeCompressed(64,
			[]byte{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x11, 0x22, 0x33}),
		"declared length too short": forgeCompressed(32, deflated),
		"declared length too long":  forgeCompressed(128, deflated),
		"oversize declared length":  forgeCompressed(uint64(MaxFrameSize)+1, deflated),
		"unterminated varint": forgeCompressedRaw(t, append([]byte{cmpMagic},
			0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80)),
	}
	// A single flipped bit in the compressed body must fail the CRC.
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x01
	cases["flipped bit"] = flipped

	for name, frame := range cases {
		if m, err := ReadFrame(bytes.NewReader(frame)); err == nil {
			t.Errorf("%s: decoded %+v, want error", name, m)
			Release(m)
		}
	}
}

// forgeCompressedRaw wraps an arbitrary body (already starting with cmpMagic)
// with a valid CRC trailer and length prefix.
func forgeCompressedRaw(t *testing.T, body []byte) []byte {
	t.Helper()
	if body[0] != cmpMagic {
		t.Fatal("forgeCompressedRaw: body must start with cmpMagic")
	}
	body = binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	return append(frame, body...)
}

// FuzzCompressedFrame throws adversarial bytes at the reader —
// truncations, garbage DEFLATE bodies behind valid CRCs, lying length
// declarations — and round-trips the fuzzer's payload through a fresh
// WireFormat. Decoding must never panic and never return a message that
// differs from what was written; corrupt input must surface as an
// error. Run the corpus as a test, or explore with
// `go test -fuzz=FuzzCompressedFrame ./internal/proto`.
func FuzzCompressedFrame(f *testing.F) {
	seedMsgs := []*Message{
		{Type: TypeInput, Seq: 3, Data: compressibleData(2048)},
		{Type: TypeInputBatch, Seq: 8, Data: compressibleData(600), Digest: bytes.Repeat([]byte{1}, 32)},
		{Type: TypePing},
	}
	for _, m := range seedMsgs {
		var buf bytes.Buffer
		_ = new(WireFormat).WriteFrame(&buf, m)
		f.Add(buf.Bytes(), []byte(nil))
		if buf.Len() > 8 {
			f.Add(buf.Bytes()[:buf.Len()-6], []byte(nil)) // truncation
		}
	}
	// Hostile hand-built bodies: bare magic, magic with only a CRC, a
	// valid CRC over garbage flate bytes, varint abuse.
	f.Add(append(binary.BigEndian.AppendUint32(nil, 1), cmpMagic), []byte(nil))
	f.Add(forgeCompressed(512, []byte{0xFF, 0xFF, 0x00, 0xAA}), []byte(nil))
	f.Add(forgeCompressed(1<<40, []byte{0x01}), []byte(nil))
	f.Add([]byte{0x00, 0x00, 0x00, 0x06, cmpMagic, 0x80, 0x80, 0x80, 0x80, 0x80}, []byte(nil))
	// Round-trip payload seeds.
	f.Add([]byte(nil), compressibleData(4096))
	f.Add([]byte(nil), bytes.Repeat([]byte{0x42}, 600))

	f.Fuzz(func(t *testing.T, frame, payload []byte) {
		// Adversarial read: any bytes, never a panic, nil error implies a
		// message.
		if m, err := ReadFrame(bytes.NewReader(frame)); err == nil {
			if m == nil {
				t.Fatal("nil message with nil error")
			}
			Release(m)
		}

		// Round trip: whatever the policy chose (compressed or raw), the
		// reader must hand back exactly what was written.
		if len(payload) > MaxFrameSize/2 {
			return
		}
		in := &Message{Type: TypeInput, Seq: 11, Data: payload}
		var buf bytes.Buffer
		if err := new(WireFormat).WriteFrame(&buf, in); err != nil {
			t.Fatalf("write: %v", err)
		}
		m, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read back: %v", err)
		}
		if m.Type != TypeInput || m.Seq != 11 || !bytes.Equal(m.Data, payload) {
			t.Fatalf("round trip mismatch: %+v", m)
		}
		Release(m)
	})
}

// TestCompressAfterIncompressibleRun: the decision is the frame's own.
// After a run of incompressible 16 KiB frames on one WireFormat, the next
// compressible frame goes out compressed.
func TestCompressAfterIncompressibleRun(t *testing.T) {
	const frame = 16 << 10
	c := new(WireFormat)
	noise := make([]byte, frame)
	rnd := rand.New(rand.NewSource(2))
	var buf bytes.Buffer
	for i := 0; i < 40; i++ {
		rnd.Read(noise)
		buf.Reset()
		if err := c.WriteFrame(&buf, &Message{Type: TypeInput, Seq: uint64(i), Data: noise}); err != nil {
			t.Fatal(err)
		}
		if buf.Bytes()[4] != binMagic {
			t.Fatalf("incompressible frame %d went out compressed", i)
		}
	}
	buf.Reset()
	msg := &Message{Type: TypeInput, Seq: 40, Data: compressibleData(frame)}
	if err := c.WriteFrame(&buf, msg); err != nil {
		t.Fatal(err)
	}
	if buf.Bytes()[4] != cmpMagic {
		t.Fatalf("compressible frame after 40 incompressible ones: body starts with %#x, want compressed magic %#x", buf.Bytes()[4], cmpMagic)
	}
	// No history decides a frame: the same message from a fresh
	// WireFormat is the same bytes.
	if fresh := wireFrame(t, msg); !bytes.Equal(buf.Bytes(), fresh) {
		t.Fatalf("frame after the incompressible run (%d B) differs from a fresh WireFormat's (%d B)", buf.Len(), len(fresh))
	}
}
