package proto

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"
)

// compressibleData returns n bytes that DEFLATE collapses well, so the
// v3 writer's first probe always chooses the compressed encoding.
func compressibleData(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31 + 7)
	}
	return b
}

// v3Frame encodes m through a fresh v3 instance (neutral policy state)
// and returns the complete frame bytes.
func v3Frame(t testing.TB, m *Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := NewCompressedWire().WriteFrame(&buf, m); err != nil {
		t.Fatalf("v3 write: %v", err)
	}
	return buf.Bytes()
}

// forgeV3 assembles a v3 frame by hand — declared raw length, arbitrary
// "compressed" bytes, and a *valid* CRC over them — so tests can reach
// the inflate error paths that live behind the CRC check.
func forgeV3(declaredLen uint64, flateBytes []byte) []byte {
	body := []byte{cmpMagic}
	body = binary.AppendUvarint(body, declaredLen)
	body = append(body, flateBytes...)
	body = binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	return append(frame, body...)
}

// TestCompressedFrameRoundTrip pins the v3 envelope end to end: a
// compressible payload must come back byte-identical (through the
// format's own reader and through the sniffing global ReadFrame), must
// actually travel compressed, and every message field must survive.
func TestCompressedFrameRoundTrip(t *testing.T) {
	in := &Message{
		Type: TypeInput, Seq: 41, Data: compressibleData(4096),
		Digest: bytes.Repeat([]byte{0xAB}, 32),
	}
	frame := v3Frame(t, in)
	if frame[4] != cmpMagic {
		t.Fatalf("compressible frame body starts with %#x, want compressed magic %#x", frame[4], cmpMagic)
	}
	var v2 bytes.Buffer
	if err := V2.WriteFrame(&v2, in); err != nil {
		t.Fatal(err)
	}
	if len(frame) >= v2.Len() {
		t.Errorf("compressed frame is %d bytes, raw v2 is %d — no gain", len(frame), v2.Len())
	}
	for _, read := range []struct {
		name string
		m    *Message
		err  error
	}{
		{name: "v3 reader"}, {name: "sniffing ReadFrame"},
	} {
		var m *Message
		var err error
		if read.name == "v3 reader" {
			m, err = NewCompressedWire().ReadFrame(bytes.NewReader(frame))
		} else {
			m, err = ReadFrame(bytes.NewReader(frame))
		}
		if err != nil {
			t.Fatalf("%s: %v", read.name, err)
		}
		if m.Type != in.Type || m.Seq != in.Seq || !bytes.Equal(m.Data, in.Data) || !bytes.Equal(m.Digest, in.Digest) {
			t.Fatalf("%s: round trip mismatch: %+v", read.name, m)
		}
		Release(m)
	}

	// Small frames stay on the raw fast path and still decode.
	small := &Message{Type: TypePing, Seq: 7}
	sf := v3Frame(t, small)
	if sf[4] != binMagic {
		t.Fatalf("small frame body starts with %#x, want raw v2 magic %#x", sf[4], binMagic)
	}
	m, err := NewCompressedWire().ReadFrame(bytes.NewReader(sf))
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != TypePing || m.Seq != 7 {
		t.Fatalf("small frame mismatch: %+v", m)
	}
	Release(m)

	// Incompressible data past the size floor is tried, loses, and ships
	// as exactly the v2 frame: v3 never inflates it.
	noise := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(noise)
	noisy := &Message{Type: TypeInput, Seq: 8, Data: noise}
	v2.Reset()
	if err := V2.WriteFrame(&v2, noisy); err != nil {
		t.Fatal(err)
	}
	if nf := v3Frame(t, noisy); !bytes.Equal(nf, v2.Bytes()) {
		t.Fatalf("incompressible frame: v3 sent %d bytes, want the %d-byte v2 frame", len(nf), v2.Len())
	}
}

// TestCompressedFrameCorruption pins every corruption class to a decode
// error — never a panic, never a silently wrong message. This is the
// degrade-to-crash-stop contract: the channel reader surfaces the error
// and the engine treats the peer as crashed.
func TestCompressedFrameCorruption(t *testing.T) {
	good := v3Frame(t, &Message{Type: TypeInput, Seq: 9, Data: compressibleData(2048)})

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
		"garbage flate, valid CRC": forgeV3(64,
			[]byte{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x11, 0x22, 0x33}),
		"declared length too short": forgeV3(32, deflated),
		"declared length too long":  forgeV3(128, deflated),
		"oversize declared length":  forgeV3(uint64(MaxFrameSize)+1, deflated),
		"unterminated varint": forgeV3Raw(t, append([]byte{cmpMagic},
			0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80)),
	}
	// A single flipped bit in the compressed body must fail the CRC.
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x01
	cases["flipped bit"] = flipped

	for name, frame := range cases {
		if m, err := NewCompressedWire().ReadFrame(bytes.NewReader(frame)); err == nil {
			t.Errorf("%s: decoded %+v, want error", name, m)
			Release(m)
		}
	}
}

// forgeV3Raw wraps an arbitrary body (already starting with cmpMagic)
// with a valid CRC trailer and length prefix.
func forgeV3Raw(t *testing.T, body []byte) []byte {
	t.Helper()
	if body[0] != cmpMagic {
		t.Fatal("forgeV3Raw: body must start with cmpMagic")
	}
	body = binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	return append(frame, body...)
}

// FuzzCompressedFrame throws adversarial bytes at the v3 reader —
// truncations, garbage DEFLATE bodies behind valid CRCs, lying length
// declarations — and round-trips the fuzzer's payload through a fresh
// v3 writer. Decoding must never panic and never return a message that
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
		_ = NewCompressedWire().WriteFrame(&buf, m)
		f.Add(buf.Bytes(), []byte(nil))
		if buf.Len() > 8 {
			f.Add(buf.Bytes()[:buf.Len()-6], []byte(nil)) // truncation
		}
	}
	// Hostile hand-built bodies: bare magic, magic with only a CRC, a
	// valid CRC over garbage flate bytes, varint abuse.
	f.Add(append(binary.BigEndian.AppendUint32(nil, 1), cmpMagic), []byte(nil))
	f.Add(forgeV3(512, []byte{0xFF, 0xFF, 0x00, 0xAA}), []byte(nil))
	f.Add(forgeV3(1<<40, []byte{0x01}), []byte(nil))
	f.Add([]byte{0x00, 0x00, 0x00, 0x06, cmpMagic, 0x80, 0x80, 0x80, 0x80, 0x80}, []byte(nil))
	// Round-trip payload seeds.
	f.Add([]byte(nil), compressibleData(4096))
	f.Add([]byte(nil), bytes.Repeat([]byte{0x42}, 600))

	f.Fuzz(func(t *testing.T, frame, payload []byte) {
		// Adversarial read: any bytes, never a panic, nil error implies a
		// message.
		if m, err := NewCompressedWire().ReadFrame(bytes.NewReader(frame)); err == nil {
			if m == nil {
				t.Fatal("nil message with nil error")
			}
			Release(m)
		}

		// Round trip: whatever the policy chose (compressed or raw), the
		// reader must hand back exactly what was written — through the
		// writing format and through the sniffing global ReadFrame.
		if len(payload) > MaxFrameSize/2 {
			return
		}
		in := &Message{Type: TypeInput, Seq: 11, Data: payload}
		var buf bytes.Buffer
		w := NewCompressedWire()
		if err := w.WriteFrame(&buf, in); err != nil {
			t.Fatalf("write: %v", err)
		}
		encoded := buf.Bytes()
		for _, via := range []string{"v3", "sniff"} {
			var m *Message
			var err error
			if via == "v3" {
				m, err = w.ReadFrame(bytes.NewReader(encoded))
			} else {
				m, err = ReadFrame(bytes.NewReader(encoded))
			}
			if err != nil {
				t.Fatalf("%s read back: %v", via, err)
			}
			if m.Type != TypeInput || m.Seq != 11 || !bytes.Equal(m.Data, payload) {
				t.Fatalf("%s round trip mismatch: %+v", via, m)
			}
			Release(m)
		}
	})
}

// TestCompressFastLinkCountsWireBytes pins what the fast-link test
// measures: the bytes that reach the link. 16 KiB frames that DEFLATE
// tenfold at 2 500 items/s are 4 MB/s on the wire — a slow link kept busy
// by compression, which must stay on — although they are 41 MB/s raw.
func TestCompressFastLinkCountsWireBytes(t *testing.T) {
	const frame = 16 << 10
	cases := []struct {
		name     string
		ratio    float64 // compressed/raw the writer has been observing
		hint     float64 // items/s from the scheduler
		compress bool
	}{
		{"compressible frames, slow link kept busy", 0.1, 2500, true},
		{"no hint yet", 0.1, 0, true},
		{"incompressible frames", 0.95, 2500, false},
		{"compressible frames, wire rate past the fast-link bound", 0.1, 25000, false},
	}
	for _, tc := range cases {
		c := NewCompressedWire().(*compressedWire)
		m := &Message{Type: TypeInput, Data: make([]byte, frame)}
		for i := 0; i < 8; i++ {
			c.observe(frame, int(tc.ratio*frame))
		}
		c.HintRate(tc.hint)
		if got := c.decide(m); got != tc.compress {
			t.Errorf("%s (ratio %.2f, %.0f items/s): decide = %v, want %v", tc.name, tc.ratio, tc.hint, got, tc.compress)
		}
	}
}
