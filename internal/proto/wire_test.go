package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"
	"testing/quick"
)

// withCRC appends the CRC trailer to a hand-built body so tests reach
// the field-level validation behind the integrity check.
func withCRC(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

func fullMessage() *Message {
	return &Message{
		Type:    TypeHello,
		Seq:     123456789,
		Data:    []byte{0x00, 0xFF, 0xB2, '"', '{'},
		Err:     "boom",
		Version: Version,
		Func:    "render",
		Cores:   8,
		Service: 4321,
		Token:   "tok",
		Peer:    "iPhone SE",
		To:      "master",
		Addr:    "10.0.0.1:4242",
	}
}

func TestBinaryFrameRoundTrip(t *testing.T) {
	in := fullMessage()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out.buf = nil // compare payload fields, not arena bookkeeping
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestBinaryFrameOmitsEmptyFields(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Message{Type: TypePing}); err != nil {
		t.Fatal(err)
	}
	// 4-byte prefix + magic + tag + 1-byte type code + 4-byte CRC.
	if got := buf.Len(); got != 11 {
		t.Fatalf("ping frame is %d bytes, want 11", got)
	}
	m, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != TypePing {
		t.Fatalf("type = %q", m.Type)
	}
}

func TestBinaryFrameUnknownTypeString(t *testing.T) {
	in := &Message{Type: Type("future-extension")}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type {
		t.Fatalf("type = %q, want %q", out.Type, in.Type)
	}
}

// TestReadFrameSniffsBothFormats interleaves raw (0xB2) and compressed
// (0xB4) bodies on one stream, the mix a channel's adaptive writer
// produces: the reader must take each body for what its magic byte says.
func TestReadFrameSniffsBothFormats(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Message{Type: TypeInput, Seq: 1, Data: []byte(`"a"`)}); err != nil {
		t.Fatal(err)
	}
	compressed := wireFrame(t, &Message{Type: TypeInput, Seq: 2, Data: compressibleData(4 << 10)})
	if compressed[4] != cmpMagic {
		t.Fatalf("compressible frame went out with magic %#x", compressed[4])
	}
	buf.Write(compressed)
	if err := WriteFrame(&buf, &Message{Type: TypePing}); err != nil {
		t.Fatal(err)
	}
	for i, want := range []uint64{1, 2, 0} {
		m, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if m.Seq != want {
			t.Fatalf("frame %d: seq = %d, want %d", i, m.Seq, want)
		}
	}
}

// jsonFrame frames body the way the retired JSON wire did: a length
// prefix and the JSON text.
func jsonFrame(body string) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// TestBinaryFrameStrictReader: a JSON body — what a peer of the retired
// JSON wire writes — is a malformed frame, not a message.
func TestBinaryFrameStrictReader(t *testing.T) {
	frame := jsonFrame(`{"t":"hello","v":"/pando/1.0.0"}`)
	if _, err := ReadFrame(bytes.NewReader(frame)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("JSON body read as %v, want ErrBadFrame", err)
	}
}

func TestBinaryFrameTruncations(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, fullMessage()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Every strict prefix must fail cleanly, never panic.
	for cut := 0; cut < len(raw); cut++ {
		if _, err := ReadFrame(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded successfully", cut, len(raw))
		}
	}
}

func TestBinaryBodyCorruptions(t *testing.T) {
	cases := map[string][]byte{
		"empty after magic ok but no type": withCRC([]byte{binMagic}),
		"bad varint":                       withCRC([]byte{binMagic, tagSeq, 0x80}),
		"length past end":                  withCRC([]byte{binMagic, tagData, 0x05, 'a'}),
		"no CRC trailer":                   {binMagic, tagType, 0x07},
	}
	for name, body := range cases {
		if err := decodeBinaryBodyInto(new(Message), body); err == nil {
			t.Errorf("%s: decoded successfully", name)
		}
	}
}

// TestBinaryBodyUnknownTypeCode: a type code from a newer peer must not
// kill the channel — it decodes to an opaque type the receive loops skip,
// like an unknown type string.
func TestBinaryBodyUnknownTypeCode(t *testing.T) {
	m := new(Message)
	if err := decodeBinaryBodyInto(m, withCRC([]byte{binMagic, tagType, 0x7F})); err != nil {
		t.Fatal(err)
	}
	if m.Type == "" {
		t.Fatal("unknown type code decoded to an empty type")
	}
}

func TestBinaryBodySkipsUnknownTags(t *testing.T) {
	body := []byte{binMagic}
	body = append(body, 0x70, 0x05)             // unknown numeric field
	body = append(body, 0xF0, 0x02, 0xAA, 0xBB) // unknown length-delimited field
	body = append(body, tagType, 0x07)          // ping
	m := new(Message)
	if err := decodeBinaryBodyInto(m, withCRC(body)); err != nil {
		t.Fatal(err)
	}
	if m.Type != TypePing {
		t.Fatalf("type = %q, want ping", m.Type)
	}

	// A reader older than the service stamp knows tag 0x05 as this one
	// knows 0x70: it skips the field and reads the rest of the frame.
	stamped := []byte{binMagic, tagType, 0x04, tagSeq, 0x09, tagService, 0xAC, 0x02, tagData, 0x02, 'h', 'i'}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Message{Type: TypeResult, Seq: 9, Service: 300, Data: []byte("hi")}); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes()[4:]; !bytes.Equal(got, withCRC(stamped)) {
		t.Fatalf("stamped result body % x, want % x", got, withCRC(stamped))
	}
	older := bytes.Clone(stamped)
	older[5] = 0x70
	for _, tc := range []struct {
		body    []byte
		service uint64
	}{{stamped, 300}, {older, 0}} {
		m := new(Message)
		if err := decodeBinaryBodyInto(m, withCRC(tc.body)); err != nil {
			t.Fatal(err)
		}
		if m.Type != TypeResult || m.Seq != 9 || string(m.Data) != "hi" || m.Service != tc.service {
			t.Fatalf("decoded %+v, want result 9 \"hi\" stamped %d", m, tc.service)
		}
	}

	// An older master's welcome names its batch under tag 0x04, now
	// reserved: this reader skips the field and reads the rest.
	welcome := []byte{binMagic, tagType, byte(typeCodes[TypeWelcome]), tagBatch, 0x04, tagFunc, 0x03, 's', 'q', 'r'}
	m = new(Message)
	if err := decodeBinaryBodyInto(m, withCRC(welcome)); err != nil {
		t.Fatal(err)
	}
	if want := (&Message{Type: TypeWelcome, Func: "sqr"}); !reflect.DeepEqual(m, want) {
		t.Fatalf("older welcome decoded %+v, want %+v", m, want)
	}
}

// TestServiceStampRoundTrip: the service stamp survives raw and
// compressed frames, and a zero stamp takes no byte on the wire.
func TestServiceStampRoundTrip(t *testing.T) {
	for _, data := range [][]byte{[]byte("7"), compressibleData(4096)} {
		in := &Message{Type: TypeResult, Seq: 3, Data: data, Service: 123456}
		frame := wireFrame(t, in)
		if compressed := frame[4] == cmpMagic; compressed != (len(data) > 1) {
			t.Fatalf("%d B result: compressed %v", len(data), compressed)
		}
		m, err := ReadFrame(bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		if m.Service != in.Service || !bytes.Equal(m.Data, data) {
			t.Fatalf("%d B result (magic %#x): stamp %d, want %d", len(data), frame[4], m.Service, in.Service)
		}
		Release(m)
	}
	var bare, stamped bytes.Buffer
	if err := WriteFrame(&bare, &Message{Type: TypeResult, Seq: 3}); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&stamped, &Message{Type: TypeResult, Seq: 3, Service: 1}); err != nil {
		t.Fatal(err)
	}
	if bare.Len() != stamped.Len()-2 || bytes.IndexByte(bare.Bytes()[5:bare.Len()-binCRCSize], tagService) >= 0 {
		t.Fatalf("unstamped frame % x, stamped % x: want the stamp's two bytes absent", bare.Bytes(), stamped.Bytes())
	}
}

func TestBinaryBatchRoundTrip(t *testing.T) {
	items := []BatchItem{
		{D: []byte("alpha")},
		{E: "failed"},
		{D: []byte{0xB3, 0x00, 0xFF}, E: "both"},
		{},
	}
	got, err := DecodeBatchShared(EncodeBatch(items))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(items, got) {
		t.Fatalf("round trip mismatch: %+v != %+v", got, items)
	}
}

func TestBinaryBatchRejectsHostileCounts(t *testing.T) {
	// Claims 2^32 items in a 3-byte body: must fail before allocating.
	data := []byte{binBatchMagic, 0x80, 0x80, 0x80, 0x80, 0x10}
	if _, err := DecodeBatchShared(data); err == nil {
		t.Fatal("hostile count decoded successfully")
	}
	// Trailing garbage after a valid batch.
	ok := EncodeBatch([]BatchItem{{D: []byte("x")}})
	if _, err := DecodeBatchShared(append(ok, 0x00)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestDecodeBatchSniffsJSON: a JSON array — the retired JSON wire's
// batch — fails on its first byte instead of decoding as anything.
func TestDecodeBatchSniffsJSON(t *testing.T) {
	if _, err := DecodeBatchShared([]byte(`[{"d":"MQ=="},{"d":"Mg=="}]`)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("JSON batch decoded as %v, want ErrBadFrame", err)
	}
}

// TestLookupFormat: the one wire tag resolves; the retired tags and
// unknown ones do not.
func TestLookupFormat(t *testing.T) {
	if f, ok := LookupFormat(WireVersion); !ok || f == nil {
		t.Fatalf("LookupFormat(%q) = %p, %v", WireVersion, f, ok)
	}
	for _, name := range []string{Version, "/pando/2.1.0", "/pando/0.1.0"} {
		if _, ok := LookupFormat(name); ok {
			t.Fatalf("LookupFormat(%q) resolved", name)
		}
	}
}

// TestQuickBinaryRoundTrip property-checks Decode(Encode(m)) == m over
// the binary format, the ISSUE's round-trip acceptance property.
func TestQuickBinaryRoundTrip(t *testing.T) {
	f := func(seq uint64, data []byte, errStr, peer, fn string, cores uint16) bool {
		in := &Message{
			Type: TypeResult, Seq: seq, Data: data, Err: errStr,
			Peer: peer, Func: fn, Cores: int(cores),
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, in); err != nil {
			return false
		}
		out, err := ReadFrame(&buf)
		if err != nil {
			return false
		}
		if len(in.Data) == 0 {
			in.Data = nil // empty and absent are equivalent on the wire
		}
		out.buf = nil // compare payload fields, not arena bookkeeping
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkWireEnvelope round-trips a payload-free control frame and a
// 16 KiB compressible payload through one channel's wire format; see also
// the end-to-end BenchmarkWire* workload benchmarks in the repo root.
func BenchmarkWireEnvelope(b *testing.B) {
	for _, tc := range []struct {
		name string
		data []byte
	}{{"control", nil}, {"16KiB", bytes.Repeat([]byte{0xA5}, 16<<10)}} {
		b.Run(tc.name, func(b *testing.B) {
			wf := new(WireFormat)
			m := &Message{Type: TypeInput, Seq: 7, Data: tc.data}
			var buf bytes.Buffer
			var frameLen int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := wf.WriteFrame(&buf, m); err != nil {
					b.Fatal(err)
				}
				frameLen = buf.Len() // before ReadFrame drains the buffer
				got, err := ReadFrame(&buf)
				if err != nil {
					b.Fatal(err)
				}
				Release(got)
			}
			b.SetBytes(int64(frameLen))
			b.ReportMetric(float64(frameLen), "wire-bytes/frame")
		})
	}
}

// TestBinaryFrameRejectsBitFlips is the chaos-suite regression for the
// CRC trailer: flipping any single bit anywhere in a frame (length
// prefix included) must produce a read error, never a silently different
// message — on the wire, corruption has to degrade to a connection
// failure the crash-stop machinery already handles.
func TestBinaryFrameRejectsBitFlips(t *testing.T) {
	var buf bytes.Buffer
	in := &Message{Type: TypeResult, Seq: 32, Data: []byte(`"s32-ok"`)}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for i := 0; i < len(raw); i++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), raw...)
			mut[i] ^= 1 << bit
			if m, err := ReadFrame(bytes.NewReader(mut)); err == nil {
				t.Fatalf("byte %d bit %d flipped: decoded %+v instead of failing", i, bit, m)
			}
		}
	}
}
