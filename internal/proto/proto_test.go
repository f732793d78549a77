package proto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/iotest"
	"testing/quick"
	"unicode/utf8"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Message{
		Type:    TypeInput,
		Seq:     42,
		Data:    []byte(`{"cameraPos":"1.57"}`),
		Version: Version,
	}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.Seq != in.Seq || !bytes.Equal(out.Data, in.Data) {
		t.Fatalf("round trip mismatch: %+v != %+v", out, in)
	}
}

func TestFrameMultipleSequential(t *testing.T) {
	var buf bytes.Buffer
	for i := uint64(0); i < 10; i++ {
		if err := WriteFrame(&buf, &Message{Type: TypeResult, Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 10; i++ {
		m, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if m.Seq != i {
			t.Fatalf("frame %d: seq = %d", i, m.Seq)
		}
	}
	if _, err := ReadFrame(&buf); !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want EOF", err)
	}
}

func TestFrameTooLargeOnRead(t *testing.T) {
	var buf bytes.Buffer
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], MaxFrameSize+1)
	buf.Write(lenBuf[:])
	if _, err := ReadFrame(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestFrameTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Message{Type: TypePing}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	truncated := bytes.NewReader(raw[:len(raw)-2])
	if _, err := ReadFrame(truncated); err == nil {
		t.Fatal("expected error on truncated frame")
	}
}

func TestCheckHello(t *testing.T) {
	ok := &Message{Type: TypeHello, Version: Version, Func: "render"}
	if err := CheckHello(ok); err != nil {
		t.Fatal(err)
	}
	if err := CheckHello(&Message{Type: TypePing}); err == nil {
		t.Fatal("expected error for wrong type")
	}
	bad := &Message{Type: TypeHello, Version: "/pando/0.9.0"}
	if err := CheckHello(bad); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(seq uint64, data []byte, errStr string, peer string) bool {
		var buf bytes.Buffer
		in := &Message{Type: TypeResult, Seq: seq, Data: data, Err: errStr, Peer: peer}
		if err := WriteFrame(&buf, in); err != nil {
			return false
		}
		out, err := ReadFrame(&buf)
		if err != nil {
			return false
		}
		return out.Seq == in.Seq &&
			bytes.Equal(out.Data, in.Data) &&
			out.Err == in.Err &&
			out.Peer == in.Peer
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// FuzzReadFrame exercises the framing layer — both wire formats, since
// ReadFrame sniffs the body — against adversarial bytes. Without -fuzz it
// runs the seed corpus as a regular test; with
// `go test -fuzz=FuzzReadFrame ./internal/proto` it explores further.
func FuzzReadFrame(f *testing.F) {
	// Well-formed v1 and v2 frames.
	var good bytes.Buffer
	_ = WriteFrame(&good, &Message{Type: TypeInput, Seq: 3, Data: []byte(`"x"`)})
	f.Add(good.Bytes())
	var goodBin bytes.Buffer
	_ = V2.WriteFrame(&goodBin, &Message{Type: TypeInput, Seq: 3, Data: []byte{0x00, 0xFF}})
	f.Add(goodBin.Bytes())
	// Pool-era hellos: a Functions list in both formats, and a reassign
	// frame (type code 15).
	var helloFns bytes.Buffer
	_ = V1.WriteFrame(&helloFns, &Message{Type: TypeHello, Version: Version,
		Functions: []string{"collatz", "render"}, Formats: SupportedFormats()})
	f.Add(helloFns.Bytes())
	var helloFnsBin bytes.Buffer
	_ = V2.WriteFrame(&helloFnsBin, &Message{Type: TypeHello, Version: Version,
		Functions: []string{"collatz", "render"}, Formats: SupportedFormats()})
	f.Add(helloFnsBin.Bytes())
	var reassign bytes.Buffer
	_ = V2.WriteFrame(&reassign, &Message{Type: TypeReassign, Func: "mining"})
	f.Add(reassign.Bytes())
	// Verification-era results: a digest-bearing TypeResult in both wire
	// formats (the end-to-end integrity digest rides the same field the
	// dedup layer uses for content addresses).
	digest := bytes.Repeat([]byte{0xD1, 0x6E}, 16)
	var resDig bytes.Buffer
	_ = V1.WriteFrame(&resDig, &Message{Type: TypeResult, Seq: 7, Data: []byte(`42`), Digest: digest})
	f.Add(resDig.Bytes())
	var resDigBin bytes.Buffer
	_ = V2.WriteFrame(&resDigBin, &Message{Type: TypeResultBatch, Seq: 9, Data: []byte{0x01, 0x02}, Digest: digest})
	f.Add(resDigBin.Bytes())
	// Hostile v2 digest field: tag 0x8D with a length running past the
	// frame end, and a bare tag with no length at all.
	f.Add([]byte{0x00, 0x00, 0x00, 0x05, 0xB2, 0x01, 0x05, 0x8D, 0x20})
	f.Add([]byte{0x00, 0x00, 0x00, 0x02, 0xB2, 0x8D})
	// Hostile v2 Functions field: truncated repeated string entry.
	f.Add([]byte{0x00, 0x00, 0x00, 0x04, 0xB2, 0x01, 0x01, 0x8C})
	// Truncations, garbage, hostile lengths.
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x41})
	f.Add([]byte{0x00, 0x00, 0x00, 0x05, '{', '"', 't', '"', ':'})
	f.Add(append([]byte{0x00, 0x00, 0x00, 0x02}, []byte("{}")...))
	// Hostile v2 bodies: bare magic, bad varints, lengths past the end,
	// unknown type code.
	f.Add([]byte{0x00, 0x00, 0x00, 0x01, 0xB2})
	f.Add([]byte{0x00, 0x00, 0x00, 0x03, 0xB2, 0x02, 0x80})
	f.Add([]byte{0x00, 0x00, 0x00, 0x04, 0xB2, 0x82, 0x7F, 0x41})
	f.Add([]byte{0x00, 0x00, 0x00, 0x03, 0xB2, 0x01, 0x7F})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic and never allocate beyond the frame cap.
		m, err := ReadFrame(bytes.NewReader(data))
		if err == nil && m == nil {
			t.Fatal("nil message with nil error")
		}
		// The same bytes through the channel's read path — a small
		// buffered reader, fed one byte per Read — must decode the same.
		bm, berr := ReadFrame(bufio.NewReaderSize(iotest.OneByteReader(bytes.NewReader(data)), 4<<10))
		if (err == nil) != (berr == nil) || !reflect.DeepEqual(m, bm) {
			t.Fatalf("buffered read differs: %+v, %v; direct read %+v, %v", bm, berr, m, err)
		}
	})
}

// FuzzFrameRoundTrip checks Write/Read inversion — Decode(Encode(m)) == m
// — for arbitrary payloads under both wire formats, including the
// pool-era hello fields (a repeated Functions list). A hello written in
// either format must also decode identically through the sniffing
// ReadFrame, which is the v1↔v2 interop property the shared-fleet
// admission path depends on (the hello always travels v1, but relays may
// re-emit it in v2).
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint64(1), []byte("data"), "err", "peer", "collatz", "render")
	f.Add(uint64(0), []byte{}, "", "", "", "")
	f.Add(uint64(7), []byte{0xB2}, "", "dev", "*", "")
	f.Fuzz(func(t *testing.T, seq uint64, data []byte, errStr, peer, fn1, fn2 string) {
		var functions []string
		for _, fn := range []string{fn1, fn2} {
			if fn != "" {
				functions = append(functions, fn)
			}
		}
		strs := append([]string{errStr, peer}, functions...)
		allUTF8 := true
		for _, s := range strs {
			if !utf8.ValidString(s) {
				allUTF8 = false
			}
		}
		var decoded []*Message
		for _, wf := range []WireFormat{V1, V2} {
			// encoding/json replaces invalid UTF-8 in strings with
			// U+FFFD, so the v1 wire cannot round-trip such strings
			// exactly; the binary wire carries them verbatim.
			if wf == V1 && !allUTF8 {
				continue
			}
			var buf bytes.Buffer
			in := &Message{Type: TypeResult, Seq: seq, Data: data, Err: errStr,
				Peer: peer, Functions: functions}
			if err := wf.WriteFrame(&buf, in); err != nil {
				continue // oversize payloads may legitimately fail
			}
			out, err := ReadFrame(&buf)
			if err != nil {
				t.Fatalf("%s: round trip read: %v", wf.Name(), err)
			}
			if out.Seq != seq || !bytes.Equal(out.Data, data) || out.Err != errStr || out.Peer != peer {
				t.Fatalf("%s: round trip mismatch: %+v", wf.Name(), out)
			}
			if len(out.Functions) != len(functions) {
				t.Fatalf("%s: Functions count changed: %v != %v", wf.Name(), out.Functions, functions)
			}
			for i := range functions {
				if out.Functions[i] != functions[i] {
					t.Fatalf("%s: Functions[%d] = %q, want %q", wf.Name(), i, out.Functions[i], functions[i])
				}
			}
			decoded = append(decoded, out)
		}
		// v1↔v2 interop: when both formats carried the message, the two
		// decodings must agree field for field.
		if len(decoded) == 2 {
			a, b := decoded[0], decoded[1]
			if a.Seq != b.Seq || !bytes.Equal(a.Data, b.Data) || a.Err != b.Err ||
				a.Peer != b.Peer || len(a.Functions) != len(b.Functions) {
				t.Fatalf("v1/v2 disagree: %+v != %+v", a, b)
			}
		}
	})
}

// FuzzDecodeBatch exercises the grouped-payload decoders of both formats.
func FuzzDecodeBatch(f *testing.F) {
	jsonBatch, _ := V1.EncodeBatch([]BatchItem{{D: []byte(`1`)}, {E: "x"}})
	f.Add(jsonBatch)
	binBatch, _ := V2.EncodeBatch([]BatchItem{{D: []byte{0xFF}}, {E: "x"}})
	f.Add(binBatch)
	f.Add([]byte{0xB3})
	f.Add([]byte{0xB3, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		items, err := DecodeBatch(data)
		if err != nil {
			return
		}
		// Whatever decoded must re-encode and decode identically in v2.
		re, err := V2.EncodeBatch(items)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := V2.DecodeBatch(re)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if len(back) != len(items) {
			t.Fatalf("item count changed: %d != %d", len(back), len(items))
		}
	})
}
