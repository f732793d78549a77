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

// FuzzReadFrame exercises the framing layer — raw and compressed bodies,
// since ReadFrame sniffs the body — against adversarial bytes. Without
// -fuzz it runs the seed corpus as a regular test; with
// `go test -fuzz=FuzzReadFrame ./internal/proto` it explores further.
func FuzzReadFrame(f *testing.F) {
	// Well-formed frames, raw and compressed.
	var good bytes.Buffer
	_ = WriteFrame(&good, &Message{Type: TypeInput, Seq: 3, Data: []byte(`"x"`)})
	f.Add(good.Bytes())
	var goodBin bytes.Buffer
	_ = WriteFrame(&goodBin, &Message{Type: TypeInput, Seq: 3, Data: []byte{0x00, 0xFF}})
	f.Add(goodBin.Bytes())
	var goodCmp bytes.Buffer
	_ = new(WireFormat).WriteFrame(&goodCmp, &Message{Type: TypeInput, Seq: 4, Data: bytes.Repeat([]byte("tile "), 400)})
	f.Add(goodCmp.Bytes())
	// Pool-era frames: a hello with a Functions list, and a reassign
	// frame (type code 15).
	var helloFns bytes.Buffer
	_ = WriteFrame(&helloFns, &Message{Type: TypeHello, Version: Version,
		Functions: []string{"collatz", "render"}})
	f.Add(helloFns.Bytes())
	var reassign bytes.Buffer
	_ = WriteFrame(&reassign, &Message{Type: TypeReassign, Func: "mining"})
	f.Add(reassign.Bytes())
	// Verification-era results: digest-bearing results (the end-to-end
	// integrity digest rides the same field the dedup layer uses for
	// content addresses).
	digest := bytes.Repeat([]byte{0xD1, 0x6E}, 16)
	var resDig bytes.Buffer
	_ = WriteFrame(&resDig, &Message{Type: TypeResult, Seq: 7, Data: []byte(`42`), Digest: digest})
	f.Add(resDig.Bytes())
	var resDigBin bytes.Buffer
	_ = WriteFrame(&resDigBin, &Message{Type: TypeResultBatch, Seq: 9, Data: []byte{0x01, 0x02}, Digest: digest})
	f.Add(resDigBin.Bytes())
	// Hostile digest field: tag 0x8D with a length running past the
	// frame end, and a bare tag with no length at all.
	f.Add([]byte{0x00, 0x00, 0x00, 0x05, 0xB2, 0x01, 0x05, 0x8D, 0x20})
	f.Add([]byte{0x00, 0x00, 0x00, 0x02, 0xB2, 0x8D})
	// Hostile Functions field: truncated repeated string entry.
	f.Add([]byte{0x00, 0x00, 0x00, 0x04, 0xB2, 0x01, 0x01, 0x8C})
	// Truncations, garbage, hostile lengths, JSON bodies of the retired
	// JSON wire.
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x41})
	f.Add([]byte{0x00, 0x00, 0x00, 0x05, '{', '"', 't', '"', ':'})
	f.Add(append([]byte{0x00, 0x00, 0x00, 0x02}, []byte("{}")...))
	// Hostile bodies: bare magic, bad varints, lengths past the end,
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
// — for arbitrary payloads and strings (invalid UTF-8 included), with the
// pool-era hello fields (a repeated Functions list), through both writers:
// WireFormat, which compresses payloads where that pays, and the raw
// WriteFrame. Both encodings must decode to the same message.
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
		var decoded []*Message
		for _, w := range []struct {
			name  string
			write func(io.Writer, *Message) error
		}{{"wire", new(WireFormat).WriteFrame}, {"raw", WriteFrame}} {
			var buf bytes.Buffer
			in := &Message{Type: TypeResult, Seq: seq, Data: data, Err: errStr,
				Peer: peer, Functions: functions}
			if err := w.write(&buf, in); err != nil {
				continue // oversize payloads may legitimately fail
			}
			out, err := ReadFrame(&buf)
			if err != nil {
				t.Fatalf("%s: round trip read: %v", w.name, err)
			}
			if out.Seq != seq || !bytes.Equal(out.Data, data) || out.Err != errStr || out.Peer != peer {
				t.Fatalf("%s: round trip mismatch: %+v", w.name, out)
			}
			if len(out.Functions) != len(functions) {
				t.Fatalf("%s: Functions count changed: %v != %v", w.name, out.Functions, functions)
			}
			for i := range functions {
				if out.Functions[i] != functions[i] {
					t.Fatalf("%s: Functions[%d] = %q, want %q", w.name, i, out.Functions[i], functions[i])
				}
			}
			decoded = append(decoded, out)
		}
		if len(decoded) == 2 {
			a, b := decoded[0], decoded[1]
			if a.Seq != b.Seq || !bytes.Equal(a.Data, b.Data) || a.Err != b.Err ||
				a.Peer != b.Peer || len(a.Functions) != len(b.Functions) {
				t.Fatalf("the two writers' frames decode differently: %+v != %+v", a, b)
			}
		}
	})
}

// FuzzDecodeBatch exercises the grouped-payload decoder.
func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte(`[{"d":"MQ=="},{"e":"x"}]`)) // a batch of the retired JSON wire
	f.Add(EncodeBatch([]BatchItem{{D: []byte{0xFF}}, {E: "x"}}))
	f.Add([]byte{0xB3})
	f.Add([]byte{0xB3, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		items, err := DecodeBatchShared(data)
		if err != nil {
			return
		}
		// Whatever decoded must re-encode and decode identically.
		back, err := DecodeBatchShared(EncodeBatch(items))
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if len(back) != len(items) {
			t.Fatalf("item count changed: %d != %d", len(back), len(items))
		}
	})
}
