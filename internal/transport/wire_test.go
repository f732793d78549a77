package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"pando/internal/netsim"
	"pando/internal/proto"
	"pando/internal/pullstream"
)

// newWirePair returns a connected channel pair.
func newWirePair(t *testing.T) (*WSock, *WSock) {
	t.Helper()
	p := netsim.NewPipe(netsim.Loopback)
	cfg := Config{HeartbeatInterval: -1}
	a := NewWSock(p.A, cfg)
	b := NewWSock(p.B, cfg)
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// TestDuplexWireFormatRoundTrip round-trips plain items and lists through
// the one duplex/serve pair: lists must travel as binary batch frames.
func TestDuplexWireFormatRoundTrip(t *testing.T) {
	square := func(v int) (int, error) { return v * v, nil }
	t.Run("plain", func(t *testing.T) {
		masterCh, workerCh := newWirePair(t)
		go func() { _ = serveTyped(workerCh, JSONCodec[int]{}, JSONCodec[int]{}, square, nil) }()
		d := typedDuplex[int, int](masterCh, JSONCodec[int]{}, JSONCodec[int]{}, nil)
		go d.Sink(pullstream.Values(1, 2, 3, 4))
		got, err := pullstream.Collect(d.Source)
		if err != nil {
			t.Fatal(err)
		}
		if want := []int{1, 4, 9, 16}; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("results = %v, want %v", got, want)
		}
	})
	t.Run("list", func(t *testing.T) {
		masterCh, workerCh := newWirePair(t)
		go func() { _ = serveTyped(workerCh, JSONCodec[int]{}, JSONCodec[int]{}, square, nil) }()
		d := typedDuplex[[]int, []int](masterCh, listOf, listOf, nil)
		go d.Sink(pullstream.Values([]int{1, 2}, []int{3}))
		got, err := pullstream.Collect(d.Source)
		if err != nil {
			t.Fatal(err)
		}
		if want := [][]int{{1, 4}, {9}}; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("results = %v, want %v", got, want)
		}
	})
}

// TestRawCodecBinaryWireBytesOnWire measures the bytes the wire puts on
// the link for the same payloads, once as one input frame per item and
// once as a single batch frame. A 64 KiB []byte payload must travel with
// no more than a few dozen bytes of envelope (no base64, no escaping),
// and small JSON-encoded collatz inputs, where the envelope dominates,
// must cost fewer bytes as one batch than as one frame each.
func TestRawCodecBinaryWireBytesOnWire(t *testing.T) {
	collatz := make([][]byte, 256)
	for i := range collatz {
		collatz[i], _ = json.Marshal(fmt.Sprintf("%d", 1_000_000_000+i))
	}
	cases := []struct {
		name  string
		items [][]byte
		// maxOverhead bounds the per-frame bytes beyond the payload; 0
		// skips the check.
		maxOverhead int
	}{
		{"tile-64KiB", [][]byte{randomBytes(64 << 10)}, 64},
		{"collatz-json", collatz, 0},
	}
	// wireBytes returns the bytes on the wire for items sent one frame
	// each and for items sent as one batch frame.
	wireBytes := func(t *testing.T, items [][]byte) (frames, batch int) {
		t.Helper()
		wf := new(proto.WireFormat)
		var buf bytes.Buffer
		batchItems := make([]proto.BatchItem, len(items))
		for i, item := range items {
			if err := wf.WriteFrame(&buf, &proto.Message{Type: proto.TypeInput, Seq: uint64(i + 1), Data: item}); err != nil {
				t.Fatal(err)
			}
			batchItems[i] = proto.BatchItem{D: item}
		}
		frames = buf.Len()
		buf.Reset()
		if err := wf.WriteFrame(&buf, &proto.Message{Type: proto.TypeInputBatch, Seq: 1, Data: proto.EncodeBatch(batchItems)}); err != nil {
			t.Fatal(err)
		}
		return frames, buf.Len()
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			frames, batch := wireBytes(t, c.items)
			payload := 0
			for _, item := range c.items {
				payload += len(item)
			}
			if len(c.items) > 1 && batch >= frames {
				t.Errorf("batch %d B not smaller than %d frames of %d B", batch, len(c.items), frames)
			}
			// The payload is incompressible, so the frames carry it
			// verbatim: the overhead is the envelope alone.
			if c.maxOverhead > 0 {
				if overhead := frames - payload; overhead > c.maxOverhead*len(c.items) {
					t.Errorf("overhead = %d bytes on %d payload bytes", overhead, payload)
				}
			}
			t.Logf("payload %d B; frames %d B, batch %d B", payload, frames, batch)
		})
	}
}

// randomBytes returns n incompressible bytes from a fixed seed.
func randomBytes(n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(int64(n))).Read(b)
	return b
}

// wirePoint is a BinaryCodec test type with its own binary encoding.
type wirePoint struct{ X, Y int32 }

func (p wirePoint) MarshalBinary() ([]byte, error) {
	b := make([]byte, 8)
	binary.BigEndian.PutUint32(b[:4], uint32(p.X))
	binary.BigEndian.PutUint32(b[4:], uint32(p.Y))
	return b, nil
}

func (p *wirePoint) UnmarshalBinary(data []byte) error {
	if len(data) != 8 {
		return fmt.Errorf("wirePoint: %d bytes", len(data))
	}
	p.X = int32(binary.BigEndian.Uint32(data[:4]))
	p.Y = int32(binary.BigEndian.Uint32(data[4:]))
	return nil
}

func TestBinaryCodec(t *testing.T) {
	c := BinaryCodec[wirePoint, *wirePoint]{}
	data, err := c.Encode(wirePoint{X: -3, Y: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 8 {
		t.Fatalf("encoded %d bytes, want 8", len(data))
	}
	p, err := c.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if p.X != -3 || p.Y != 7 {
		t.Fatalf("decoded %+v", p)
	}
	if _, err := c.Decode([]byte("short")); err == nil {
		t.Fatal("short decode succeeded")
	}
}

func TestBinaryCodecOverChannel(t *testing.T) {
	masterCh, workerCh := newWirePair(t)
	codec := BinaryCodec[wirePoint, *wirePoint]{}

	go func() {
		_ = serveTyped(workerCh, codec, codec, func(p wirePoint) (wirePoint, error) {
			return wirePoint{X: p.Y, Y: p.X}, nil
		}, nil)
	}()

	d := typedDuplex[wirePoint, wirePoint](masterCh, codec, codec, nil)
	go d.Sink(pullstream.Values(wirePoint{X: 1, Y: 2}))
	got, err := pullstream.Collect(d.Source)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].X != 2 || got[0].Y != 1 {
		t.Fatalf("results = %v", got)
	}
}
