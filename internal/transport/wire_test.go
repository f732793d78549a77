package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"testing"

	"pando/internal/netsim"
	"pando/internal/proto"
	"pando/internal/pullstream"
)

// newWirePair returns a connected channel pair with both ends switched to
// wf, as the hello/welcome negotiation leaves them.
func newWirePair(t *testing.T, wf proto.WireFormat) (*WSock, *WSock) {
	t.Helper()
	p := netsim.NewPipe(netsim.Loopback)
	cfg := Config{HeartbeatInterval: -1}
	a := NewWSock(p.A, cfg)
	b := NewWSock(p.B, cfg)
	a.SetWire(wf)
	b.SetWire(wf)
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestWSockDefaultWireIsV1(t *testing.T) {
	p := netsim.NewPipe(netsim.Loopback)
	w := NewWSock(p.A, Config{HeartbeatInterval: -1})
	defer w.Close()
	if got := w.Wire().Name(); got != proto.Version {
		t.Fatalf("default wire = %q, want %q", got, proto.Version)
	}
}

// TestDuplexWireFormatRoundTrip round-trips plain items and lists through
// the one duplex/serve pair over each envelope: lists must travel as batch
// frames packed in the channel's own format (JSON arrays under v1, binary
// batches under v2).
func TestDuplexWireFormatRoundTrip(t *testing.T) {
	square := func(v int) (int, error) { return v * v, nil }
	for _, wf := range []proto.WireFormat{proto.V1, proto.V2} {
		t.Run("plain"+wf.Name(), func(t *testing.T) {
			masterCh, workerCh := newWirePair(t, wf)
			go func() { _ = WorkerServe[int, int](workerCh, JSONCodec[int]{}, JSONCodec[int]{}, square, nil) }()
			d := MasterDuplex[int, int](masterCh, JSONCodec[int]{}, JSONCodec[int]{})
			go d.Sink(pullstream.Values(1, 2, 3, 4))
			got, err := pullstream.Collect(d.Source)
			if err != nil {
				t.Fatal(err)
			}
			if want := []int{1, 4, 9, 16}; fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("results = %v, want %v", got, want)
			}
		})
		t.Run("list"+wf.Name(), func(t *testing.T) {
			masterCh, workerCh := newWirePair(t, wf)
			go func() { _ = WorkerServe[int, int](workerCh, JSONCodec[int]{}, JSONCodec[int]{}, square, nil) }()
			d := MasterDuplex[[]int, []int](masterCh, listOf, listOf)
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
}

// TestMixedWirePair proves reception is format-agnostic: one side writes
// v2 while the other still writes v1, as happens mid-handshake when the
// welcome (v1) crosses a worker that already switched.
func TestMixedWirePair(t *testing.T) {
	masterCh, workerCh := newWirePair(t, proto.V1)
	masterCh.SetWire(proto.V2) // only the master upgraded

	go func() {
		_ = WorkerServe[int, int](workerCh, JSONCodec[int]{}, JSONCodec[int]{}, func(v int) (int, error) {
			return -v, nil
		}, nil)
	}()

	d := MasterDuplex[int, int](masterCh, JSONCodec[int]{}, JSONCodec[int]{})
	go d.Sink(pullstream.Values(5, 6))
	got, err := pullstream.Collect(d.Source)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != -5 || got[1] != -6 {
		t.Fatalf("results = %v", got)
	}
}

// TestRawCodecBinaryWireBytesOnWire measures the bytes the two formats
// put on the wire for the same payloads, once as one input frame per item
// and once as a single batch frame. A 64 KiB []byte payload must travel
// without v1's base64 inflation, and small JSON-encoded collatz inputs,
// where the envelope dominates, must not regress on either plane.
func TestRawCodecBinaryWireBytesOnWire(t *testing.T) {
	collatz := make([][]byte, 256)
	for i := range collatz {
		collatz[i], _ = json.Marshal(fmt.Sprintf("%d", 1_000_000_000+i))
	}
	cases := []struct {
		name  string
		items [][]byte
		// maxOverhead bounds v2's per-frame bytes beyond the payload; 0
		// skips the check.
		maxOverhead int
	}{
		{"tile-64KiB", [][]byte{bytes.Repeat([]byte{0xC7}, 64<<10)}, 64},
		{"collatz-json", collatz, 0},
	}
	// wireBytes returns wf's bytes on the wire for items sent one frame
	// each and for items sent as one batch frame.
	wireBytes := func(t *testing.T, wf proto.WireFormat, items [][]byte) (frames, batch int) {
		t.Helper()
		var buf bytes.Buffer
		batchItems := make([]proto.BatchItem, len(items))
		for i, item := range items {
			if err := wf.WriteFrame(&buf, &proto.Message{Type: proto.TypeInput, Seq: uint64(i + 1), Data: item}); err != nil {
				t.Fatal(err)
			}
			batchItems[i] = proto.BatchItem{D: item}
		}
		frames = buf.Len()
		data, err := wf.EncodeBatch(batchItems)
		if err != nil {
			t.Fatal(err)
		}
		buf.Reset()
		if err := wf.WriteFrame(&buf, &proto.Message{Type: proto.TypeInputBatch, Seq: 1, Data: data}); err != nil {
			t.Fatal(err)
		}
		return frames, buf.Len()
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v1Frames, v1Batch := wireBytes(t, proto.V1, c.items)
			v2Frames, v2Batch := wireBytes(t, proto.V2, c.items)
			if v2Frames >= v1Frames {
				t.Errorf("frames: v2 %d B not smaller than v1 %d B", v2Frames, v1Frames)
			}
			if v2Batch >= v1Batch {
				t.Errorf("batch: v2 %d B not smaller than v1 %d B", v2Batch, v1Batch)
			}
			if c.maxOverhead > 0 {
				payload := 0
				for _, item := range c.items {
					payload += len(item)
				}
				// v1 base64-inflates Data by 4/3; v2 overhead must stay
				// within a few dozen bytes of the raw payload.
				if overhead := v2Frames - payload; overhead > c.maxOverhead*len(c.items) {
					t.Errorf("v2 overhead = %d bytes on %d payload bytes", overhead, payload)
				}
			}
			t.Logf("frames v1 %d B, v2 %d B; batch v1 %d B, v2 %d B", v1Frames, v2Frames, v1Batch, v2Batch)
		})
	}
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
	masterCh, workerCh := newWirePair(t, proto.V2)
	codec := BinaryCodec[wirePoint, *wirePoint]{}

	go func() {
		_ = WorkerServe[wirePoint, wirePoint](workerCh, codec, codec, func(p wirePoint) (wirePoint, error) {
			return wirePoint{X: p.Y, Y: p.X}, nil
		}, nil)
	}()

	d := MasterDuplex[wirePoint, wirePoint](masterCh, codec, codec)
	go d.Sink(pullstream.Values(wirePoint{X: 1, Y: 2}))
	got, err := pullstream.Collect(d.Source)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].X != 2 || got[0].Y != 1 {
		t.Fatalf("results = %v", got)
	}
}
