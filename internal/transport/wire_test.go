package transport

import (
	"bytes"
	"encoding/binary"
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

// TestRawCodecBinaryWireBytesOnWire measures the frames the two formats
// produce for the same 64 KiB []byte payload: the v2 envelope must carry
// it without base64 inflation.
func TestRawCodecBinaryWireBytesOnWire(t *testing.T) {
	payload := bytes.Repeat([]byte{0xC7}, 64<<10)
	m := &proto.Message{Type: proto.TypeInput, Seq: 1, Data: payload}

	var v1buf, v2buf bytes.Buffer
	if err := proto.V1.WriteFrame(&v1buf, m); err != nil {
		t.Fatal(err)
	}
	if err := proto.V2.WriteFrame(&v2buf, m); err != nil {
		t.Fatal(err)
	}
	if v2buf.Len() >= v1buf.Len() {
		t.Fatalf("v2 frame (%d B) not smaller than v1 (%d B)", v2buf.Len(), v1buf.Len())
	}
	// v1 base64-inflates Data by 4/3; v2 overhead must stay within a few
	// dozen bytes of the raw payload.
	if overhead := v2buf.Len() - len(payload); overhead > 64 {
		t.Fatalf("v2 overhead = %d bytes on a %d-byte payload", overhead, len(payload))
	}
	t.Logf("64 KiB payload: v1 frame %d B, v2 frame %d B (%.1f%% of v1)",
		v1buf.Len(), v2buf.Len(), 100*float64(v2buf.Len())/float64(v1buf.Len()))
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
