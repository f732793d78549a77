package bench

import (
	"bytes"
	"io"
	"testing"

	"pando/internal/proto"
)

// This file measures the codec half of the zero-alloc hot path: the
// steady-state per-frame cost of one wire format direction, with the
// testing package's allocation accounting. The fleet-scale comparison
// against the pre-pooling data plane (PR 6) is frozen in the committed
// BENCH_hotpath.json; the baseline it ran against no longer ships.

// HotpathCodecCost is the steady-state per-frame cost of one wire format
// direction, from testing.Benchmark with allocation accounting.
type HotpathCodecCost struct {
	Format string
	// Op is "write" (encode one frame to a sink) or "read" (decode one
	// frame and release it back to the arena).
	Op           string
	AllocsPerOp  int64
	BytesPerOp   int64
	NsPerOp      int64
	PayloadBytes int
}

// hotpathPayload builds the representative frame payload: an opaque tile
// of n bytes, the []byte-shaped workload RawCodec carries verbatim.
func hotpathPayload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*31 + 7)
	}
	return p
}

// MeasureHotpathCodec benchmarks one wire format's encode and decode
// paths in isolation, payload of n bytes, reporting allocations per
// steady-state frame. The pooled v2 path must come out at 0 allocs/op in
// both directions.
func MeasureHotpathCodec(wf proto.WireFormat, payload int) []HotpathCodecCost {
	data := hotpathPayload(payload)
	m := &proto.Message{Type: proto.TypeInput, Seq: 42, Data: data}

	wres := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := wf.WriteFrame(io.Discard, m); err != nil {
				b.Fatal(err)
			}
		}
	})

	var frame bytes.Buffer
	if err := wf.WriteFrame(&frame, m); err != nil {
		panic(err)
	}
	encoded := frame.Bytes()
	rres := testing.Benchmark(func(b *testing.B) {
		r := bytes.NewReader(encoded)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Reset(encoded)
			got, err := wf.ReadFrame(r)
			if err != nil {
				b.Fatal(err)
			}
			proto.Release(got)
		}
	})

	return []HotpathCodecCost{
		{Format: wf.Name(), Op: "write", AllocsPerOp: wres.AllocsPerOp(),
			BytesPerOp: wres.AllocedBytesPerOp(), NsPerOp: wres.NsPerOp(), PayloadBytes: payload},
		{Format: wf.Name(), Op: "read", AllocsPerOp: rres.AllocsPerOp(),
			BytesPerOp: rres.AllocedBytesPerOp(), NsPerOp: rres.NsPerOp(), PayloadBytes: payload},
	}
}
