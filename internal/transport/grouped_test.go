package transport

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"pando/internal/netsim"
	"pando/internal/proto"
	"pando/internal/pullstream"
	"pando/internal/sched"
)

func TestBatchEncodeDecodeRoundTrip(t *testing.T) {
	items := []proto.BatchItem{
		{D: []byte(`1`)},
		{D: []byte(`"two"`)},
		{E: "boom"},
	}
	got, err := proto.DecodeBatchShared(proto.EncodeBatch(items))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || string(got[0].D) != `1` || got[2].E != "boom" {
		t.Fatalf("got %+v", got)
	}
	if _, err := proto.DecodeBatchShared([]byte("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// groupedPipeline composes Group -> Gate(MasterDuplex over lists) ->
// Flatten for single-channel tests (safe here because the source is a
// plain counter, not a lender sub-stream).
func groupedPipeline(masterCh Channel, group, inFlight int) pullstream.Through[int, int] {
	return func(src pullstream.Source[int]) pullstream.Source[int] {
		grouped := pullstream.Group[int](group)(src)
		d := typedDuplex[[]int, []int](masterCh, listOf, listOf, nil)
		results := sched.Gate(sched.NewController(sched.Static(inFlight)), d)(grouped)
		return pullstream.Flatten[int]()(results)
	}
}

// TestListCodecRoundTrip pins the off-wire list framing (journal entries,
// spilled results, verification digests): it round-trips, and corrupt
// payloads error instead of half-decoding.
func TestListCodecRoundTrip(t *testing.T) {
	for _, vs := range [][]int{nil, {1}, {1, 2, 3}, {0, -5, 1 << 30}} {
		data, err := listOf.Encode(vs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := listOf.Decode(data)
		if err != nil {
			t.Fatalf("decode %v: %v", vs, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(append([]int{}, vs...)) {
			t.Fatalf("round trip %v -> %v", vs, got)
		}
	}
	data, _ := listOf.Encode([]int{1, 2, 3})
	for _, bad := range [][]byte{data[:len(data)-1], append(append([]byte(nil), data...), 'x'), {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}} {
		if _, err := listOf.Decode(bad); err == nil {
			t.Fatalf("Decode accepted corrupt payload %v", bad)
		}
	}
}

// TestMasterDuplexBatchErrIsWorkerError: a result batch carrying a
// frame-level Err (the worker could not decode or encode the batch) must
// surface as a WorkerError with the worker's reason, exactly like a plain
// result's Err — not as an unrelated batch-decode failure.
func TestMasterDuplexBatchErrIsWorkerError(t *testing.T) {
	master, workerCh, _ := wsockPair(t, netsim.Loopback, Config{HeartbeatInterval: -1})
	d := typedDuplex(master, listOf, listOf, nil)
	go d.Sink(pullstream.Values([]int{1, 2}))

	m, err := workerCh.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := workerCh.Send(&proto.Message{Type: proto.TypeResultBatch, Seq: m.Seq, Err: "decode batch: bad magic"}); err != nil {
		t.Fatal(err)
	}
	_, err = pump(d.Source)
	var werr *WorkerError
	if !errors.As(err, &werr) || werr.Msg != "decode batch: bad magic" {
		t.Fatalf("err = %v, want a WorkerError carrying the worker's reason", err)
	}
}

func TestGroupedMapRoundTrip(t *testing.T) {
	cfg := Config{HeartbeatInterval: -1}
	p := netsim.NewPipe(netsim.LAN)
	defer p.Cut()
	masterCh := NewWSock(p.A, cfg)
	workerCh := NewWSock(p.B, cfg)

	go serveTyped(workerCh, JSONCodec[int]{}, JSONCodec[int]{}, func(v int) (int, error) {
		return v * v, nil
	}, nil)

	th := groupedPipeline(masterCh, 4, 2)
	got, err := pullstream.Collect(th(pullstream.Count(25)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 25 {
		t.Fatalf("got %d results, want 25", len(got))
	}
	for i, v := range got {
		if v != (i+1)*(i+1) {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestGroupedMapFewerMessagesThanItems(t *testing.T) {
	// The point of grouping: 24 items in groups of 8 -> 3 input frames.
	cfg := Config{HeartbeatInterval: -1}
	p := netsim.NewPipe(netsim.Loopback)
	defer p.Cut()
	masterCh := NewWSock(p.A, cfg)
	workerCh := NewWSock(p.B, cfg)

	frames := 0
	go func() {
		for {
			m, err := workerCh.Recv()
			if err != nil {
				return
			}
			switch m.Type {
			case proto.TypeInputBatch:
				frames++
				items, _ := proto.DecodeBatchShared(m.Data)
				results := make([]proto.BatchItem, len(items))
				for i, it := range items {
					results[i] = proto.BatchItem{D: it.D}
				}
				workerCh.Send(&proto.Message{Type: proto.TypeResultBatch, Seq: m.Seq, Data: proto.EncodeBatch(results)})
			case proto.TypeGoodbye:
				workerCh.Send(&proto.Message{Type: proto.TypeGoodbye})
				return
			}
		}
	}()

	th := groupedPipeline(masterCh, 8, 1)
	got, err := pullstream.Collect(th(pullstream.Count(24)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 24 {
		t.Fatalf("got %d results", len(got))
	}
	if frames != 3 {
		t.Fatalf("sent %d input frames, want 3 (24 items / group 8)", frames)
	}
}

func TestGroupedMapPerItemError(t *testing.T) {
	cfg := Config{HeartbeatInterval: -1}
	p := netsim.NewPipe(netsim.Loopback)
	defer p.Cut()
	masterCh := NewWSock(p.A, cfg)
	workerCh := NewWSock(p.B, cfg)

	go serveTyped(workerCh, JSONCodec[int]{}, JSONCodec[int]{}, func(v int) (int, error) {
		if v == 5 {
			return 0, errors.New("item failed")
		}
		return v, nil
	}, nil)

	th := groupedPipeline(masterCh, 3, 1)
	_, err := pullstream.Collect(th(pullstream.Count(10)))
	var werr *WorkerError
	if !errors.As(err, &werr) {
		t.Fatalf("err = %v, want WorkerError", err)
	}
}

func TestGroupedMapPartialFinalGroup(t *testing.T) {
	cfg := Config{HeartbeatInterval: -1}
	p := netsim.NewPipe(netsim.Loopback)
	defer p.Cut()
	masterCh := NewWSock(p.A, cfg)
	workerCh := NewWSock(p.B, cfg)

	go serveTyped(workerCh, JSONCodec[int]{}, JSONCodec[int]{}, func(v int) (int, error) {
		return v, nil
	}, nil)
	// 7 items, group 4 -> a full group and a partial 3-group.
	th := groupedPipeline(masterCh, 4, 2)
	got, err := pullstream.Collect(th(pullstream.Count(7)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Fatalf("got %d results", len(got))
	}
}

func TestWorkerServeHandlesPlainInputs(t *testing.T) {
	// The one serve loop answers both frame kinds: plain input frames and
	// input batches, so any master and any volunteer interoperate.
	cfg := Config{HeartbeatInterval: -1}
	p := netsim.NewPipe(netsim.Loopback)
	defer p.Cut()
	masterCh := NewWSock(p.A, cfg)
	workerCh := NewWSock(p.B, cfg)

	go serveTyped(workerCh, JSONCodec[int]{}, JSONCodec[int]{}, func(v int) (int, error) {
		return v + 1, nil
	}, nil)

	d := typedDuplex[int, int](masterCh, JSONCodec[int]{}, JSONCodec[int]{}, nil)
	go d.Sink(pullstream.Count(5))
	got, err := pullstream.Collect(d.Source)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || got[4] != 6 {
		t.Fatalf("got %v", got)
	}
}

func TestGroupedEndToEndThroughMaster(t *testing.T) {
	// Full-stack grouping through the public API path is covered in the
	// master tests; here: crash recovery with grouped frames.
	cfg := Config{HeartbeatInterval: 20 * time.Millisecond}
	p := netsim.NewPipe(netsim.LAN)
	masterCh := NewWSock(p.A, cfg)
	workerCh := NewWSock(p.B, cfg)

	served := make(chan struct{})
	go func() {
		n := 0
		serveTyped(workerCh, JSONCodec[int]{}, JSONCodec[int]{}, func(v int) (int, error) {
			n++
			if n == 7 {
				close(served)
				select {} // freeze; the Cut below is the crash
			}
			return v, nil
		}, nil)
	}()
	go func() {
		<-served
		p.Cut()
	}()

	th := groupedPipeline(masterCh, 3, 2)
	_, err := pullstream.Collect(th(pullstream.Count(100)))
	if err == nil {
		t.Fatal("expected failure after worker crash")
	}
}
