package transport

// Regression tests for the duplex result-Seq discipline, forced by the
// chaos suite's packet-drop fault: a result frame that vanishes cleanly
// from the stream (no parse error, no desync) must fail the channel —
// re-lending the worker's values — rather than let FIFO matching pair
// every later result with the wrong value.

import (
	"strings"
	"testing"

	"pando/internal/netsim"
	"pando/internal/proto"
	"pando/internal/pullstream"
)

// pump runs a duplex source once and returns its answer.
func pump[O any](src pullstream.Source[O]) (O, error) {
	type ans struct {
		end error
		v   O
	}
	ansc := make(chan ans, 1)
	src(nil, func(end error, v O) { ansc <- ans{end, v} })
	a := <-ansc
	return a.v, a.end
}

// listOf is the list codec the grouped cases run the duplex with.
var listOf = ListCodec[int]{Elem: JSONCodec[int]{}}

// handReply builds the result frame a hand-written worker answers input
// frame in with: a plain input takes the first payload, an input batch
// packs all of them in one batch.
func handReply(in *proto.Message, payloads ...string) *proto.Message {
	if in.Type == proto.TypeInput {
		return &proto.Message{Type: proto.TypeResult, Seq: in.Seq, Data: []byte(payloads[0])}
	}
	items := make([]proto.BatchItem, len(payloads))
	for i, p := range payloads {
		items[i].D = []byte(p)
	}
	return &proto.Message{Type: proto.TypeResultBatch, Seq: in.Seq, Data: proto.EncodeBatch(items)}
}

// TestMasterDuplexDetectsDroppedResult: the worker answers inputs 1 and 2
// but result 1 is lost in flight; the master must fail the channel at
// result 2, not deliver f(2) as the answer to input 1 — for plain items
// and for lists (one batch frame each) alike.
func TestMasterDuplexDetectsDroppedResult(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		testDroppedResult[int](t, JSONCodec[int]{}, []int{10, 20}, proto.TypeInput)
	})
	t.Run("list", func(t *testing.T) {
		testDroppedResult[[]int](t, listOf, [][]int{{1, 2}, {3, 4}}, proto.TypeInputBatch)
	})
}

func testDroppedResult[T any](t *testing.T, codec Codec[T], inputs []T, wantFrame proto.Type) {
	master, workerCh, _ := wsockPair(t, netsim.Loopback, Config{HeartbeatInterval: -1})
	d := typedDuplex(master, codec, codec, nil)
	go d.Sink(pullstream.Values(inputs...))

	// Worker side: receive both inputs, "lose" the first result, answer
	// only the second — the cleanly-dropped-frame scenario.
	for i := 0; i < 2; i++ {
		m, err := workerCh.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Type != wantFrame {
			t.Fatalf("worker received %q, want %q", m.Type, wantFrame)
		}
		if m.Seq == 2 {
			if err := workerCh.Send(handReply(m, `9`, `16`)); err != nil {
				t.Fatal(err)
			}
		}
	}

	_, err := pump(d.Source)
	if err == nil {
		t.Fatal("source delivered a result despite the hole in the seq sequence")
	}
	if !strings.Contains(err.Error(), "frame lost") {
		t.Fatalf("err = %v, want the frame-loss diagnosis", err)
	}
}

// TestMasterDuplexAcceptsContiguousResults: the discipline must not
// reject an honest serial worker.
func TestMasterDuplexAcceptsContiguousResults(t *testing.T) {
	master, workerCh, _ := wsockPair(t, netsim.Loopback, Config{HeartbeatInterval: -1})
	d := typedDuplex(master, JSONCodec[int]{}, JSONCodec[int]{}, nil)

	inputs := []int{1, 2, 3}
	go d.Sink(func(abort error, cb pullstream.Callback[int]) {
		if abort != nil || len(inputs) == 0 {
			cb(pullstream.ErrDone, 0)
			return
		}
		v := inputs[0]
		inputs = inputs[1:]
		cb(nil, v)
	})
	go func() {
		for {
			m, err := workerCh.Recv()
			if err != nil {
				return
			}
			switch m.Type {
			case proto.TypeInput:
				_ = workerCh.Send(&proto.Message{Type: proto.TypeResult, Seq: m.Seq, Data: m.Data})
			case proto.TypeGoodbye:
				_ = workerCh.Send(&proto.Message{Type: proto.TypeGoodbye})
				return
			}
		}
	}()

	for want := 1; want <= 3; want++ {
		v, err := pump(d.Source)
		if err != nil {
			t.Fatalf("result %d: %v", want, err)
		}
		if v != want {
			t.Fatalf("result %d = %d", want, v)
		}
	}
}
