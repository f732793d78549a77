package transport

// Tests for result-frame integrity. A result frame carries no digest of
// its own: its CRC32 trailer (proto/binary.go), checked on the master's
// read loop, is the one integrity check per hop, and the arena's poison
// canaries (TestDuplexPoisonCanary, TestWorkerServeResultOwnership) guard
// the volunteer's memory between f and the frame. Older workers attached
// a SHA-256 in the envelope's digest field; the master decodes and
// ignores it.

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"testing"

	"pando/internal/netsim"
	"pando/internal/proto"
	"pando/internal/pullstream"
)

// TestResultFramesCarryNoDigest: the serve loop's result frames, plain
// and batch, reach the master with their payload and no digest.
func TestResultFramesCarryNoDigest(t *testing.T) {
	master, workerCh, _ := wsockPair(t, netsim.Loopback, Config{HeartbeatInterval: -1})
	go WorkerServe(workerCh, bytewise(JSONCodec[int]{}, JSONCodec[int]{}, func(v int) (int, error) {
		return v * v, nil
	}), nil)

	in := []*proto.Message{
		{Type: proto.TypeInput, Seq: 1, Data: []byte(`7`)},
		{Type: proto.TypeInputBatch, Seq: 2, Data: proto.EncodeBatch([]proto.BatchItem{{D: []byte(`2`)}, {D: []byte(`3`)}})},
	}
	for _, m := range in {
		if err := master.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	r, err := master.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if r.Type != proto.TypeResult || string(r.Data) != `49` || len(r.Digest) != 0 {
		t.Fatalf("result frame = %+v, want %q with no digest", r, `49`)
	}
	r, err = master.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if r.Type != proto.TypeResultBatch || len(r.Digest) != 0 {
		t.Fatalf("result batch frame = %+v, want no digest", r)
	}
	items, err := proto.DecodeBatchShared(r.Data)
	if err != nil || len(items) != 2 || string(items[0].D) != `4` || string(items[1].D) != `9` {
		t.Fatalf("result batch = %v, %v; want [4 9]", items, err)
	}
}

// TestMasterDuplexRejectsCorruptResultFrame: one flipped payload byte in
// an encoded result frame, plain or batch, fails the frame's CRC on the
// master's read loop. The source ends with proto.ErrBadFrame and the
// channel closes (crash-stop: the lender re-lends the channel's values)
// instead of delivering a plausible wrong number to the output.
func TestMasterDuplexRejectsCorruptResultFrame(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		testCorruptResultFrame[int](t, JSONCodec[int]{}, 10, proto.TypeInput)
	})
	t.Run("list", func(t *testing.T) {
		testCorruptResultFrame[[]int](t, listOf, []int{1, 2}, proto.TypeInputBatch)
	})
}

func testCorruptResultFrame[T any](t *testing.T, codec Codec[T], input T, wantFrame proto.Type) {
	master, workerCh, pipe := wsockPair(t, netsim.Loopback, Config{HeartbeatInterval: -1})
	d := typedDuplex(master, codec, codec, nil)
	go d.Sink(pullstream.Values(input))

	m, err := workerCh.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != wantFrame {
		t.Fatalf("worker received %q, want %q", m.Type, wantFrame)
	}
	// Encode the honest reply, then turn its 1234567 into 1234967: still
	// a well-formed number, so only the CRC can tell.
	var frame bytes.Buffer
	if err := proto.WriteFrame(&frame, handReply(m, `1234567`, `7654321`)); err != nil {
		t.Fatal(err)
	}
	raw := frame.Bytes()
	at := bytes.Index(raw, []byte(`1234567`))
	if at < 0 {
		t.Fatal("payload not found in the encoded frame")
	}
	raw[at+4] = '9'
	// The worker's channel writes nothing (no heartbeats), so the test
	// owns its side of the pipe.
	if _, err := pipe.B.Write(raw); err != nil {
		t.Fatal(err)
	}

	v, err := pump(d.Source)
	if !errors.Is(err, proto.ErrBadFrame) {
		t.Fatalf("source = %v, %v; want proto.ErrBadFrame", v, err)
	}
	if err := master.Send(&proto.Message{Type: proto.TypePing}); err == nil {
		t.Fatal("master channel still open after a corrupt result frame")
	}
}

// TestMasterDuplexAcceptsDigestedAndBareResults: results from an older
// worker that attached a digest are accepted with the digest unchecked,
// a mismatching one included (the frame CRC vouched for the bytes), as
// are results with no digest at all.
func TestMasterDuplexAcceptsDigestedAndBareResults(t *testing.T) {
	master, workerCh, _ := wsockPair(t, netsim.Loopback, Config{HeartbeatInterval: -1})
	d := typedDuplex(master, JSONCodec[int]{}, JSONCodec[int]{}, nil)

	go d.Sink(pullstream.Values(1, 2, 3))
	go func() {
		for {
			m, err := workerCh.Recv()
			if err != nil {
				return
			}
			switch m.Type {
			case proto.TypeInput:
				reply := &proto.Message{Type: proto.TypeResult, Seq: m.Seq, Data: append([]byte(nil), m.Data...)}
				switch m.Seq {
				case 1: // a matching digest
					reply.SetDigest(sha256.Sum256(reply.Data))
				case 2: // a digest of other bytes
					reply.SetDigest(sha256.Sum256([]byte(`tampered`)))
				}
				_ = workerCh.Send(reply)
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
