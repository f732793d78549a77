package transport

// Tests for the end-to-end result digest: workers hash each encoded
// result the moment f produces it, and the master re-hashes the payload
// it is about to decode. The check rides the existing Digest envelope
// field (tagDigest on the binary wire), so both formats carry it without
// a wire version bump, and frames without a digest (older peers) pass
// through unchecked.

import (
	"bytes"
	"crypto/sha256"
	"strings"
	"testing"

	"pando/internal/netsim"
	"pando/internal/proto"
	"pando/internal/pullstream"
)

// TestApplyOneAttachesDigest: every result frame a worker produces must
// carry the SHA-256 of its encoded payload.
func TestApplyOneAttachesDigest(t *testing.T) {
	m := applyOne(1, []byte(`7`), bytewise(JSONCodec[int]{}, JSONCodec[int]{}, func(v int) (int, error) {
		return v * v, nil
	}), 0)
	if m.Err != "" {
		t.Fatalf("applyOne failed: %s", m.Err)
	}
	want := sha256.Sum256(m.Data)
	if !bytes.Equal(m.Digest, want[:]) {
		t.Fatalf("digest = %x, want sha256 of payload %x", m.Digest, want)
	}
	// Error frames carry no payload and no digest.
	e := applyOne(2, []byte(`not json`), bytewise(JSONCodec[int]{}, JSONCodec[int]{}, func(v int) (int, error) {
		return v, nil
	}), 0)
	if e.Err == "" || len(e.Digest) != 0 {
		t.Fatalf("error frame = %+v, want Err set and no digest", e)
	}
}

// TestMasterDuplexRejectsDigestMismatch: a result whose payload does not
// hash to its digest fails the channel (crash-stop, values re-lent)
// instead of delivering corrupted bytes to the output. For a list the
// digest covers the whole encoded batch.
func TestMasterDuplexRejectsDigestMismatch(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		testDigestMismatch[int](t, JSONCodec[int]{}, 10, proto.TypeInput)
	})
	t.Run("list", func(t *testing.T) {
		testDigestMismatch[[]int](t, listOf, []int{1, 2}, proto.TypeInputBatch)
	})
}

func testDigestMismatch[T any](t *testing.T, codec Codec[T], input T, wantFrame proto.Type) {
	master, workerCh, _ := wsockPair(t, netsim.Loopback, Config{HeartbeatInterval: -1})
	d := MasterDuplex(master, codec, codec, nil)
	go d.Sink(pullstream.Values(input))

	m, err := workerCh.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != wantFrame {
		t.Fatalf("worker received %q, want %q", m.Type, wantFrame)
	}
	// A digest of different bytes: the payload mutated after hashing.
	reply := handReply(m, `1`, `4`)
	bogus := sha256.Sum256([]byte(`tampered`))
	reply.Digest = bogus[:]
	if err := workerCh.Send(reply); err != nil {
		t.Fatal(err)
	}

	_, err = pump(d.Source)
	if err == nil {
		t.Fatal("source delivered a result whose digest does not match")
	}
	if !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("err = %v, want the digest-mismatch diagnosis", err)
	}
}

// TestMasterDuplexAcceptsDigestedAndBareResults: a correct digest passes,
// and a frame with no digest at all (older peer) is accepted unchecked.
func TestMasterDuplexAcceptsDigestedAndBareResults(t *testing.T) {
	master, workerCh, _ := wsockPair(t, netsim.Loopback, Config{HeartbeatInterval: -1})
	d := MasterDuplex(master, JSONCodec[int]{}, JSONCodec[int]{}, nil)

	inputs := []int{1, 2}
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
				reply := &proto.Message{Type: proto.TypeResult, Seq: m.Seq, Data: append([]byte(nil), m.Data...)}
				if m.Seq == 1 {
					sum := sha256.Sum256(reply.Data)
					reply.Digest = sum[:]
				}
				_ = workerCh.Send(reply)
			case proto.TypeGoodbye:
				_ = workerCh.Send(&proto.Message{Type: proto.TypeGoodbye})
				return
			}
		}
	}()

	for want := 1; want <= 2; want++ {
		v, err := pump(d.Source)
		if err != nil {
			t.Fatalf("result %d: %v", want, err)
		}
		if v != want {
			t.Fatalf("result %d = %d", want, v)
		}
	}
}
