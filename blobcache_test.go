package pando_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand/v2"
	"testing"

	"pando"
	"pando/internal/netsim"
	"pando/internal/worker"
)

// TestWithBlobCache streams a few repeated 4 KiB payloads to one remote
// volunteer twice. With the default blob stores a payload travels in full
// on its first two sightings and as a digest reference after that, so the
// link to the volunteer carries fewer bytes; WithBlobCache(-1) turns dedup
// off and every payload travels in full. The outputs are identical.
func TestWithBlobCache(t *testing.T) {
	const distinct, repeats, size = 3, 4, 4 << 10
	payloads := make([][]byte, distinct)
	for i := range payloads {
		// Random bytes: the wire's per-frame compression leaves them be.
		r := rand.New(rand.NewPCG(3, uint64(i)))
		payloads[i] = make([]byte, size)
		for off := 0; off < size; off += 8 {
			binary.LittleEndian.PutUint64(payloads[i][off:], r.Uint64())
		}
	}
	var inputs [][]byte
	for range repeats {
		inputs = append(inputs, payloads...)
	}
	sum := func(b []byte) ([]byte, error) { return binary.BigEndian.AppendUint32(nil, crc32.ChecksumIEEE(b)), nil }

	run := func(opts ...pando.Option) (out [][]byte, toVolunteer int64) {
		t.Helper()
		const name = "blob-cache"
		cfg := pando.ChannelConfig{HeartbeatInterval: -1}
		opts = append([]pando.Option{pando.WithoutRegistry(), pando.WithChannelConfig(cfg),
			pando.WithCodec[[]byte, []byte](pando.RawCodec{}, pando.RawCodec{})}, opts...)
		p := pando.New(name, sum, opts...)
		ln := netsim.NewListener(name, netsim.LAN)
		defer ln.Close()
		go func() { _ = p.ServeWS(ln) }()
		conn, _, err := ln.Dial()
		if err != nil {
			t.Fatal(err)
		}
		v := &worker.Volunteer{
			Name:       "v",
			Channel:    cfg,
			Handler:    pando.CodecHandler(sum, pando.RawCodec{}, pando.RawCodec{}),
			CrashAfter: -1,
			Functions:  []string{name},
		}
		joined := make(chan error, 1)
		go func() { joined <- v.JoinWS(conn) }()
		out, err = p.ProcessSlice(t.Context(), inputs)
		if err != nil {
			t.Fatal(err)
		}
		p.Close()
		<-joined
		_, toVolunteer = ln.Bytes()
		return out, toVolunteer
	}

	deduped, withDedup := run()
	full, withoutDedup := run(pando.WithBlobCache(-1))
	t.Logf("bytes to the volunteer: %d with the default blob cache, %d with WithBlobCache(-1)", withDedup, withoutDedup)

	if len(deduped) != len(inputs) || len(full) != len(inputs) {
		t.Fatalf("%d and %d outputs, want %d", len(deduped), len(full), len(inputs))
	}
	for i, in := range inputs {
		want, _ := sum(in)
		if !bytes.Equal(deduped[i], want) || !bytes.Equal(full[i], want) {
			t.Fatalf("output %d = %x (default) and %x (dedup off), want %x", i, deduped[i], full[i], want)
		}
	}
	if all := int64(len(inputs) * size); withoutDedup < all {
		t.Fatalf("dedup off sent %d bytes to the volunteer, less than the %d bytes of payload", withoutDedup, all)
	}
	// The first two sightings of each payload travel in full; the other
	// repeats are references of a few dozen bytes.
	if most := int64(2*distinct*size + distinct*size/2); withDedup > most {
		t.Fatalf("the default blob cache sent %d bytes to the volunteer, want at most %d", withDedup, most)
	}
}
