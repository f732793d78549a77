package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"pando/internal/blob"
	"pando/internal/netsim"
	"pando/internal/proto"
)

func dedupPayload(tag byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = tag + byte(i*13)
	}
	return b
}

// dedupPair wires a master-half and worker-half dedup channel over one
// simulated pipe, returning them with their shared stores.
func dedupPair(t *testing.T) (Channel, Channel, *blob.Intern, *blob.Cache, *blob.FlowStats) {
	t.Helper()
	a, b, _ := wsockPair(t, netsim.Loopback, Config{HeartbeatInterval: -1})
	intern := blob.NewIntern(0)
	cache := blob.NewCache(0)
	stats := &blob.FlowStats{}
	return DedupMasterChannel(a, intern, stats), DedupWorkerChannel(b, cache), intern, cache, stats
}

// sendRaw sends data as input seq through master and returns the frame
// exactly as it crossed the wire, read by the raw peer.
func sendRaw(t *testing.T, master, peer Channel, seq uint64, data []byte) *proto.Message {
	t.Helper()
	if err := master.Send(&proto.Message{Type: proto.TypeInput, Seq: seq, Data: append([]byte(nil), data...)}); err != nil {
		t.Fatal(err)
	}
	m, err := peer.Recv()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestDedupSightingLadder pins the admission rule on one channel: the
// job's first sighting of a payload travels plain and is stored nowhere,
// the second travels in full with its digest, the third as a reference.
func TestDedupSightingLadder(t *testing.T) {
	master, wkr, intern, cache, stats := dedupPair(t)
	big := dedupPayload(9, 4096)
	d := blob.Sum(big)
	send := func(seq uint64) *proto.Message {
		t.Helper()
		if err := master.Send(&proto.Message{Type: proto.TypeInput, Seq: seq, Data: append([]byte(nil), big...)}); err != nil {
			t.Fatal(err)
		}
		m, err := wkr.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Seq != seq || !bytes.Equal(m.Data, big) {
			t.Fatalf("recv %d: payload mismatch (%d bytes)", seq, len(m.Data))
		}
		return m
	}

	m := send(1)
	if len(m.Digest) != 0 {
		t.Fatal("first sighting carried a digest")
	}
	proto.Release(m)
	if _, ok := intern.Get(d); ok {
		t.Fatal("first sighting was interned")
	}
	if _, hit, _ := cache.Get(d); hit {
		t.Fatal("first sighting was cached by the worker")
	}

	m = send(2)
	if got, ok := blob.SumOf(m.Digest); !ok || got != d {
		t.Fatalf("second sighting digest = %x, want %x", m.Digest, d[:])
	}
	proto.Release(m)
	if hits := stats.Hits.Load(); hits != 0 {
		t.Fatal("second sighting travelled as a reference, want full data")
	}
	if _, ok := intern.Get(d); !ok {
		t.Fatal("second sighting was not interned")
	}

	proto.Release(send(3))
	if hits := stats.Hits.Load(); hits != 1 {
		t.Fatalf("third sighting: %d reference hits, want 1", hits)
	}
}

// TestDedupSightingIsJobWide: the doorkeeper belongs to the job's intern
// table, not to a channel. A payload first sighted on channel A travels
// with its digest on its first send over channel B.
func TestDedupSightingIsJobWide(t *testing.T) {
	intern := blob.NewIntern(0)
	a1, b1, _ := wsockPair(t, netsim.Loopback, Config{HeartbeatInterval: -1})
	a2, b2, _ := wsockPair(t, netsim.Loopback, Config{HeartbeatInterval: -1})
	chA := DedupMasterChannel(a1, intern, &blob.FlowStats{})
	chB := DedupMasterChannel(a2, intern, &blob.FlowStats{})
	big := dedupPayload(10, 2048)

	m := sendRaw(t, chA, b1, 1, big)
	if len(m.Digest) != 0 {
		t.Fatal("first sighting on channel A carried a digest")
	}
	proto.Release(m)
	m = sendRaw(t, chB, b2, 1, big)
	d := blob.Sum(big)
	if got, ok := blob.SumOf(m.Digest); !ok || got != d || !bytes.Equal(m.Data, big) {
		t.Fatalf("first send over channel B: digest %x with %d bytes, want %x with the payload", m.Digest, len(m.Data), d[:])
	}
	proto.Release(m)
}

// TestDedupDoorkeeperForgets: the doorkeeper holds blob.DoorkeeperKeys
// keys. After that many distinct payloads since it, a payload's next
// sighting counts as a first one again and travels plain.
func TestDedupDoorkeeperForgets(t *testing.T) {
	a, b, _ := wsockPair(t, netsim.Loopback, Config{HeartbeatInterval: -1})
	intern := blob.NewIntern(0)
	master := DedupMasterChannel(a, intern, &blob.FlowStats{})
	first := dedupPayload(11, 2048)

	proto.Release(sendRaw(t, master, b, 0, first))
	var key [8]byte
	for i := 0; i < blob.DoorkeeperKeys; i++ {
		binary.LittleEndian.PutUint64(key[:], uint64(i))
		if intern.Admit(key[:]) {
			t.Fatalf("distinct payload %d was admitted as a repeat", i)
		}
	}
	m := sendRaw(t, master, b, 1, first)
	if len(m.Digest) != 0 {
		t.Fatal("a payload the doorkeeper forgot travelled with its digest")
	}
	proto.Release(m)
	m = sendRaw(t, master, b, 2, first)
	if len(m.Digest) == 0 {
		t.Fatal("the sighting after a forgotten one travelled plain")
	}
	proto.Release(m)
}

// TestDedupFirstSendCarriesDigest pins the seeding half of the protocol:
// a large payload's first transmission as an admitted payload travels in
// full with its content address, small payloads stay on the plain data
// plane. The payload is sent once before: its first sighting travels
// plain (TestDedupSightingLadder).
func TestDedupFirstSendCarriesDigest(t *testing.T) {
	a, b, _ := wsockPair(t, netsim.Loopback, Config{HeartbeatInterval: -1})
	master := DedupMasterChannel(a, blob.NewIntern(0), &blob.FlowStats{})

	big := dedupPayload(1, 2048)
	proto.Release(sendRaw(t, master, b, 0, big))
	if err := master.Send(&proto.Message{Type: proto.TypeInput, Seq: 1, Data: append([]byte(nil), big...)}); err != nil {
		t.Fatal(err)
	}
	m, err := b.Recv() // raw peer: see exactly what crossed the wire
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Data, big) {
		t.Fatal("first transmission did not carry the payload")
	}
	d := blob.Sum(big)
	if got, ok := blob.SumOf(m.Digest); !ok || got != d {
		t.Fatalf("first transmission digest = %x, want %x", m.Digest, d[:])
	}
	proto.Release(m)

	small := dedupPayload(2, 64)
	if err := master.Send(&proto.Message{Type: proto.TypeInput, Seq: 2, Data: small}); err != nil {
		t.Fatal(err)
	}
	m, err = b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Digest) != 0 {
		t.Fatal("small payload was content-addressed")
	}
	proto.Release(m)
}

// TestDedupRepeatResolvesFromCache is the headline exchange: the second
// transmission of the same bytes with its digest is followed by one that
// crosses as a digest-only reference, and the worker half resolves it
// locally. The payload is sent once before, as its plain first sighting.
func TestDedupRepeatResolvesFromCache(t *testing.T) {
	master, wkr, _, _, stats := dedupPair(t)
	big := dedupPayload(3, 4096)

	for seq := uint64(0); seq <= 2; seq++ {
		if err := master.Send(&proto.Message{Type: proto.TypeInput, Seq: seq, Data: append([]byte(nil), big...)}); err != nil {
			t.Fatal(err)
		}
		m, err := wkr.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Seq != seq || !bytes.Equal(m.Data, big) {
			t.Fatalf("recv %d: payload mismatch (%d bytes)", seq, len(m.Data))
		}
		proto.Release(m)
	}
	if hits := stats.Hits.Load(); hits != 1 {
		t.Fatalf("%d reference hits, want 1", hits)
	}
}

// TestDedupMissFetchesBlob forces a cache miss (degenerate single-entry
// cache displaced by a second payload) and checks the blobmiss/blob
// exchange restores the bytes, counting one miss. Each payload is sent
// once before it is seeded, as its plain first sighting.
func TestDedupMissFetchesBlob(t *testing.T) {
	a, b, _ := wsockPair(t, netsim.Loopback, Config{HeartbeatInterval: -1})
	stats := &blob.FlowStats{}
	master := DedupMasterChannel(a, blob.NewIntern(0), stats)
	wkr := DedupWorkerChannel(b, blob.NewCache(-1))

	first := dedupPayload(4, 2048)
	second := dedupPayload(5, 2048)
	// Sight both payloads once: they travel plain.
	for _, data := range [][]byte{first, second} {
		if err := master.Send(&proto.Message{Type: proto.TypeInput, Data: append([]byte(nil), data...)}); err != nil {
			t.Fatal(err)
		}
	}
	// Seed both payloads in order; the single-entry cache keeps only the
	// second.
	for seq, data := range [][]byte{first, second} {
		if err := master.Send(&proto.Message{Type: proto.TypeInput, Seq: uint64(seq + 1), Data: append([]byte(nil), data...)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		m, err := wkr.Recv()
		if err != nil {
			t.Fatal(err)
		}
		proto.Release(m)
	}

	// The repeat of the displaced payload arrives as a reference the
	// cache cannot resolve: the worker fetches. The master half services
	// the fetch from its Recv loop, which returns when the worker's
	// result lands.
	done := make(chan error, 1)
	go func() {
		m, err := wkr.Recv()
		if err != nil {
			done <- err
			return
		}
		if !bytes.Equal(m.Data, first) {
			done <- errors.New("fetched payload differs from the original")
			proto.Release(m)
			return
		}
		proto.Release(m)
		done <- wkr.Send(&proto.Message{Type: proto.TypeResult, Seq: 3})
	}()
	if err := master.Send(&proto.Message{Type: proto.TypeInput, Seq: 3, Data: append([]byte(nil), first...)}); err != nil {
		t.Fatal(err)
	}
	m, err := master.Recv() // services the blobmiss, then yields the result
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != proto.TypeResult || m.Seq != 3 {
		t.Fatalf("master received %+v, want the result frame", m)
	}
	proto.Release(m)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if misses := stats.Misses.Load(); misses != 1 {
		t.Fatalf("%d misses, want 1", misses)
	}
}

// TestDedupPoisonedCacheCrashStops pins the corruption contract: a
// poisoned cache entry surfaces as a digest mismatch on the next
// reference, failing the channel — wrong bytes must never reach the
// processing function. The payload is sent once before it seeds the
// cache, as its plain first sighting.
func TestDedupPoisonedCacheCrashStops(t *testing.T) {
	master, wkr, _, cache, _ := dedupPair(t)
	big := dedupPayload(6, 4096)

	for seq := uint64(0); seq <= 1; seq++ {
		if err := master.Send(&proto.Message{Type: proto.TypeInput, Seq: seq, Data: append([]byte(nil), big...)}); err != nil {
			t.Fatal(err)
		}
		m, err := wkr.Recv()
		if err != nil {
			t.Fatal(err)
		}
		proto.Release(m)
	}

	if !cache.PoisonNewest() {
		t.Fatal("nothing to poison: the cache was never seeded")
	}
	if err := master.Send(&proto.Message{Type: proto.TypeInput, Seq: 2, Data: append([]byte(nil), big...)}); err != nil {
		t.Fatal(err)
	}
	if _, err := wkr.Recv(); !errors.Is(err, blob.ErrDigestMismatch) {
		t.Fatalf("reference to poisoned entry: %v, want ErrDigestMismatch", err)
	}
}

// TestDedupFailedFetchCrashStops: a blob reply carrying an error (the
// intern table evicted the bytes) fails the worker channel rather than
// wedging or inventing data.
func TestDedupFailedFetchCrashStops(t *testing.T) {
	a, b, _ := wsockPair(t, netsim.Loopback, Config{HeartbeatInterval: -1})
	wkr := DedupWorkerChannel(b, blob.NewCache(0))

	d := blob.Sum(dedupPayload(7, 2048))
	if err := a.Send(&proto.Message{Type: proto.TypeInput, Seq: 1, Digest: d[:]}); err != nil {
		t.Fatal(err)
	}
	go func() {
		// Raw peer standing in for the master: answer the miss with the
		// eviction error.
		m, err := a.Recv()
		if err != nil {
			return
		}
		if m.Type == proto.TypeBlobMiss {
			_ = a.Send(&proto.Message{Type: proto.TypeBlob, Digest: append([]byte(nil), m.Digest...), Err: "blob evicted from intern table"})
		}
		proto.Release(m)
	}()
	if _, err := wkr.Recv(); err == nil {
		t.Fatal("failed fetch returned a message, want a channel error")
	}
}

// TestDedupFetchAbandonedOnReassign: a lease-control frame arriving
// while a fetch is pending abandons the referenced input (the master
// re-lends it) and takes its place in the delivery order.
func TestDedupFetchAbandonedOnReassign(t *testing.T) {
	a, b, _ := wsockPair(t, netsim.Loopback, Config{HeartbeatInterval: -1})
	wkr := DedupWorkerChannel(b, blob.NewCache(0))

	d := blob.Sum(dedupPayload(8, 2048))
	if err := a.Send(&proto.Message{Type: proto.TypeInput, Seq: 1, Digest: d[:]}); err != nil {
		t.Fatal(err)
	}
	go func() {
		m, err := a.Recv()
		if err != nil {
			return
		}
		if m.Type == proto.TypeBlobMiss {
			_ = a.Send(&proto.Message{Type: proto.TypeReassign, Func: "elsewhere"})
		}
		proto.Release(m)
	}()
	m, err := wkr.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != proto.TypeReassign {
		t.Fatalf("received %+v, want the reassign frame", m)
	}
	proto.Release(m)
}
