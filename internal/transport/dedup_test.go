package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

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
// simulated pipe, returning the master half, the worker half routed into
// an inbox, and their shared stores.
func dedupPair(t *testing.T) (Channel, *inbox, *blob.Intern, *blob.Cache, *blob.FlowStats) {
	t.Helper()
	a, b, _ := wsockPair(t, netsim.Loopback, Config{HeartbeatInterval: -1})
	intern := blob.NewIntern(0)
	cache := blob.NewCache(0)
	stats := &blob.FlowStats{}
	return DedupMasterChannel(a, intern, stats), routeInbox(t, DedupWorkerChannel(b, cache)), intern, cache, stats
}

// inbox stands in for a routed channel's consumer (MasterDuplex's result
// source, WorkerServe): it queues what the channel routes, for the test
// to read back frame by frame.
type inbox struct{ q chan routedFrame }

type routedFrame struct {
	m   *proto.Message
	err error
}

// routeInbox routes ch into a new inbox, behind a send queue of its own
// as the duplexes make one: a dedup half sends its blob fetches and
// replies through it.
func routeInbox(t *testing.T, ch Channel) *inbox {
	t.Helper()
	q := newSendQueue(ch, nil)
	t.Cleanup(func() { q.close() })
	in := &inbox{q: make(chan routedFrame, 256)}
	ch.Route(func(m *proto.Message, err error) { in.q <- routedFrame{m, err} })
	return in
}

// Recv returns the next routed frame, or the channel's end.
func (in *inbox) Recv() (*proto.Message, error) {
	select {
	case r := <-in.q:
		return r.m, r.err
	case <-time.After(5 * time.Second):
		return nil, errors.New("nothing routed within 5s")
	}
}

// sendRaw sends data as input seq through master and returns the frame
// exactly as it crossed the wire, read by the raw peer.
func sendRaw(t *testing.T, master Channel, peer *WSock, seq uint64, data []byte) *proto.Message {
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
	masterIn, wkrIn := routeInbox(t, master), routeInbox(t, wkr)

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
		m, err := wkrIn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		proto.Release(m)
	}

	// The repeat of the displaced payload arrives as a reference the
	// cache cannot resolve: the worker fetches. The master half answers
	// the fetch on its read loop, so its handler sees only the worker's
	// result.
	if err := master.Send(&proto.Message{Type: proto.TypeInput, Seq: 3, Data: append([]byte(nil), first...)}); err != nil {
		t.Fatal(err)
	}
	m, err := wkrIn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Data, first) {
		t.Fatal("fetched payload differs from the original")
	}
	proto.Release(m)
	if err := wkr.Send(&proto.Message{Type: proto.TypeResult, Seq: 3}); err != nil {
		t.Fatal(err)
	}
	m, err = masterIn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != proto.TypeResult || m.Seq != 3 {
		t.Fatalf("master received %+v, want the result frame", m)
	}
	proto.Release(m)
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
	wkr := routeInbox(t, DedupWorkerChannel(b, blob.NewCache(0)))

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
	wkr := routeInbox(t, DedupWorkerChannel(b, blob.NewCache(0)))

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

// TestDedupMissHoldsLaterFrames: while a reference waits for its blob,
// the plain inputs that arrive after it wait too. All three reach the
// handler in arrival order, once the blob is in.
func TestDedupMissHoldsLaterFrames(t *testing.T) {
	a, b, _ := wsockPair(t, netsim.Loopback, Config{HeartbeatInterval: -1})
	wkr := routeInbox(t, DedupWorkerChannel(b, blob.NewCache(0)))

	big := dedupPayload(12, 2048)
	d := blob.Sum(big)
	// The wire is ordered: inputs 2 and 3 reach the worker before the blob
	// the reference's miss asks for.
	for _, m := range []*proto.Message{
		{Type: proto.TypeInput, Seq: 1, Digest: d[:]},
		{Type: proto.TypeInput, Seq: 2, Data: []byte("two")},
		{Type: proto.TypeInput, Seq: 3, Data: []byte("three")},
	} {
		if err := a.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	miss, err := a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := blob.SumOf(miss.Digest); miss.Type != proto.TypeBlobMiss || !ok || got != d {
		t.Fatalf("worker sent %+v, want a blobmiss for %x", miss, d[:])
	}
	proto.Release(miss)
	select {
	case r := <-wkr.q:
		t.Fatalf("the handler got %+v (err %v) before the blob", r.m, r.err)
	default:
	}
	if err := a.Send(&proto.Message{Type: proto.TypeBlob, Digest: d[:], Data: big}); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		m, err := wkr.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Seq != seq {
			t.Fatalf("handler got input %d, want %d", m.Seq, seq)
		}
		if seq == 1 && !bytes.Equal(m.Data, big) {
			t.Fatal("the reference reached the handler without its fetched payload")
		}
		proto.Release(m)
	}
}

// TestDedupHeldReferenceAbandonedOnReassign: a reference held behind a
// pending fetch is abandoned too when a lease-control frame arrived
// behind it, rather than starting a fetch nobody will answer. The plain
// input between them still reaches the handler, then the control frame.
func TestDedupHeldReferenceAbandonedOnReassign(t *testing.T) {
	a, b, _ := wsockPair(t, netsim.Loopback, Config{HeartbeatInterval: -1})
	wkr := routeInbox(t, DedupWorkerChannel(b, blob.NewCache(0)))

	d1, d2 := blob.Sum(dedupPayload(13, 2048)), blob.Sum(dedupPayload(14, 2048))
	for _, m := range []*proto.Message{
		{Type: proto.TypeInput, Seq: 1, Digest: d1[:]},
		{Type: proto.TypeInput, Seq: 2, Data: []byte("two")},
		{Type: proto.TypeInput, Seq: 3, Digest: d2[:]},
		{Type: proto.TypeReassign, Func: "elsewhere"},
	} {
		if err := a.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []proto.Type{proto.TypeInput, proto.TypeReassign} {
		m, err := wkr.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Type != want || (want == proto.TypeInput && m.Seq != 2) {
			t.Fatalf("handler got %+v, want input 2 then the reassign", m)
		}
		proto.Release(m)
	}
	// By now every fetch the worker asked for is queued: exactly one, the
	// first reference's, crosses the wire.
	miss, err := a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := blob.SumOf(miss.Digest); miss.Type != proto.TypeBlobMiss || !ok || got != d1 {
		t.Fatalf("first frame back %+v, want the blobmiss for input 1", miss)
	}
	proto.Release(miss)
	more := make(chan *proto.Message, 1)
	go func() {
		if m, err := a.Recv(); err == nil {
			more <- m
		}
	}()
	select {
	case m := <-more:
		t.Fatalf("a second frame came back: %+v", m)
	case <-time.After(100 * time.Millisecond):
	}
}
