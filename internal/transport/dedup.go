package transport

import (
	"fmt"
	"slices"

	"pando/internal/blob"
	"pando/internal/proto"
)

// This file implements the channel-level halves of content-addressed
// payload dedup (part of the '/pando/2.2.0' wire). Both halves are plain
// Channel wrappers, so the duplexes, the send queues, and the fleet
// machinery compose around them unchanged:
//
//   - DedupMasterChannel sends a payload's first sighting in the job
//     plain. From the second sighting on, it interns the payload and
//     sends it in full with its digest the first time on this channel,
//     then as a digest-only reference. It answers the worker's blobmiss
//     fetches out of the intern table.
//   - DedupWorkerChannel resolves incoming references against the
//     volunteer's blob cache, fetching the bytes over the same ordered
//     channel on a miss, and verifies every payload that carries a digest
//     before the processing function ever sees it.
//
// Both work in the routed handler, sending through the duplex's queue.
//
// Digest mismatches and un-servable fetches are channel failures: the
// stack already treats a failed channel as a crashed worker and re-lends
// its outstanding values, so dedup corruption degrades to crash-stop
// exactly like frame corruption does.

// dedupMinSize is the smallest payload worth content-addressing; below
// it the digest plus bookkeeping rivals the payload itself.
const dedupMinSize = 1024

// sentDigestCap bounds the per-channel reference tracker (digests this
// channel has transmitted in full at least once). Beyond it the oldest
// tracked digest is forgotten — later repeats retransmit in full, which
// costs bandwidth but never correctness.
const sentDigestCap = 8192

// dedupSender is the master-side half.
type dedupSender struct {
	Channel
	intern *blob.Intern
	stats  *blob.FlowStats

	// sent tracks digests transmitted in full on this channel, with a
	// FIFO cap. Only the channel's single sender goroutine and the
	// coalescing writer touch it, but SendBatch encoding runs outside
	// the channel write lock, so guard it anyway via the channel's Send
	// serialization — the duplex Sink is the sole producer of inputs, so
	// no lock is needed here. (Control frames never carry Data.)
	sent  map[blob.Digest]struct{}
	order []blob.Digest
	next  int

	q *sendQueue // the duplex's: blob replies ride it
}

// DedupMasterChannel wraps ch with the master-side dedup half. intern is
// the job-wide content store (shared across channels); stats receives
// this channel's hit/miss/evict counts and is typically shared by every
// channel of one worker name.
func DedupMasterChannel(ch Channel, intern *blob.Intern, stats *blob.FlowStats) Channel {
	return &dedupSender{
		Channel: ch,
		intern:  intern,
		stats:   stats,
		sent:    make(map[blob.Digest]struct{}),
	}
}

// transform rewrites one outgoing input in place. The job's first
// sighting of a payload stays plain: most large inputs are never sent
// again, so hashing, interning and caching them would be wasted. A later
// sighting is interned and travels with its digest alongside the bytes
// (seeding the worker's cache) the first time on this channel; a repeat
// whose bytes are still interned travels as a digest-only reference.
func (s *dedupSender) transform(m *proto.Message) {
	if m.Type != proto.TypeInput && m.Type != proto.TypeInputBatch {
		return
	}
	if len(m.Data) < dedupMinSize || !s.intern.Admit(m.Data) {
		return
	}
	d := blob.Sum(m.Data)
	if _, seen := s.sent[d]; seen {
		if _, ok := s.intern.Get(d); ok {
			m.SetDigest(d)
			m.Data = nil
			s.stats.Hits.Add(1)
			return
		}
		// Interned bytes were evicted since the last send: fall through
		// and retransmit in full, re-interning them.
	}
	s.intern.Add(d, m.Data)
	s.markSent(d)
	m.SetDigest(d)
}

func (s *dedupSender) markSent(d blob.Digest) {
	if _, ok := s.sent[d]; ok {
		return
	}
	if len(s.order) < sentDigestCap {
		s.sent[d] = struct{}{}
		s.order = append(s.order, d)
		return
	}
	victim := s.order[s.next]
	delete(s.sent, victim)
	s.stats.Evicts.Add(1)
	s.order[s.next] = d
	s.next = (s.next + 1) % sentDigestCap
	s.sent[d] = struct{}{}
}

func (s *dedupSender) Send(m *proto.Message) error {
	s.transform(m)
	return s.Channel.Send(m)
}

// SendBatch keeps the vectored write path: every message is transformed,
// then the whole slice goes out as one write when the underlying channel
// supports it.
func (s *dedupSender) SendBatch(ms []*proto.Message) error {
	for _, m := range ms {
		s.transform(m)
	}
	return SendAll(s.Channel, ms)
}

// useQueue implements queued.
func (s *dedupSender) useQueue(q *sendQueue) { s.q = q }

// Route passes frames through, answering the worker's blobmiss fetches on
// the way, through the send queue: behind the inputs already queued.
func (s *dedupSender) Route(h func(*proto.Message, error)) {
	s.Channel.Route(func(m *proto.Message, err error) {
		if m == nil || m.Type != proto.TypeBlobMiss {
			h(m, err)
			return
		}
		d, ok := blob.SumOf(m.Digest)
		proto.Release(m)
		if !ok {
			// A miss without a well-formed digest cannot be answered and
			// the worker is wedged waiting for one: fail the channel.
			s.Channel.Close()
			return
		}
		s.stats.Misses.Add(1)
		reply := &proto.Message{Type: proto.TypeBlob, Digest: d[:]}
		if data, found := s.intern.Get(d); found {
			reply.Data = data
		} else {
			// Evicted between the reference and the fetch: report the blob
			// gone. The worker fails the channel and the engine re-lends
			// the value — bounded memory beats this corner case.
			reply.Err = "blob evicted from intern table"
		}
		s.q.enqueue(reply, nil)
	})
}

// dedupReceiver is the worker-side half, a state machine on the read loop:
// a reference the cache cannot resolve starts a fetch, and the frames that
// arrive before its blob wait behind it, in order.
type dedupReceiver struct {
	Channel
	cache *blob.Cache
	q     *sendQueue // the serve loop's: blobmiss requests ride it
	h     func(*proto.Message, error)
	ref   *proto.Message   // the reference a fetch is pending for
	want  blob.Digest      // ref's digest
	held  []*proto.Message // frames that arrived since, oldest first
	over  bool             // h got its end
}

// DedupWorkerChannel wraps ch with the worker-side dedup half, resolving
// payload references against cache (shared across sessions: content
// addressing is safe across reassignment). Fetches ride WorkerServe's queue.
func DedupWorkerChannel(ch Channel, cache *blob.Cache) Channel {
	return &dedupReceiver{Channel: ch, cache: cache}
}

// isLeaseControl reports frames that end or redirect the current lease.
// Receiving one while a blob fetch is pending means the master has moved
// on and the answer may never come: the pending input is abandoned (the
// master re-lends it) and the control frame takes its place in the
// delivery order.
func isLeaseControl(m *proto.Message) bool {
	switch m.Type {
	case proto.TypeReassign, proto.TypeGoodbye, proto.TypeError:
		return true
	}
	return false
}

// useQueue implements queued.
func (r *dedupReceiver) useQueue(q *sendQueue) { r.q = q }

// Route hands h every frame with its payload resolved and verified.
func (r *dedupReceiver) Route(h func(*proto.Message, error)) {
	r.h = h
	r.Channel.Route(r.deliver)
}

// deliver takes one frame off the channel.
func (r *dedupReceiver) deliver(m *proto.Message, err error) {
	switch {
	case r.over:
		proto.Release(m)
	case m == nil:
		r.fail(err)
	case r.ref == nil:
		r.pass(m)
	case m.Type == proto.TypeBlob:
		r.fetched(m)
	default:
		// Later frames wait behind the pending one; a control frame
		// abandons it (isLeaseControl).
		r.held = append(r.held, m)
		if isLeaseControl(m) {
			proto.Release(r.ref)
			r.ref = nil
			r.drain()
		}
	}
}

// pass resolves one frame and hands it on, or starts a fetch for it.
func (r *dedupReceiver) pass(m *proto.Message) {
	if m.Type != proto.TypeInput && m.Type != proto.TypeInputBatch {
		r.h(m, nil)
		return
	}
	d, ok := blob.SumOf(m.Digest)
	if !ok {
		r.h(m, nil) // no digest: the plain data plane
		return
	}
	seq := m.Seq
	if len(m.Data) > 0 {
		// Full transmission with its content address: verify before the
		// processing function sees a byte, then seed the cache.
		if err := r.cache.Put(d, m.Data); err != nil {
			proto.Release(m)
			r.fail(fmt.Errorf("transport: payload for input %d: %w", seq, err))
			return
		}
		r.h(m, nil)
		return
	}
	// Digest-only reference: resolve locally or fetch.
	data, hit, err := r.cache.Get(d)
	switch {
	case err != nil:
		proto.Release(m)
		r.fail(fmt.Errorf("transport: cached payload for input %d: %w", seq, err))
	case hit:
		m.Data = data
		r.h(m, nil)
	case slices.ContainsFunc(r.held, isLeaseControl):
		proto.Release(m) // abandoned already: a control frame follows it
	default:
		r.ref, r.want = m, d
		r.q.enqueue(&proto.Message{Type: proto.TypeBlobMiss, Digest: append([]byte(nil), d[:]...)}, nil)
	}
}

// fetched completes the pending fetch with its blob reply, then hands on
// the frames held behind it.
func (r *dedupReceiver) fetched(m *proto.Message) {
	if got, ok := blob.SumOf(m.Digest); !ok || got != r.want {
		proto.Release(m) // a blob we did not ask for
		return
	}
	if m.Err != "" {
		err := fmt.Errorf("transport: blob fetch for input %d failed: %s", r.ref.Seq, m.Err)
		proto.Release(m)
		r.fail(err)
		return
	}
	// pass verifies and caches the payload, as a full transmission's.
	ref := r.ref
	r.ref = nil
	ref.Data = m.Data
	m.Detach()
	proto.Release(m)
	r.pass(ref)
	r.drain()
}

// drain hands on the held frames, in order, until one starts a fetch.
func (r *dedupReceiver) drain() {
	for r.ref == nil && !r.over && len(r.held) > 0 {
		m := r.held[0]
		r.held = r.held[:copy(r.held, r.held[1:])]
		r.pass(m)
	}
}

// fail gives h its end and closes the channel, dropping the fetch in
// progress and what it held: dedup corruption degrades to crash-stop.
func (r *dedupReceiver) fail(err error) {
	r.over = true
	proto.Release(r.ref)
	for _, m := range r.held {
		proto.Release(m)
	}
	r.ref, r.held = nil, nil
	r.h(nil, err)
	r.Channel.Close()
}
