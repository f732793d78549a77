package transport

import (
	"fmt"

	"pando/internal/blob"
	"pando/internal/proto"
)

// This file implements the channel-level halves of content-addressed
// payload dedup (part of the '/pando/2.2.0' wire). Both halves are plain
// Channel wrappers, so the duplexes, the reply queue, and the fleet
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
			m.Digest = append(m.Digest[:0], d[:]...)
			m.Data = nil
			s.stats.Hits.Add(1)
			return
		}
		// Interned bytes were evicted since the last send: fall through
		// and retransmit in full, re-interning them.
	}
	s.intern.Add(d, m.Data)
	s.markSent(d)
	m.Digest = append(m.Digest[:0], d[:]...)
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

// Recv passes frames through, servicing blobmiss fetches on the way: the
// worker asked for bytes its cache could not resolve, and the result
// source that calls Recv is exactly the goroutine that keeps pulling
// while values are outstanding, so a fetch is always answered.
func (s *dedupSender) Recv() (*proto.Message, error) {
	for {
		m, err := s.Channel.Recv()
		if err != nil {
			return nil, err
		}
		if m.Type != proto.TypeBlobMiss {
			return m, nil
		}
		d, ok := blob.SumOf(m.Digest)
		proto.Release(m)
		if !ok {
			// A miss without a well-formed digest cannot be answered and
			// the worker is wedged waiting for one: fail the channel.
			s.Channel.Close()
			return nil, fmt.Errorf("transport: blobmiss without digest")
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
		if err := s.Channel.Send(reply); err != nil {
			return nil, err
		}
	}
}

// dedupReceiver is the worker-side half.
type dedupReceiver struct {
	Channel
	cache *blob.Cache

	// queue holds frames that arrived while a blob fetch was pending;
	// they are delivered FIFO before the channel is read again. Recv is
	// called from the single serve loop, so no lock guards it.
	queue []*proto.Message
}

// DedupWorkerChannel wraps ch with the worker-side dedup half, resolving
// payload references against cache (shared across the volunteer's
// sessions — content addressing makes that safe across reassignment).
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

func (r *dedupReceiver) Recv() (*proto.Message, error) {
	for {
		var m *proto.Message
		if len(r.queue) > 0 {
			m = r.queue[0]
			r.queue = r.queue[1:]
		} else {
			var err error
			m, err = r.Channel.Recv()
			if err != nil {
				return nil, err
			}
		}
		out, err := r.resolve(m)
		if err != nil {
			r.Channel.Close()
			return nil, err
		}
		if out != nil {
			return out, nil
		}
		// Abandoned reference: loop and deliver whatever is next.
	}
}

// resolve rewrites an incoming digest-bearing input into a deliverable
// frame. It returns (nil, nil) when the frame was a reference abandoned
// because the lease ended mid-fetch.
func (r *dedupReceiver) resolve(m *proto.Message) (*proto.Message, error) {
	if m.Type != proto.TypeInput && m.Type != proto.TypeInputBatch {
		return m, nil
	}
	d, ok := blob.SumOf(m.Digest)
	if !ok {
		return m, nil // no digest: the plain data plane
	}
	seq := m.Seq
	if len(m.Data) > 0 {
		// Full transmission with its content address: verify before the
		// processing function sees a byte, then seed the cache.
		if err := r.cache.Put(d, m.Data); err != nil {
			proto.Release(m)
			return nil, fmt.Errorf("transport: payload for input %d: %w", seq, err)
		}
		return m, nil
	}
	// Digest-only reference: resolve locally or fetch.
	data, hit, err := r.cache.Get(d)
	if err != nil {
		proto.Release(m)
		return nil, fmt.Errorf("transport: cached payload for input %d: %w", seq, err)
	}
	if hit {
		m.Data = data
		return m, nil
	}
	return r.fetch(m, d)
}

// fetch asks the master for the bytes behind d and waits for the blob
// reply, queueing unrelated frames so their order is preserved. The
// channel is ordered and the master serves fetches from its result
// source, so the reply (or a lease-ending control frame) always arrives.
func (r *dedupReceiver) fetch(ref *proto.Message, d blob.Digest) (*proto.Message, error) {
	seq := ref.Seq
	if err := r.Channel.Send(&proto.Message{Type: proto.TypeBlobMiss, Digest: d[:]}); err != nil {
		proto.Release(ref)
		return nil, err
	}
	for {
		m, err := r.Channel.Recv()
		if err != nil {
			proto.Release(ref)
			return nil, err
		}
		if m.Type == proto.TypeBlob {
			got, ok := blob.SumOf(m.Digest)
			if ok && got == d {
				if m.Err != "" {
					errMsg := m.Err
					proto.Release(m)
					proto.Release(ref)
					return nil, fmt.Errorf("transport: blob fetch for input %d failed: %s", seq, errMsg)
				}
				if err := r.cache.Put(d, m.Data); err != nil {
					proto.Release(m)
					proto.Release(ref)
					return nil, fmt.Errorf("transport: fetched payload for input %d: %w", seq, err)
				}
				proto.Release(m)
				data, hit, err := r.cache.Get(d)
				if err != nil || !hit {
					proto.Release(ref)
					return nil, fmt.Errorf("transport: fetched blob vanished from cache: %v", err)
				}
				ref.Data = data
				return ref, nil
			}
			// A blob we did not ask for; drop it.
			proto.Release(m)
			continue
		}
		if isLeaseControl(m) {
			// The lease ended or moved mid-fetch: the reply may never
			// come. Abandon the reference (the master re-lends the value)
			// and let the control frame — after any frames that preceded
			// it — take over the delivery order.
			r.queue = append(r.queue, m)
			proto.Release(ref)
			return nil, nil
		}
		// Anything else (later inputs, strays) waits its turn behind the
		// pending one.
		r.queue = append(r.queue, m)
	}
}
