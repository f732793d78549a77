package transport

import (
	"sync"

	"pando/internal/proto"
)

// This file implements send coalescing, the syscall-amortization half of
// the zero-alloc hot path: instead of one write per input frame, the
// master opportunistically packs every frame that accumulated while the
// previous write was in flight into a single vectored send. The batch
// size is not a tuning knob — it is whatever the scheduler's live credit
// window admits between two syscalls ("smart batching"): on an idle
// channel frames go out singly with no added latency, and under load the
// batch grows toward the window, collapsing up to window-many syscalls
// into one. Coalesced frames are ordinary frames — wire-compatible with
// every existing peer — so coalescing composes with the credit gate and
// re-lending machinery unchanged. Both directions share one queue: the
// master duplex's Sink enqueues inputs, the worker's read loop replies.

// BatchSender is implemented by channels that can transmit several frames
// in one vectored write (a single syscall). SendAll uses it when present.
type BatchSender interface {
	// SendBatch transmits ms in order as one write. It is atomic with
	// respect to concurrent Sends.
	SendBatch(ms []*proto.Message) error
}

var _ BatchSender = (*WSock)(nil)

// SendAll transmits ms in order, as one vectored write when the channel
// supports it and as individual sends otherwise.
func SendAll(ch Channel, ms []*proto.Message) error {
	if bs, ok := ch.(BatchSender); ok {
		return bs.SendBatch(ms)
	}
	for _, m := range ms {
		if err := ch.Send(m); err != nil {
			return err
		}
	}
	return nil
}

// sendQueue is smart batching for one direction of a channel: the
// producer enqueues frames as fast as it makes them and a dedicated
// sender flushes everything pending in one vectored write per wakeup.
// The batch needs no tuning knob — it is bounded by the live credit
// window, since every queued input crossed the gate's Acquire and every
// queued reply answers such an input. The queue preserves order, so
// control frames (reassign acks, goodbyes) enqueued after data keep the
// serial loop's drain-barrier property: everything enqueued before them
// is on the wire first. A frame handed to the queue belongs to it: the
// queue Releases it once it is written, or at close if it never is. A
// received frame whose bytes a reply may alias (an identity handler under
// RawCodec) is handed over with the reply and released after it.
type sendQueue struct {
	ch      Channel
	meter   Meter // told each input's wire length; nil on the worker side
	mu      sync.Mutex
	cond    *sync.Cond
	pending []*proto.Message // frames awaiting the next vectored write
	owned   []*proto.Message // received frames to release once pending is written
	done    bool
	err     error
	wg      sync.WaitGroup
}

// queued is implemented by channel wrappers whose Route handler sends
// frames of its own (dedup's blob fetches and replies): a send queue made
// on one hands itself over, so the read loop never waits on a write.
type queued interface{ useQueue(q *sendQueue) }

func newSendQueue(ch Channel, meter Meter) *sendQueue {
	q := &sendQueue{ch: ch, meter: meter}
	q.cond = sync.NewCond(&q.mu)
	if w, ok := ch.(queued); ok {
		w.useQueue(q)
	}
	q.wg.Add(1)
	go q.run()
	return q
}

func (q *sendQueue) run() {
	defer q.wg.Done()
	// The queue alternates between two pairs of slices: the one being
	// written out and the one producers append to.
	var batch, frames []*proto.Message
	for {
		q.mu.Lock()
		for len(q.pending) == 0 && !q.done {
			q.cond.Wait()
		}
		batch, q.pending = q.pending, batch[:0]
		frames, q.owned = q.owned, frames[:0]
		d := q.done
		q.mu.Unlock()
		if len(batch) > 0 {
			err := SendAll(q.ch, batch)
			for _, m := range batch {
				if n := m.WireLen(); q.meter != nil && m.Seq > 0 && n > 0 {
					q.meter.Charge(m.Seq, n, true)
				}
				proto.Release(m)
			}
			for _, m := range frames {
				proto.Release(m)
			}
			clear(batch)
			clear(frames)
			if err != nil {
				q.mu.Lock()
				q.err = err
				q.mu.Unlock()
				return
			}
		}
		if d {
			return
		}
	}
}

// enqueue queues m for the next vectored write; frame (which may be nil)
// is released after m. It reports false after a send failure or close,
// at which point the caller should stop and close; m and frame are
// released at once then.
func (q *sendQueue) enqueue(m, frame *proto.Message) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.err != nil || q.done {
		proto.Release(m)
		proto.Release(frame)
		return false
	}
	q.pending = append(q.pending, m)
	if frame != nil {
		q.owned = append(q.owned, frame)
	}
	q.cond.Signal()
	return true
}

// close lets the sender drain everything enqueued so far, stops it, and
// returns the first send error if any. Frames that never made the wire
// are still released.
func (q *sendQueue) close() error {
	q.mu.Lock()
	q.done = true
	q.cond.Signal()
	q.mu.Unlock()
	q.wg.Wait()
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, m := range q.pending {
		proto.Release(m)
	}
	for _, m := range q.owned {
		proto.Release(m)
	}
	q.pending, q.owned = nil, nil
	return q.err
}
