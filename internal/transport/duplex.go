package transport

import (
	"fmt"
	"sync"
	"time"

	"pando/internal/proto"
	"pando/internal/pullstream"
)

// Codec serializes stream values for the wire. JSONCodec suits most
// applications; payload-heavy applications can provide their own.
type Codec[T any] interface {
	Encode(T) ([]byte, error)
	Decode([]byte) (T, error)
}

// AliasingCodec is implemented by codecs that declare whether Decode's
// result can alias the input buffer. Whoever decodes a held result frame
// uses it to decide the frame's fate once its payload is decoded: a
// non-aliasing codec's frame recycles into the arena immediately, while an
// aliasing codec's frame must be detached first because the decoded value
// shares its memory. Codecs that don't implement the interface are treated
// as aliasing — the conservative choice, trading pool hits for safety.
type AliasingCodec interface {
	DecodeAliases() bool
}

// appendEncoder is implemented by codecs that can encode into a given
// buffer (JSONCodec): AppendEncode then fills a frame's pooled one.
type appendEncoder[T any] interface {
	appendEncode(dst []byte, v T) ([]byte, error)
}

// AppendEncode appends v's encoding by c to dst when c can encode in place
// (JSONCodec can), and otherwise returns c.Encode(v), which need not share
// dst. It is how a result or input reaches the arena buffer of its frame.
func AppendEncode[T any](c Codec[T], dst []byte, v T) ([]byte, error) {
	if ae, ok := c.(appendEncoder[T]); ok {
		return ae.appendEncode(dst, v)
	}
	return c.Encode(v)
}

// Aliases resolves the aliasing contract of an arbitrary codec.
func Aliases(c any) bool {
	if a, ok := c.(AliasingCodec); ok {
		return a.DecodeAliases()
	}
	return true
}

// WorkerError wraps an application-level error reported by a worker's
// processing function. The master treats it as a channel failure so the
// input is re-lent to another device (a persistent f error should be
// handled with the stubborn module instead).
type WorkerError struct {
	Seq uint64
	Msg string
}

func (e *WorkerError) Error() string {
	return fmt.Sprintf("transport: worker failed on input %d: %s", e.Seq, e.Msg)
}

// Meter is told what the master duplex learns about the values it sends
// to one worker (sched.Controller implements it).
type Meter interface {
	// Charge is told the k-th input's (from 1) payload length as soon as
	// its frame is made, and its wire length (wire) once written.
	Charge(k uint64, n int, wire bool)
	// Served is told a result's service stamp (proto.Message.Service):
	// how long the worker's processing function took on its input.
	Served(d time.Duration)
}

// MasterDuplex exposes a channel to the master as a pull-stream duplex:
// its Sink consumes the inputs lent to the worker (sending them as input
// frames) and its Source produces the worker's results as the frames that
// carry them, accepted on the channel's read loop, which the
// StreamLender's pump then runs on too:
// pull(sub.Source, Gate(ctrl, MasterDuplex(ch)), sub.Sink). Results stay
// bytes: the master decodes each one once, where it is emitted, and
// releases its frame there.
//
// It is the one master data path. Sends are smart-batched: the Sink
// pulls inputs as fast as the credit gate admits them and a sendQueue
// flushes everything pending in one vectored write per wakeup, so the
// batch adapts to the live credit window with no framing parameter (an
// idle channel sends a lone frame at once). A group of values is just an
// item whose codec is a ListCodec: the same duplex then emits
// TypeInputBatch and accepts TypeResultBatch frames (binary batches,
// proto.EncodeBatch), each re-framed as the ListCodec encoding of the
// group's results (listFrame). meter, when not nil, is told each input's
// payload length as soon as its frame is made and its wire length once
// written, and each result's service stamp as the result is accepted.
//
// Failure semantics: a channel error (including heartbeat timeout) or an
// application error reported by the worker ends the Source with an error,
// which the StreamLender converts into re-lending.
//
// The engine matches results to lent values FIFO, which is only sound if
// the result stream mirrors the input stream one for one. Workers process
// serially and echo each input's Seq, so the Seqs coming back must be
// exactly 1, 2, 3, ... — any gap means a frame was lost in flight (or a
// peer misbehaved) and the next result would be paired with the wrong
// value, silently corrupting the output. The Source therefore enforces
// contiguity and fails the channel on the first hole: the loss degrades
// to a worker crash, every outstanding value is re-lent, and exactly-once
// output survives. (The chaos suite's packet-drop fault is what forces
// this: a cleanly dropped result frame leaves the stream parseable, so
// only the Seq discipline can detect it.)
func MasterDuplex[I any](ch Channel, in Codec[I], meter Meter) pullstream.Duplex[I, *proto.Message] {
	inList, _ := any(in).(batchCodec[I])
	q := newSendQueue(ch, meter)
	return pullstream.Duplex[I, *proto.Message]{
		Sink: func(src pullstream.Source[I]) {
			defer q.close()
			var seq uint64
			pull := pullstream.NewPuller(src)
			for {
				v, end := pull.Pull(nil)
				if end != nil {
					if pullstream.IsNormalEnd(end) {
						// No more inputs for this worker: orderly goodbye,
						// queued so it stays ordered after every pending input.
						q.enqueue(&proto.Message{Type: proto.TypeGoodbye}, nil)
					} else {
						ch.Close()
					}
					return
				}
				m, err := inputFrame(in, inList, v)
				if err != nil {
					// Encoding failures are programming errors; fail the
					// channel so the value is re-lent (and likely fails
					// again, surfacing loudly).
					ch.Close()
					return
				}
				seq++
				m.Seq = seq
				if meter != nil {
					meter.Charge(seq, len(m.Data), false)
				}
				if !q.enqueue(m, nil) {
					// Channel failed mid-batch: stop pulling. The Source
					// side reports the error to the lender.
					return
				}
			}
		},
		Source: masterSource(ch, inList != nil, meter),
	}
}

// inputFrame renders one lent value as its frame, taken from the arena:
// a plain codec's value is one TypeInput payload, a list codec's value a
// TypeInputBatch.
func inputFrame[I any](in Codec[I], list batchCodec[I], v I) (m *proto.Message, err error) {
	m = proto.GetMessage()
	if list != nil {
		var items []proto.BatchItem
		items, err = list.encodeItems(v)
		m.Type, m.Data = proto.TypeInputBatch, proto.EncodeBatch(items)
		return m, err
	}
	m.Type = proto.TypeInput
	buf := proto.GetBuf(0)
	m.Data, err = AppendEncode(in, buf, v)
	own(m, buf)
	return m, err
}

// own hands m the arena buffer its payload was appended to when m.Data
// lies in it, and gives buf straight back to the arena otherwise: m.Data
// is then other memory (the codec's or f's own, an input passed through,
// what outgrew buf), which the GC keeps.
func own(m *proto.Message, buf []byte) {
	// Appending and reslicing keep the array's last element.
	if d := m.Data; cap(d) > 0 && &d[:cap(d)][cap(d)-1] == &buf[:cap(buf)][cap(buf)-1] {
		m.Own(buf)
	} else {
		proto.PutBuf(buf)
	}
}

// masterSource is the result side of MasterDuplex: a pull-stream source
// of result frames with Seq-contiguity enforcement. It accepts the result
// kind the inputs call for (TypeResultBatch for a list, TypeResult
// otherwise) and treats every check the same on both; every other frame,
// and every frame it rejects, goes back to the arena at once. It routes
// the channel and answers asks from the read loop; a result that arrives
// before its ask waits for the next one. A result's service stamp goes to
// meter (which may be nil) before the result does.
func masterSource(ch Channel, list bool, meter Meter) pullstream.Source[*proto.Message] {
	want := proto.TypeResult
	if list {
		want = proto.TypeResultBatch
	}
	var got uint64 // last result Seq accepted
	// accept checks one result frame of the wanted kind; any error is
	// crash-stop — the channel closes and the outstanding values re-lend.
	// The read loop has already checked the frame's CRC; a digest an older
	// worker attached is ignored.
	accept := func(m *proto.Message) (*proto.Message, error) {
		if m.Err != "" {
			return nil, &WorkerError{Seq: m.Seq, Msg: m.Err}
		}
		if m.Seq != got+1 {
			return nil, fmt.Errorf("transport: result seq %d, want %d (frame lost or reordered)", m.Seq, got+1)
		}
		got = m.Seq
		if m.Service > 0 && meter != nil {
			meter.Served(time.Duration(m.Service) * time.Microsecond)
		}
		if list {
			return listFrame(m)
		}
		return m, nil
	}

	var (
		mu    sync.Mutex
		asked pullstream.Callback[*proto.Message] // the pending ask
		ready []result                            // answers made before their ask, oldest first
	)
	// give answers the pending ask, or keeps the answer for the next one.
	give := func(end error, m *proto.Message) {
		mu.Lock()
		cb := asked
		if asked = nil; cb == nil {
			ready = append(ready, result{end, m})
		}
		mu.Unlock()
		if cb != nil {
			cb(end, m)
		}
	}
	ch.Route(func(m *proto.Message, err error) {
		switch {
		case m == nil:
			give(err, nil)
		case m.Type == want:
			r, err := accept(m)
			if r != m {
				proto.Release(m) // rejected, or re-framed into r
			}
			if err != nil {
				ch.Close()
			}
			give(err, r)
		case m.Type == proto.TypeGoodbye:
			proto.Release(m)
			give(pullstream.ErrDone, nil)
		default:
			// Ignore stray control messages.
			proto.Release(m)
		}
	})
	return func(abort error, cb pullstream.Callback[*proto.Message]) {
		if abort != nil {
			ch.Close()
			cb(abort, nil)
			return
		}
		mu.Lock()
		if len(ready) == 0 {
			asked = cb
			mu.Unlock()
			return
		}
		r := ready[0]
		ready = ready[:copy(ready, ready[1:])]
		mu.Unlock()
		cb(r.end, r.m)
	}
}

// result is one answer of masterSource made before its ask.
type result struct {
	end error
	m   *proto.Message
}

// listFrame re-frames a result batch as the ListCodec encoding of the
// group's results, into a frame of its own from the arena: the one form a
// group's result is held, journaled, spilled, voted on and decoded in.
// The batch frame is left to the caller. A member error is the worker's f
// failing on that member.
func listFrame(m *proto.Message) (*proto.Message, error) {
	items, err := proto.DecodeBatchShared(m.Data)
	if err != nil {
		return nil, fmt.Errorf("transport: decode result batch %d: %w", m.Seq, err)
	}
	for _, it := range items {
		if it.E != "" {
			return nil, &WorkerError{Seq: m.Seq, Msg: it.E}
		}
	}
	// The list framing is never longer than the batch it re-frames.
	r, buf := proto.GetMessage(), proto.GetBuf(len(m.Data))
	r.Type, r.Seq, r.Data = m.Type, m.Seq, appendList(buf, items)
	r.Own(buf)
	return r, nil
}

// WorkerServe runs the volunteer side of a channel, the one worker loop:
// it routes the channel and, on its read loop, applies f to each input one
// value at a time (as a browser tab handles each message in its callback)
// — to the payload of a TypeInput frame or to every member of a
// TypeInputBatch, reporting per-member errors in the result batch. It
// returns when the master says goodbye (nil) or the channel fails.
//
// f appends the result of one input payload to dst and returns it, the
// contract worker.Handler documents. A TypeInput's dst is an arena buffer
// sized by the previous result, which the result frame owns when the
// returned slice shares its array; otherwise (f returned its input, a
// slice of its own, or outgrew dst) the buffer goes straight back to the
// arena. A batch member's dst is nil: the reply batch copies every
// member. Input frames recycle into the arena after their reply is
// written, so f must retain neither argument past return.
//
// The first result of the session, and the first after each reassign,
// carries in Service how long applying f to its input took, in µs (at
// least 1): the master's credit controller sizes its window from it. Only
// those results are timed.
//
// A reassign frame from a shared fleet moves the worker to another job.
// reassign resolves the named function to a new processing function; the
// switch is acknowledged by echoing the reassign frame AFTER the
// resolution, which is the drain barrier the master waits on — the ack
// rides the same ordered queue as results, so every result of the
// previous job has already been written when the echo goes out. A nil
// reassign ignores such frames like any unknown control message.
//
// Replies go out through a sendQueue, never from the read loop: results
// that accumulate while the previous write is in flight leave in one
// vectored write.
func WorkerServe(ch Channel, f func(dst, input []byte) ([]byte, error), reassign func(name string) (func(dst, input []byte) ([]byte, error), error)) error {
	q := newSendQueue(ch, nil)
	over, stopped := false, make(chan error, 1) // over: what still arrives is dropped
	halt := func(err error) { over = true; stopped <- err }
	stamp := true // the next result carries its service time
	last := 0     // the previous result's length, the next dst's size
	ch.Route(func(m *proto.Message, err error) {
		if over || m == nil {
			if !over {
				halt(err)
			}
			proto.Release(m)
			return
		}
		var reply *proto.Message
		var start time.Time
		if stamp {
			start = time.Now()
		}
		switch m.Type {
		case proto.TypeReassign:
			fn := m.Func
			proto.Release(m)
			if reassign == nil {
				return
			}
			nf, err := reassign(fn)
			if err != nil {
				q.enqueue(&proto.Message{Type: proto.TypeError, Err: err.Error()}, nil)
				halt(err)
				return
			}
			f, stamp = nf, true
			if !q.enqueue(&proto.Message{Type: proto.TypeReassign, Func: fn}, nil) {
				halt(ErrChannelClosed)
			}
			return
		case proto.TypeInput:
			reply = applyOne(m.Seq, m.Data, f, last)
			last = len(reply.Data)
		case proto.TypeInputBatch:
			reply = applyBatch(m, f)
		case proto.TypeGoodbye:
			proto.Release(m)
			q.enqueue(&proto.Message{Type: proto.TypeGoodbye}, nil)
			halt(nil)
			return
		default:
			// Ignore stray control messages.
			proto.Release(m)
			return
		}
		if stamp {
			reply.Service, stamp = max(uint64(time.Since(start)/time.Microsecond), 1), false
		}
		// The reply may thread the input's bytes through (an identity
		// handler), so the frame releases only after the reply is on the
		// wire — the queue owns both from here.
		if !q.enqueue(reply, m) {
			halt(ErrChannelClosed)
		}
	})
	err := <-stopped
	if qerr := q.close(); qerr != nil && err == ErrChannelClosed {
		err = qerr // the queue's send error says why the channel closed
	}
	ch.Close()
	return err
}

// applyOne applies f to one input payload, appending to an arena buffer
// of capacity hint, and makes the result frame.
func applyOne(seq uint64, data []byte, f func(dst, input []byte) ([]byte, error), hint int) *proto.Message {
	buf := proto.GetBuf(hint)
	r, err := f(buf, data)
	m := resultFrame(proto.TypeResult, seq, r, err)
	own(m, buf)
	return m
}

// applyBatch applies f to every member of an input batch, producing the
// result batch frame. The apply loop is strictly serial and the reply
// batch is re-encoded (copied), so the aliasing batch decode is safe here
// and skips one copy of every member payload.
func applyBatch(m *proto.Message, f func(dst, input []byte) ([]byte, error)) *proto.Message {
	items, err := proto.DecodeBatchShared(m.Data)
	if err != nil {
		return resultFrame(proto.TypeResultBatch, m.Seq, nil, fmt.Errorf("decode batch: %w", err))
	}
	results := make([]proto.BatchItem, len(items))
	for i, it := range items {
		if data, err := f(nil, it.D); err != nil {
			results[i].E = err.Error()
		} else {
			results[i].D = data
		}
	}
	return resultFrame(proto.TypeResultBatch, m.Seq, proto.EncodeBatch(results), nil)
}

// resultFrame is a result frame from the arena: data, or the error err.
// The frame's CRC is its one integrity check on the wire.
func resultFrame(t proto.Type, seq uint64, data []byte, err error) *proto.Message {
	m := proto.GetMessage()
	m.Type, m.Seq = t, seq
	if err != nil {
		m.Err = err.Error()
		return m
	}
	m.Data = data
	return m
}
