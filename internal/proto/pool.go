package proto

import (
	"sync"
	"sync/atomic"
)

// This file is the buffer arena of the zero-alloc hot path: a
// sync.Pool-backed store of frame buffers and Message envelopes that the
// codec reuses across frames, so the steady-state encode/decode path of a
// long-running deployment performs no heap allocation per frame.
//
// # Ownership rules
//
// Every buffer has exactly one owner at a time, and the owner is explicit
// at each step:
//
//   - WriteFrame owns its encode buffer for the duration of the write and
//     recycles it before returning; callers never see it.
//   - ReadFrame transfers ownership of the body buffer to the returned
//     Message: its Data field aliases it (the zero-copy decode),
//     and the Message remembers the buffer (Own).
//   - An outbound Message may come from the arena too (GetMessage), with
//     its payload encoded into a GetBuf buffer it Owns. A frame handed to
//     a send queue belongs to the queue, which Releases it once it is
//     written, or when the queue closes if it never is: after the hand-off
//     the sender must not touch the frame or its Data.
//   - Release(m) returns the Message and its owned buffer to the arena.
//     After Release the caller must not touch m, m.Data, or any sub-slice
//     of m.Data — the memory will be handed to a future frame. Receive
//     loops call Release once a frame is fully consumed.
//   - Detach(m) severs m.Data from the owned buffer when the decoded
//     payload escapes the receive loop (e.g. a pass-through payload codec
//     hands m.Data itself to the application): the data's ownership moves
//     to the escaping reference and a later Release recycles only the
//     envelope. Data that outlives the frame MUST be detached (or copied)
//     before Release, or it would alias recycled memory.
//
// A Message that is never Released is simply collected by the GC — safety
// never depends on Release being called, only performance does.

// bufClasses are the capacities of the pooled buffer classes, smallest
// first. A buffer is recycled into the smallest class whose capacity it
// fits; buffers beyond the largest (a giant frame) are left to the GC so
// one outlier cannot pin megabytes in the pool. The 512 B class keeps
// small results cheap while the master holds their frames until emit; the
// 16 KiB class bounds the unused tail a frame a little over 4 KiB holds
// until it is written.
var bufClasses = [...]int{512, 4 << 10, 16 << 10, 64 << 10, 1 << 20}

var bufPools [len(bufClasses)]sync.Pool

func init() {
	for c, size := range bufClasses {
		bufPools[c].New = func() any { b := make([]byte, 0, size); return &b }
	}
}

// poisonPut, when set by tests (SetPoisonPut), scribbles over every
// buffer returned to the arena so any use-after-release surfaces as
// corrupted data instead of a silent heisenbug (the corrupt-after-release
// canary).
var poisonPut atomic.Bool

// classFor returns the pool index whose buffers hold n bytes, or -1 when
// n exceeds the largest pooled class.
func classFor(n int) int {
	for c, size := range bufClasses {
		if n <= size {
			return c
		}
	}
	return -1
}

// GetBuf returns a zero-length pooled buffer with capacity at least n.
// Pair it with PutBuf when the buffer's contents no longer escape.
func GetBuf(n int) []byte {
	c := classFor(n)
	if c < 0 {
		return make([]byte, 0, n)
	}
	bp := bufPools[c].Get().(*[]byte)
	b := (*bp)[:0]
	if cap(b) < n {
		// A smaller buffer was recycled into this class by a caller that
		// over-estimated; grow once, it stays in the class from now on.
		b = make([]byte, 0, n)
	}
	*bp = nil
	putHeader(bp)
	return b
}

// PutBuf recycles a buffer obtained from GetBuf (or any buffer the caller
// owns outright). The caller must not use b afterwards.
func PutBuf(b []byte) {
	if b == nil {
		return
	}
	c := classFor(cap(b))
	if c < 0 {
		return // oversized: let the GC have it
	}
	if poisonPut.Load() {
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xDB
		}
	}
	bp := getHeader()
	*bp = b[:0]
	bufPools[c].Put(bp)
}

// headerPool recycles the *[]byte boxes themselves so GetBuf/PutBuf do
// not allocate a header per cycle.
var headerPool = sync.Pool{New: func() any { return new([]byte) }}

func getHeader() *[]byte  { return headerPool.Get().(*[]byte) }
func putHeader(h *[]byte) { headerPool.Put(h) }

// msgPool recycles Message envelopes for the receive path.
var msgPool = sync.Pool{New: func() any { return new(Message) }}

// GetMessage returns a zeroed Message from the arena. It is what ReadFrame
// uses; the send side uses it too, and its queue Releases the frame once
// it is written.
func GetMessage() *Message {
	return msgPool.Get().(*Message)
}

// Release returns m and its owned frame buffer to the arena. After the
// call, m and every slice decoded from its frame (Data in particular) are
// invalid. Releasing nil is a no-op. See the ownership rules above.
func Release(m *Message) {
	if m == nil {
		return
	}
	if obs := releaseObserver.Load(); obs != nil {
		(*obs)(m)
	}
	buf := m.buf
	*m = Message{}
	msgPool.Put(m)
	if buf != nil {
		PutBuf(buf)
	}
}

// Detach severs m's decoded payload from its pooled frame buffer: the
// buffer's ownership transfers to whoever holds the escaping references
// (m.Data keeps pointing at it), and a later Release recycles only the
// envelope. Call it when Data outlives the receive loop — e.g. when a
// pass-through payload codec hands the bytes straight to the application.
func (m *Message) Detach() {
	if m != nil {
		m.buf = nil
	}
}

// Own records buf as the pooled storage backing m's fields, transferring
// its ownership to the message (reclaimed by Release).
func (m *Message) Own(buf []byte) {
	m.buf = buf
}
