// Package shard holds the Merger, which restores one global order over
// several concurrent producers with bounded buffering. The benchmark's
// layer ladder times it (shard.merge_ns_per_item).
package shard

import (
	"sync"

	"pando/internal/pullstream"
)

// Merger restores global output order from concurrent producers with
// O(window) buffering. Each producer inserts (global index, result) pairs
// in ascending global order; the merger holds at most `window` results
// ahead of the emission cursor and blocks any inserter that would exceed
// it — the backpressure that keeps an arbitrarily long stream in bounded
// memory, the same bound-and-block discipline as the lender's memory
// bound.
//
// Deadlock-freedom of the bound: the cursor's next value is always the
// minimal uninserted global, and the producer owning it inserts its
// globals ascending, so that producer's next insert IS the cursor value —
// which is always admitted regardless of buffer depth. Every other blocked
// inserter wakes as emissions advance the cursor.
type Merger[O any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    map[int]O
	cursor int
	window int
	failed error
}

// NewMerger creates a merger admitting at most window results ahead of
// the cursor.
func NewMerger[O any](window int) *Merger[O] {
	if window < 1 {
		window = 1
	}
	m := &Merger[O]{buf: make(map[int]O), window: window}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// Insert offers one result. It blocks while the buffer is full — unless
// global IS the cursor, which is always admitted (see the deadlock note
// above). A global below the cursor (already emitted: a replay racing the
// original producer) is dropped; re-inserting a buffered global
// overwrites idempotently.
func (m *Merger[O]) Insert(global int, v O) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.failed == nil && global > m.cursor {
		if _, dup := m.buf[global]; dup {
			break
		}
		if len(m.buf) < m.window {
			break
		}
		m.cond.Wait()
	}
	if m.failed != nil || global < m.cursor {
		return
	}
	m.buf[global] = v
	m.cond.Broadcast()
}

// Source is the globally ordered output stream. Requests block until the
// cursor's value arrives; the stream has no end of its own, so the
// consumer stops after the values it expects. Aborting the source fails
// the merger, which releases every blocked inserter.
func (m *Merger[O]) Source() pullstream.Source[O] {
	return func(abort error, cb pullstream.Callback[O]) {
		var zero O
		if abort != nil {
			m.mu.Lock()
			if m.failed == nil {
				m.failed = abort
			}
			m.cond.Broadcast()
			m.mu.Unlock()
			cb(abort, zero)
			return
		}
		m.mu.Lock()
		for {
			if m.failed != nil {
				err := m.failed
				m.mu.Unlock()
				cb(err, zero)
				return
			}
			if v, ok := m.buf[m.cursor]; ok {
				delete(m.buf, m.cursor)
				m.cursor++
				m.cond.Broadcast()
				m.mu.Unlock()
				cb(nil, v)
				return
			}
			m.cond.Wait()
		}
	}
}
