package shard

import (
	"testing"
	"time"

	"pando/internal/pullstream"
)

// pullOne issues one request against src and blocks for the answer.
func pullOne[T any](src pullstream.Source[T]) (T, error) {
	type answer struct {
		v   T
		end error
	}
	ch := make(chan answer, 1)
	src(nil, func(end error, v T) { ch <- answer{v: v, end: end} })
	a := <-ch
	return a.v, a.end
}

// TestMergerOrderAndDedup drives the merger directly: out-of-order
// inserts emit in global order, and an index below the cursor is dropped
// (exactly-once across replays).
func TestMergerOrderAndDedup(t *testing.T) {
	m := NewMerger[int](4)
	src := m.Source()

	m.Insert(0, 10)
	if v, end := pullOne(src); end != nil || v != 10 {
		t.Fatalf("emit 0 = (%d, %v)", v, end)
	}
	// Below the cursor now: a replay of an already-emitted result must
	// vanish.
	m.Insert(0, 999)
	m.Insert(2, 30)
	m.Insert(1, 20)
	m.Insert(1, 20) // idempotent overwrite while buffered
	if v, end := pullOne(src); end != nil || v != 20 {
		t.Fatalf("emit 1 = (%d, %v)", v, end)
	}
	if v, end := pullOne(src); end != nil || v != 30 {
		t.Fatalf("emit 2 = (%d, %v)", v, end)
	}
}

// TestMergerWindowBackpressure: an insert past the window blocks until
// the cursor advances — except the cursor value itself, which is always
// admitted (the deadlock-freedom rule).
func TestMergerWindowBackpressure(t *testing.T) {
	m := NewMerger[int](2)
	src := m.Source()

	m.Insert(1, 1)
	m.Insert(2, 2) // buffer full (cursor 0 missing)
	blocked := make(chan struct{})
	go func() {
		m.Insert(3, 3) // must block: beyond cursor, window full
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("insert past a full window did not block")
	case <-time.After(50 * time.Millisecond):
	}
	m.Insert(0, 0) // cursor value: admitted despite the full window
	for want := 0; want <= 3; want++ {
		if v, end := pullOne(src); end != nil || v != want {
			t.Fatalf("emit %d = (%d, %v)", want, v, end)
		}
	}
	select {
	case <-blocked:
	case <-time.After(time.Second):
		t.Fatal("blocked insert never admitted after cursor advanced")
	}
	m.Insert(4, 4)
	if v, end := pullOne(src); end != nil || v != 4 {
		t.Fatalf("emit 4 = (%d, %v)", v, end)
	}
}
