package sched

import (
	"testing"
	"time"
)

// backdateSends rewrites every pending dispatch time to `ago` in the
// past, simulating values that have been stuck in flight for that long.
func backdateSends(c *Controller, ago time.Duration) {
	c.mu.Lock()
	for i := c.sendHead; i < len(c.sends); i++ {
		c.sends[i] = time.Now().Add(-ago)
	}
	c.mu.Unlock()
}

// TestDropPreventsStaleRTTAfterMidFlightDeath is the regression test for
// the FIFO pairing bug: values dispatched to a worker that died mid-flight
// never produce results, and without Drop their stale dispatch times
// would be paired with the NEXT results — every later round-trip measured
// from an hour-old send, the inflated EWMA read as congestion, and the
// window pinned at its minimum.
func TestDropPreventsStaleRTTAfterMidFlightDeath(t *testing.T) {
	c := NewController(Adaptive(3, 16))
	// Three values go in flight and get stuck on a dying worker.
	for i := 0; i < 3; i++ {
		if !c.Acquire() {
			t.Fatal("acquire failed")
		}
		c.Sent()
	}
	backdateSends(c, time.Hour)

	// The death is detected: the detach path drops the dead dispatches.
	drops := 0
	for c.Drop() {
		drops++
	}
	if drops != 3 {
		t.Fatalf("Drop cleared %d dispatches, want 3", drops)
	}
	if n, _ := c.pendingSends(); n != 0 {
		t.Fatalf("pending sends after drops = %d, want 0", n)
	}
	if got := c.InFlight(); got != 0 {
		t.Fatalf("in-flight after drops = %d, want 0 (credits released)", got)
	}

	// Fresh traffic through the same controller: round-trips must reflect
	// the actual quick trips, not the hour-old stale entries. Each trip is
	// a send backdated by exactly 10ms rather than a real 1ms sleep, whose
	// scheduler jitter (1ms vs 2ms is a doubling) the controller would
	// rightly read as congestion.
	for i := 0; i < 5; i++ {
		if !c.Acquire() {
			t.Fatal("acquire failed")
		}
		c.Sent()
		backdateSends(c, 10*time.Millisecond)
		c.Result()
	}
	c.mu.Lock()
	ewma, best := c.ewmaRTT, c.bestRTT
	c.mu.Unlock()
	if best <= 0 || best > 1 {
		t.Fatalf("best RTT = %vs, want ~10ms (stale hour-old send leaked in)", best)
	}
	if ewma > 1 {
		t.Fatalf("EWMA RTT = %vs, want ~10ms (stale hour-old send leaked in)", ewma)
	}
	if w := c.Window(); w < 4 {
		t.Fatalf("window = %d after 5 clean round-trips, want slow-start growth (stale RTT read as congestion)", w)
	}
}

// TestWithoutDropStaleSendInflatesRTT pins the failure mode the Drop path
// exists for, so a regression in the pairing shows up as this test and
// the one above disagreeing.
func TestWithoutDropStaleSendInflatesRTT(t *testing.T) {
	c := NewController(Adaptive(2, 16))
	if !c.Acquire() {
		t.Fatal("acquire failed")
	}
	c.Sent() // never answered, never dropped
	backdateSends(c, time.Hour)
	if !c.Acquire() {
		t.Fatal("acquire failed")
	}
	c.Sent()
	c.Result() // pairs with the stale send
	c.mu.Lock()
	ewma := c.ewmaRTT
	c.mu.Unlock()
	if ewma < 3000 {
		t.Fatalf("EWMA RTT = %vs; the stale send should have inflated it to ~3600s — the mis-pairing this suite guards against has changed shape", ewma)
	}
}

// TestDropDedupPairsNextResult: dropping a deduplicated value's dispatch
// keeps the FIFO pairing aligned for the values behind it.
func TestDropDedupPairsNextResult(t *testing.T) {
	c := NewController(Adaptive(2, 16))
	if !c.Acquire() {
		t.Fatal("acquire failed")
	}
	c.Sent() // value A: deduplicated upstream, result will never arrive
	backdateSends(c, time.Hour)
	if !c.Acquire() {
		t.Fatal("acquire failed")
	}
	c.Sent() // value B
	if !c.Drop() {
		t.Fatal("Drop found no pending dispatch")
	}
	time.Sleep(time.Millisecond)
	c.Result() // B's result must pair with B's send, not A's
	c.mu.Lock()
	best := c.bestRTT
	c.mu.Unlock()
	if best <= 0 || best > 1 {
		t.Fatalf("best RTT = %vs, want ~1ms (result paired with dropped send)", best)
	}
}

func TestDropOnEmptyQueue(t *testing.T) {
	c := NewController(Static(2))
	if c.Drop() {
		t.Fatal("Drop reported success on an empty queue")
	}
	// A result on an empty queue releases the credit and skips the
	// sample, as before.
	if !c.Acquire() {
		t.Fatal("acquire failed")
	}
	c.Result()
	if got := c.InFlight(); got != 0 {
		t.Fatalf("in-flight = %d, want 0", got)
	}
}

// TestSendQueueDoesNotPinHistory drives a long stream through a window of
// in-flight values and checks the dispatch queue's backing array stays
// proportional to the window — the old `sends = sends[1:]` re-slice kept
// the head offset growing into ever-larger reallocated arrays.
func TestSendQueueDoesNotPinHistory(t *testing.T) {
	c := NewController(Static(4))
	for i := 0; i < 4; i++ {
		if !c.Acquire() {
			t.Fatal("acquire failed")
		}
		c.Sent()
	}
	for i := 0; i < 20000; i++ {
		c.Result()
		if !c.Acquire() {
			t.Fatal("acquire failed")
		}
		c.Sent()
	}
	c.mu.Lock()
	length, head, capacity := len(c.sends), c.sendHead, cap(c.sends)
	c.mu.Unlock()
	if pending := length - head; pending != 4 {
		t.Fatalf("pending sends = %d, want 4", pending)
	}
	if capacity > 256 {
		t.Fatalf("dispatch queue backing array grew to %d slots over a long stream, want O(window)", capacity)
	}
}

// TestSchedulerDetachDropsPendingSends: the scheduler's detach path must
// clear a dead worker's pending dispatches.
func TestSchedulerDetachDropsPendingSends(t *testing.T) {
	s := New(Adaptive(3, 8), nil)
	defer s.Close()
	c := s.Attach("w", nil)
	for i := 0; i < 3; i++ {
		if !c.Acquire() {
			t.Fatal("acquire failed")
		}
		c.Sent()
	}
	s.Detach(c)
	if n, _ := c.pendingSends(); n != 0 {
		t.Fatalf("pending sends after Detach = %d, want 0", n)
	}
}

// TestCloseDropsPendingSends: Close must also clear the queue — the gate
// closes the controller directly when a worker's result stream ends.
func TestCloseDropsPendingSends(t *testing.T) {
	c := NewController(Static(2))
	if !c.Acquire() {
		t.Fatal("acquire failed")
	}
	c.Sent()
	c.Close()
	if n, _ := c.pendingSends(); n != 0 {
		t.Fatalf("pending sends after Close = %d, want 0", n)
	}
}
