package sched

import (
	"math"
	"testing"
	"time"
)

// kneeEleven is one fleet-churn volunteer: 44 ms round-trips, a worker
// taking 4 ms per value, up to 5 ms of noise on each round-trip. Its
// path holds eleven values.
var kneeEleven = queueModel{d: 44 * time.Millisecond, s: 4 * time.Millisecond, jitter: 5 * time.Millisecond, stamp: 4 * time.Millisecond}

// slowStart reports whether c is still in slow start.
func slowStart(c *Controller) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.slowStart
}

// TestControllerStartsAtDefaultBatch: an adaptive window starts where a
// static one sits, clamped to the policy.
func TestControllerStartsAtDefaultBatch(t *testing.T) {
	for _, tc := range []struct {
		p    Policy
		want int
	}{
		{Adaptive(1, 16), DefaultBatch},
		{Adaptive(1, 1), 1},
		{Adaptive(4, 16), 4},
		{Static(5), 5},
	} {
		if got := NewController(tc.p).Window(); got != tc.want {
			t.Errorf("%+v starts at %d, want %d", tc.p, got, tc.want)
		}
	}
}

// TestControllerSizesFromFirstTwoResults: a worker that stamps its first
// result is sized at the second, out of slow start, to what its path
// holds: ⌈(44 to 49 ms) / 4 ms⌉. A window that only grows a unit per
// result reads 3 there and reaches 11 four round-trips in.
func TestControllerSizesFromFirstTwoResults(t *testing.T) {
	for seed := uint64(1); seed <= 64; seed++ {
		q := kneeEleven
		q.seed = seed
		c := NewController(Adaptive(1, 16))
		q.drive(c, 2, nil)
		if w := c.Window(); slowStart(c) || w < 11 || w > 13 {
			t.Errorf("seed %d: window %d (slow start %v) after two results, want 11 to 13 out of slow start", seed, w, slowStart(c))
		}
	}
}

// TestControllerStampBoundsBunchedResults: the link's jitter may deliver
// the first two results 100 µs apart, though the worker took 4 ms over
// each. Read from the gap alone the path would hold 440 values; the stamp
// keeps the window at the 11 it holds.
func TestControllerStampBoundsBunchedResults(t *testing.T) {
	c := NewController(Adaptive(1, 16))
	now := time.Now()
	c.Served(4 * time.Millisecond)
	feedResultAt(c, now, 44*time.Millisecond)
	feedResultAt(c, now.Add(100*time.Microsecond), 44*time.Millisecond)
	if w := c.Window(); slowStart(c) || w != 11 {
		t.Fatalf("window %d (slow start %v) after two bunched results, want 11 out of slow start", w, slowStart(c))
	}
}

// TestControllerLinkBoundJumpFollowsGap: on tiles-16k's link the worker
// takes 30 µs but each 16 KiB tile takes ~3.9 ms of the link. The result
// gap, not the stamp, sizes the window: the jump goes no higher than
// ⌈base / gap⌉, where the stamp alone would open it to Max.
func TestControllerLinkBoundJumpFollowsGap(t *testing.T) {
	for seed := uint64(1); seed <= 64; seed++ {
		q := queueModel{d: 4 * time.Millisecond, bw: 4 << 20, size: func(int) int { return tileRaw + 20 },
			jitter: 3 * time.Millisecond, seed: seed, stamp: 30 * time.Microsecond}
		c := NewController(Adaptive(1, 16))
		before := 0 // the window slow start left after the first result
		q.link(c, 2, func(i int) {
			if i == 0 {
				before = c.Window()
			}
		})
		c.mu.Lock()
		bound := int(math.Ceil(c.bestRTT / c.ewmaGap))
		c.mu.Unlock()
		if w := c.Window(); slowStart(c) || w > max(before, bound) {
			t.Errorf("seed %d: window %d (slow start %v) after two results, want at most %d, or ⌈base/gap⌉ = %d, out of slow start",
				seed, w, slowStart(c), before, bound)
		}
	}
}

// TestControllerWithoutStampGrowsPerResult: a worker that never stamps a
// result (an older volunteer) leaves the window in slow start, a unit per
// result from DefaultBatch.
func TestControllerWithoutStampGrowsPerResult(t *testing.T) {
	q := kneeEleven
	q.stamp = 0
	c := NewController(Adaptive(1, 16))
	want := DefaultBatch
	q.drive(c, 8, func(w int) {
		if want++; w != want {
			t.Fatalf("window %d after result %d, want %d", w, want-DefaultBatch, want)
		}
	})
}

// TestControllerStaticIgnoresStamp: Static(n) holds n whatever it is told.
func TestControllerStaticIgnoresStamp(t *testing.T) {
	c := NewController(Static(3))
	kneeEleven.drive(c, 40, func(w int) {
		if w != 3 {
			t.Fatalf("static window moved to %d", w)
		}
	})
}

// TestControllerJumpClampedOnce: Max caps the jump, a jump under the
// window leaves it, and a later stamp, however small, sizes nothing again:
// past the jump the window moves at most a unit per result.
func TestControllerJumpClampedOnce(t *testing.T) {
	c := NewController(Adaptive(1, 8))
	kneeEleven.drive(c, 2, nil)
	if w := c.Window(); w != 8 {
		t.Errorf("window %d after the jump, want Max 8", w)
	}

	// A path of two under Min 6: the window starts at Min, slow start's
	// first result takes it to 7, and the jump lowers nothing.
	c = NewController(Adaptive(6, 16))
	shallow := queueModel{d: 8 * time.Millisecond, s: 4 * time.Millisecond, stamp: 4 * time.Millisecond}
	shallow.drive(c, 2, nil)
	if w := c.Window(); slowStart(c) || w != 7 {
		t.Errorf("window %d (slow start %v) after a jump to 2, want 7 out of slow start", w, slowStart(c))
	}

	c = NewController(Adaptive(1, 16))
	q := queueModel{d: 24 * time.Millisecond, s: 4 * time.Millisecond, stamp: 4 * time.Millisecond}
	results, prev := 0, 0
	q.drive(c, 42, func(w int) {
		switch results++; {
		case results == 2 && w != 6:
			t.Fatalf("window %d after the jump, want 6", w)
		case results > 2 && w > prev+1:
			t.Fatalf("window jumped %d -> %d at result %d, past the first jump", prev, w, results)
		}
		c.Served(time.Microsecond)
		prev = w
	})
}
