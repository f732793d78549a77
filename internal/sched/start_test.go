package sched

import (
	"math"
	"testing"
	"time"
)

// kneeEleven is one fleet-churn volunteer: 44 ms round-trips, a worker
// taking 4 ms per value, each result arriving up to 5 ms late, in order.
// Its path holds eleven values.
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
// holds and queueLow more: ⌈(44 to 49 ms) / 4 ms + 1.5⌉. The jitter that
// delays each arrival stretches the first gap up to 9 ms or bunches the
// two results into one instant; neither moves the jump. A window that
// only grows a unit per result reads 3 there and reaches 11 four
// round-trips in.
func TestControllerSizesFromFirstTwoResults(t *testing.T) {
	for seed := uint64(1); seed <= 64; seed++ {
		q := kneeEleven
		q.seed = seed
		c := NewController(Adaptive(1, 16))
		q.drive(c, 2, nil)
		if w := c.Window(); slowStart(c) || w < 13 || w > 14 {
			t.Errorf("seed %d: window %d (slow start %v) after two results, want 13 to 14 out of slow start", seed, w, slowStart(c))
		}
	}
}

// TestControllerJitteredGapSizesFromStamp: jitter may stretch the first
// gap to the stamp and 5 ms more, 9 ms against a 4 ms stamp. That is
// still the worker's pace, and the stamp sizes the window: ⌈44 / 4 +
// 1.5⌉ = 13, where dividing by the gap gives 5. Only a gap past grossRatio
// × stamp says the link spaces the results, and then the gap divides.
func TestControllerJitteredGapSizesFromStamp(t *testing.T) {
	for _, tc := range []struct {
		gap  time.Duration
		want int
	}{
		{9 * time.Millisecond, 13},
		{11 * time.Millisecond, 13},
		{13 * time.Millisecond, 5}, // ⌈44 / 13 + 1.5⌉
	} {
		c := NewController(Adaptive(1, 16))
		now := time.Now()
		c.Served(4 * time.Millisecond)
		feedResultAt(c, now, 44*time.Millisecond)
		feedResultAt(c, now.Add(tc.gap), 44*time.Millisecond)
		if w := c.Window(); slowStart(c) || w != tc.want {
			t.Errorf("gap %v: window %d (slow start %v) after two results, want %d out of slow start", tc.gap, w, slowStart(c), tc.want)
		}
	}
}

// TestControllerZeroGapStillJumps: two results read at one instant (one
// read brought both) give a gap of 0. The second result still sizes the
// window from the stamp; it does not leave it in slow start.
func TestControllerZeroGapStillJumps(t *testing.T) {
	c := NewController(Adaptive(1, 16))
	now := time.Now()
	c.Served(4 * time.Millisecond)
	feedResultAt(c, now, 44*time.Millisecond)
	feedResultAt(c, now, 44*time.Millisecond)
	if w := c.Window(); slowStart(c) || w != 13 {
		t.Fatalf("window %d (slow start %v) after two results at one instant, want 13 out of slow start", w, slowStart(c))
	}
}

// TestControllerJumpLandsInHoldBand: on a noiseless path of eleven the
// jump lands at ⌈11 + queueLow⌉ = 13, where the estimated queue sits
// inside [queueLow, queueHigh], and the window holds there: no move in the
// windowfuls after the jump. A jump to the knee of 11 climbs a unit a
// windowful from there.
func TestControllerJumpLandsInHoldBand(t *testing.T) {
	q := kneeEleven
	q.jitter = 0
	c := NewController(Adaptive(1, 16))
	q.drive(c, 2, nil)
	jump := c.Window()
	if slowStart(c) || jump != 13 {
		t.Fatalf("window %d (slow start %v) after two results, want 13 out of slow start", jump, slowStart(c))
	}
	results := 2
	q.drive(c, 4*jump, func(w int) {
		if results++; w != jump {
			t.Fatalf("window moved %d -> %d at result %d, %d after the jump", jump, w, results, results-2)
		}
	})
	c.mu.Lock()
	queued := c.queuedLocked()
	c.mu.Unlock()
	if queued < queueLow || queued > queueHigh {
		t.Errorf("estimated queue %.2f at the window of %d, want it in [%v, %v]", queued, jump, queueLow, queueHigh)
	}
}

// TestControllerStampBoundsBunchedResults: the link's jitter may deliver
// the first two results 100 µs apart, though the worker took 4 ms over
// each. Read from the gap alone the path would hold 440 values; the stamp
// keeps the window at the 11 it holds, and queueLow more: 13.
func TestControllerStampBoundsBunchedResults(t *testing.T) {
	c := NewController(Adaptive(1, 16))
	now := time.Now()
	c.Served(4 * time.Millisecond)
	feedResultAt(c, now, 44*time.Millisecond)
	feedResultAt(c, now.Add(100*time.Microsecond), 44*time.Millisecond)
	if w := c.Window(); slowStart(c) || w != 13 {
		t.Fatalf("window %d (slow start %v) after two bunched results, want 13 out of slow start", w, slowStart(c))
	}
}

// TestControllerLinkBoundJumpFollowsGap: on tiles-16k's link the worker
// takes 30 µs but each 16 KiB tile takes ~3.9 ms of the link, so the
// result gap is far past grossRatio × stamp. The gap, not the stamp,
// sizes the window: the jump goes no higher than ⌈base / gap + queueLow⌉,
// where the stamp alone would open it to Max.
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
		bound := int(math.Ceil(c.bestRTT/c.ewmaGap + queueLow))
		c.mu.Unlock()
		if w := c.Window(); slowStart(c) || w > max(before, bound) {
			t.Errorf("seed %d: window %d (slow start %v) after two results, want at most %d, or ⌈base/gap + queueLow⌉ = %d, out of slow start",
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
	// first result takes it to 7, and the jump to ⌈2 + 1.5⌉ lowers nothing.
	c = NewController(Adaptive(6, 16))
	shallow := queueModel{d: 8 * time.Millisecond, s: 4 * time.Millisecond, stamp: 4 * time.Millisecond}
	shallow.drive(c, 2, nil)
	if w := c.Window(); slowStart(c) || w != 7 {
		t.Errorf("window %d (slow start %v) after a jump to 4, want 7 out of slow start", w, slowStart(c))
	}

	c = NewController(Adaptive(1, 16))
	q := queueModel{d: 24 * time.Millisecond, s: 4 * time.Millisecond, stamp: 4 * time.Millisecond}
	results, prev := 0, 0
	q.drive(c, 42, func(w int) {
		switch results++; {
		case results == 2 && w != 8:
			t.Fatalf("window %d after the jump, want ⌈6 + 1.5⌉ = 8", w)
		case results > 2 && w > prev+1:
			t.Fatalf("window jumped %d -> %d at result %d, past the first jump", prev, w, results)
		}
		c.Served(time.Microsecond)
		prev = w
	})
}
