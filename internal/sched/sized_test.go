package sched

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// tileRaw is what the master duplex charges a tile when it makes the
// frame: 16 KiB, before dedup and compression.
const tileRaw = 16 << 10

// admit takes a credit if c's window has one, as the gate's Acquire does
// without blocking.
func admit(c *Controller) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.admitLocked()
}

// send puts the k-th value in flight and charges it the way the master
// duplex does: raw bytes when the frame is made, wire bytes once it is
// written, which here is at once.
func send(c *Controller, k uint64, at time.Time, raw, wire int) {
	c.Sent()
	c.mu.Lock()
	c.sends[len(c.sends)-1] = at
	c.mu.Unlock()
	c.Charge(k, raw, false)
	c.Charge(k, wire, true)
}

// link runs c against the modelled link in virtual time for n results:
// the sender refills the window at every result, as the gate does, value
// i occupies the link for size(i)/bw, in order, and its result comes back
// d plus a seeded random share of jitter later, in order too. It returns
// when each value's transmission started and ended, and calls each, when
// set, with the index of the value whose result just came back.
func (q queueModel) link(c *Controller, n int, each func(i int)) (txStart, txEnd []time.Duration) {
	t0 := time.Now()
	var now, free time.Duration // the virtual clock; when the link is next idle
	var back []time.Duration    // per value in flight, oldest first, when its result arrives
	jitter := q.noise()
	for i := 0; i < n; i++ {
		for admit(c) {
			k := len(txStart)
			send(c, uint64(k+1), t0.Add(now), tileRaw, q.size(k))
			start := max(now, free)
			free = start + time.Duration(float64(q.size(k))/q.bw*float64(time.Second))
			txStart, txEnd = append(txStart, start), append(txEnd, free)
			at := free + q.d + jitter.draw(q.jitter)
			if len(back) > 0 {
				at = max(at, back[len(back)-1])
			}
			back = append(back, at)
		}
		now, back = back[0], back[1:]
		q.served(c, i)
		c.resultAt(t0.Add(now))
		if each != nil {
			each(i)
		}
	}
	return txStart, txEnd
}

// tilePhase is how many values each payload shape of tileSizes lasts.
const tilePhase = 256

// tileSizes cycles tiles-16k's three payload shapes on the wire: ~2 KB
// deflated tiles, ~60 B dedup references and 16 KiB incompressible tiles.
func tileSizes(i int) int { return [3]int{2 << 10, 60, tileRaw + 20}[(i/tilePhase)%3] }

// tileLink is one volunteer of tiles-16k: 2 ms each way at 4 MiB/s, and
// up to 3 ms of noise in the round-trip.
var tileLink = queueModel{d: 4 * time.Millisecond, bw: 4 << 20, size: tileSizes, jitter: 3 * time.Millisecond}

// TestControllerKeepsLinkBusyOnBigValues: the 16 KiB phases, which come
// after 60 B references, keep the link at least 90% busy, and past their
// first results it never runs dry: no result leaves nothing in flight. A
// base taken on the references would read every tile as gross congestion
// and halve the window down to one.
func TestControllerKeepsLinkBusyOnBigValues(t *testing.T) {
	c := NewController(Adaptive(1, 16))
	txStart, txEnd := tileLink.link(c, 12*tilePhase, func(i int) {
		if i/tilePhase%3 == 2 && i%tilePhase >= 8 && c.InFlight() == 0 {
			t.Errorf("the link ran dry at result %d, %d into a 16 KiB phase", i, i%tilePhase)
		}
	})
	for p := 2; p < 12; p += 3 {
		a, z := p*tilePhase, (p+1)*tilePhase-1
		var busy time.Duration
		for i := a; i <= z; i++ {
			busy += txEnd[i] - txStart[i]
		}
		if share := float64(busy) / float64(txEnd[z]-txStart[a]); share < 0.9 {
			t.Errorf("16 KiB phase %d kept the link %.0f%% busy, want >= 90%%", p/3, 100*share)
		}
	}
}

// TestControllerReachesMaxAfterSmallerValues: when the values shrink
// (16 KiB tiles to 2 KB, 2 KB to 60 B references), the bytes the window
// held fit more of them at once, and Max values go in flight within a
// few results. A window counting values, cut by the noise one value at
// a time, never gets there on this link.
func TestControllerReachesMaxAfterSmallerValues(t *testing.T) {
	const bound = 8
	c := NewController(Adaptive(1, 16))
	reached := map[int]int{} // phase -> results into it until Max values were in flight
	tileLink.link(c, 12*tilePhase, func(i int) {
		if _, ok := reached[i/tilePhase]; !ok && c.InFlight() >= 15 {
			reached[i/tilePhase] = i % tilePhase
		}
	})
	for p := 3; p < 12; p++ {
		if p%3 == 2 {
			continue // the 16 KiB phases
		}
		if got, ok := reached[p]; !ok || got > bound {
			t.Errorf("phase %d (%d B values): Max in flight after %d results (reached: %v), want within %d", p, tileSizes(p*tilePhase), got, ok, bound)
		}
	}
}

// kneeMoves are the window moves, "result:window", that the queue model
// of TestControllerSettlesAtKnee gives at knees 3 and 11 over 600 results
// with no service stamp, from the start window of DefaultBatch: the
// sequence a constant size must reproduce exactly.
var kneeMoves = map[int]string{
	3:  "1:3 2:4 3:5 4:6 5:7 6:8 7:9 16:8 25:7 33:6 40:5 64:3 69:4 73:5 78:6 128:3 134:4 138:5 143:6 192:3 198:4 202:5 207:6 256:3 262:4 266:5 271:6 320:3 326:4 330:5 335:6 384:3 390:4 394:5 399:6 448:3 454:4 458:5 463:6 512:3 518:4 522:5 527:6 576:3 582:4 586:5 591:6",
	11: "1:3 2:4 3:5 4:6 5:7 6:8 7:9 8:10 9:11 10:12 11:13 12:14 13:15 14:16 30:15 46:14 61:13 108:11 121:12 133:13 146:14 220:11 234:12 246:13 259:14 332:11 346:12 358:13 371:14 444:11 458:12 470:13 483:14 556:11 570:12 582:13 595:14",
}

// oneValueMoves are the same moves from a start window of one value, as
// windows started before they started at DefaultBatch. Past slow start
// the rule is the same, so kneeMoves must make the same moves from there
// on, each at the same result or one earlier.
var oneValueMoves = map[int]string{
	3:  "1:2 2:3 3:4 4:5 5:6 6:7 7:8 8:9 17:8 26:7 34:6 41:5 64:3 69:4 73:5 78:6 128:3 134:4 138:5 143:6 192:3 198:4 202:5 207:6 256:3 262:4 266:5 271:6 320:3 326:4 330:5 335:6 384:3 390:4 394:5 399:6 448:3 454:4 458:5 463:6 512:3 518:4 522:5 527:6 576:3 582:4 586:5 591:6",
	11: "1:2 2:3 3:4 4:5 5:6 6:7 7:8 8:9 9:10 10:11 11:12 12:13 13:14 14:15 15:16 31:15 47:14 62:13 108:11 121:12 133:13 146:14 220:11 234:12 246:13 259:14 332:11 346:12 358:13 371:14 444:11 458:12 470:13 483:14 556:11 570:12 582:13 595:14",
}

// moves renders a window sequence from the start window the way
// kneeMoves does.
func moves(windows []int) string {
	var b strings.Builder
	prev := DefaultBatch
	for i, w := range windows {
		if w != prev {
			fmt.Fprintf(&b, " %d:%d", i+1, w)
			prev = w
		}
	}
	return strings.TrimPrefix(b.String(), " ")
}

// pastSlowStart parses the moves of a moves string from the first one
// that lowers the window: [result, window] pairs.
func pastSlowStart(t *testing.T, s string) [][2]int {
	t.Helper()
	var out [][2]int
	prev := 0
	for _, f := range strings.Fields(s) {
		var m [2]int
		if _, err := fmt.Sscanf(f, "%d:%d", &m[0], &m[1]); err != nil {
			t.Fatalf("move %q: %v", f, err)
		}
		if len(out) > 0 || m[1] < prev {
			out = append(out, m)
		}
		prev = m[1]
	}
	return out
}

// driveSized is queueModel.drive with every value sent through the gate's
// path and charged size bytes.
func (q queueModel) driveSized(c *Controller, results, size int) []int {
	var windows []int
	var ahead []int // per outstanding value, the values in flight when it left, itself included
	var k uint64
	for i := 0; i < results; i++ {
		for admit(c) {
			k++
			send(c, k, time.Now(), size, size)
			ahead = append(ahead, len(ahead)+1)
		}
		queued := max(ahead[0]-q.knee(), 0)
		ahead = ahead[1:]
		now := time.Now()
		c.mu.Lock()
		c.sends[c.sendHead] = now.Add(-(q.d + time.Duration(queued)*q.s))
		c.mu.Unlock()
		c.resultAt(now)
		windows = append(windows, c.Window())
	}
	return windows
}

// TestControllerConstantSizesMoveAsValues: when every value costs the
// same, the window in bytes makes exactly the moves the window in values
// makes, whatever the size, and so do values nothing charges. Past slow
// start they are the moves a window starting at one value made.
func TestControllerConstantSizesMoveAsValues(t *testing.T) {
	for knee, want := range kneeMoves {
		got, old := pastSlowStart(t, want), pastSlowStart(t, oneValueMoves[knee])
		if len(got) != len(old) {
			t.Fatalf("knee %d: %d moves past slow start, %d from one value", knee, len(got), len(old))
		}
		for i := range got {
			if got[i][1] != old[i][1] || got[i][0] > old[i][0] || got[i][0] < old[i][0]-1 {
				t.Errorf("knee %d: move %d:%d past slow start, %d:%d from one value", knee, got[i][0], got[i][1], old[i][0], old[i][1])
			}
		}
		q := queueModel{d: time.Duration(knee) * 4 * time.Millisecond, s: 4 * time.Millisecond}
		c := NewController(Adaptive(1, 16))
		var windows []int
		q.drive(c, 600, func(w int) { windows = append(windows, w) })
		if got := moves(windows); got != want {
			t.Errorf("knee %d, unsized: moves\n%s\nwant\n%s", knee, got, want)
		}
		for _, size := range []int{1, 60, 1500, 16 << 10} {
			c := NewController(Adaptive(1, 16))
			if got := moves(q.driveSized(c, 600, size)); got != want {
				t.Errorf("knee %d, %d B values: moves\n%s\nwant\n%s", knee, size, got, want)
			}
		}
	}
}

// TestControllerStaticWindowNeverMovesSized: Static(n) holds exactly n
// values in flight whatever they cost on the wire.
func TestControllerStaticWindowNeverMovesSized(t *testing.T) {
	c := NewController(Static(3))
	sizes := []int{60, 16 << 10, 1, 2 << 10, 1 << 20, 60, 16 << 10}
	var k uint64
	for i, size := range sizes {
		for admit(c) {
			k++
			send(c, k, time.Now().Add(-time.Duration(i+1)*time.Millisecond), tileRaw, size)
		}
		if got := c.InFlight(); got != 3 {
			t.Fatalf("after %d B values: %d in flight, want 3", size, got)
		}
		c.Result()
		if got := c.Window(); got != 3 {
			t.Fatalf("static window moved to %d after a %d B value", got, size)
		}
	}
}

// sized returns an adaptive controller that has seen unit-byte values and
// holds a window of units of them, past slow start.
func sized(unit float64, units int) *Controller {
	c := NewController(Adaptive(1, 16))
	c.sized, c.unit, c.window, c.slowStart = true, unit, unit*float64(units), false
	return c
}

// TestControllerChargesEncodedLengthAtOnce: a value's encoded length
// charges it before its frame is written, but only ever upwards. Frames
// bigger than the unit must not slip through on the unit's charge, and a
// payload shorter than its frame must not count short until the write.
func TestControllerChargesEncodedLengthAtOnce(t *testing.T) {
	for _, tc := range []struct {
		name          string
		unit, encoded int
		units, want   int
	}{
		{"16 KiB tiles after 60 B references", 60, 16 << 10, 800, 3},
		{"7 B payloads in 20 B frames", 20, 7, 3, 3},
	} {
		c := sized(float64(tc.unit), tc.units)
		var k uint64
		for admit(c) {
			k++
			c.Sent()
			c.Charge(k, tc.encoded, false)
		}
		if k != uint64(tc.want) {
			t.Errorf("%s: %d values admitted before any frame was written, want %d", tc.name, k, tc.want)
		}
	}
}

// TestControllerGrowsOnlyWhenTheWindowBinds: a sized window whose values
// trickle in one at a time, the input binding, holds still however short
// the round-trips, where a window counting values would climb to Max.
func TestControllerGrowsOnlyWhenTheWindowBinds(t *testing.T) {
	c := sized(100, 2)
	for k := uint64(1); k <= 200; k++ {
		if !admit(c) {
			t.Fatal("an empty window refused a value")
		}
		send(c, k, time.Now().Add(-10*time.Millisecond), 100, 100)
		c.Result()
	}
	if got := c.Window(); got != 2 {
		t.Fatalf("window %d after 200 results with the input binding, want 2", got)
	}
}

// TestControllerResultBeforeWireCharge: the send queue reports a frame's
// wire length after writing it, so the value's result may come back
// first. The window, DefaultBatch values growing to three in slow start,
// must become three units of the first wire length, not a windowful of
// the encoded charge that result released (sixteen 2 KiB values).
func TestControllerResultBeforeWireCharge(t *testing.T) {
	c := NewController(Adaptive(1, 16))
	if !admit(c) {
		t.Fatal("an empty window refused a value")
	}
	c.Sent()
	c.Charge(1, tileRaw, false)
	c.Result()
	c.Charge(1, 2<<10, true)
	k := uint64(1)
	for admit(c) {
		k++
		send(c, k, time.Now(), 2<<10, 2<<10)
	}
	if got := k - 1; got != 3 {
		t.Fatalf("%d values of 2 KiB admitted after the first result, want 3", got)
	}
}
