package master

import (
	"encoding/binary"
	"sync/atomic"
	"time"

	"pando/internal/proto"
	"pando/internal/pullstream"
)

// This file implements the evaluation's measurement methodology (§5.1):
// "We measured the computation duration and the number of items processed
// in each Worker over a five minute period, from which we derived the
// throughput. This diminished the impact of the variability of the
// computing time between inputs. We also checked that the total of all
// devices corresponded to the throughput observed at the output."

// MaxWindow bounds how far back per-device throughput can be asked for.
const MaxWindow = 5 * time.Minute

// windowBuckets is one bucket per second of MaxWindow.
const windowBuckets = int(MaxWindow / time.Second)

// itemWindow counts a device's results per wall-clock second over the
// trailing MaxWindow: a fixed ring indexed by second, each bucket holding
// its second (high half) and its count (low half) in one atomic word, so
// counting takes no lock and a device's memory does not depend on how
// many items it processed.
type itemWindow [windowBuckets]atomic.Uint64

func (w *itemWindow) add(now time.Time, n int) {
	sec := uint64(uint32(now.Unix()))
	b := &w[sec%uint64(windowBuckets)]
	for {
		old := b.Load()
		next := old + uint64(n)
		if old>>32 != sec {
			next = sec<<32 | uint64(n) // the bucket still holds a second MaxWindow ago
		}
		if b.CompareAndSwap(old, next) {
			return
		}
	}
}

// within sums the buckets whose whole second lies in (now-window, now],
// plus the running second: the count of the trailing window, short by at
// most the one bucket the window's far edge cuts through.
func (w *itemWindow) within(window time.Duration, now time.Time) int {
	cutoff := now.Add(-window)
	first, last := cutoff.Unix(), now.Unix()
	if cutoff.Nanosecond() > 0 {
		first++
	}
	first = max(first, last-int64(windowBuckets)+1, 0)
	n := 0
	for sec := first; sec <= last; sec++ {
		if b := w[sec%int64(windowBuckets)].Load(); b>>32 == uint64(uint32(sec)) {
			n += int(uint32(b))
		}
	}
	return n
}

// device is the live accounting of one device. The descriptive fields of
// the embedded row are guarded by Master.mu; results are counted through
// the atomics, so the per-item path of one connection never waits for
// another's.
type device struct {
	WorkerStats
	live     int // attachments between attach and detach (under Master.mu)
	items    atomic.Int64
	lastSeen atomic.Int64 // unix nanoseconds of the latest result
	window   itemWindow
}

func (d *device) record(now time.Time, n int) {
	d.items.Add(int64(n))
	d.lastSeen.Store(now.UnixNano())
	d.window.add(now, n)
}

// snapshot returns the device's row with the counters read into it.
func (d *device) snapshot() WorkerStats {
	row := d.WorkerStats
	row.Items = int(d.items.Load())
	if ns := d.lastSeen.Load(); ns != 0 {
		row.LastSeen = time.Unix(0, ns)
	}
	row.window = &d.window
	return row
}

// countResults counts the values of every result src delivers into d (a
// group's from its list framing's count prefix) — the "result" half of the
// §5.1 accounting, taken at the attachment, where the device's row is
// already in hand — and marks the result with the device's name, the
// sender its emit-time decode names.
func countResults(src pullstream.Source[*proto.Message], grouped bool, d *device) pullstream.Source[*proto.Message] {
	return pullstream.Tap(src, func(end error, m *proto.Message) {
		if end != nil {
			return
		}
		n := uint64(1)
		if grouped {
			n, _ = binary.Uvarint(m.Data)
		}
		m.Peer = d.Name
		d.record(time.Now(), int(n))
	})
}

// ItemsWithin returns how many items the device completed during the
// trailing window, to the resolution of one second: items of the second
// the window's far edge falls in are not counted. The row stays attached
// to the live counters, so later calls see later items.
func (w WorkerStats) ItemsWithin(window time.Duration, now time.Time) int {
	if w.window == nil {
		return 0
	}
	return w.window.within(window, now)
}

// ThroughputWithin returns items per second over the trailing window.
func (w WorkerStats) ThroughputWithin(window time.Duration, now time.Time) float64 {
	if window <= 0 {
		return 0
	}
	return float64(w.ItemsWithin(window, now)) / window.Seconds()
}
