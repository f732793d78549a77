package bench

import (
	"testing"
	"time"
)

func TestFailureDetectionScalesWithInterval(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	points, err := RunFailureDetection([]time.Duration{
		10 * time.Millisecond, 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	for _, p := range points {
		// Detection must happen within a few timeouts (timeout = 3x
		// interval by default) — the partial-synchrony bound.
		if p.Detection > 6*3*p.HeartbeatInterval {
			t.Errorf("interval %v: detection took %v, far beyond the timeout",
				p.HeartbeatInterval, p.Detection)
		}
	}
	// Longer intervals detect more slowly (the trade-off the ablation
	// demonstrates); allow generous slack for scheduling noise.
	if points[1].Detection < points[0].Detection/2 {
		t.Errorf("detection at 40ms interval (%v) unexpectedly faster than at 10ms (%v)",
			points[1].Detection, points[0].Detection)
	}
}

func TestOrderingAblationThroughputClose(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	p, err := RunOrderingAblation(3, 150, 500*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	// Declarative concurrency: ordering must not cost much throughput.
	ratio := p.OrderedItems / p.UnorderedItems
	if ratio < 0.6 || ratio > 1.7 {
		t.Errorf("ordered %.1f vs unordered %.1f items/s (ratio %.2f); expected near parity",
			p.OrderedItems, p.UnorderedItems, ratio)
	}
	if p.OrderedFirstOut <= 0 {
		t.Error("first-output latency not measured")
	}
}

func TestBatchAdaptivityTradeoff(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	points, err := RunBatchAdaptivity([]int{2, 32}, 120)
	if err != nil {
		t.Fatal(err)
	}
	small, big := points[0], points[1]
	// With a small bound the fast device's share approaches its fair
	// share; a huge bound lets the slow device hoard inputs, so the fast
	// device's share drops and completion slows.
	if small.ActualShare < big.ActualShare {
		t.Errorf("batch 2 share %.2f < batch 32 share %.2f; small bounds should balance better",
			small.ActualShare, big.ActualShare)
	}
	if small.ActualShare < 0.7 {
		t.Errorf("batch 2: fast device got %.2f of items, want close to ideal %.2f",
			small.ActualShare, small.IdealShare)
	}
}

// TestGroupingComparisonSavesBytes pins what grouping measurably buys at
// an equal credit window: fewer bytes on the wire per item — not
// throughput, which the coalescing data plane already has.
func TestGroupingComparisonSavesBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	points, err := RunGroupingComparison([]int{1, 4, 8}, 20*time.Millisecond, 2, 400)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		t.Logf("group %d, window %d: %.0f items/s, %.1f wire B/item", p.Group, p.Window, p.Throughput, p.WireBytesPerItem)
	}
	for i := 1; i < len(points); i++ {
		prev, cur := points[i-1], points[i]
		if cur.Window != prev.Window {
			t.Fatalf("window varies with group size (%d vs %d): the comparison is confounded", prev.Window, cur.Window)
		}
		if cur.WireBytesPerItem >= prev.WireBytesPerItem {
			t.Errorf("group %d: %.1f wire B/item, not below group %d's %.1f",
				cur.Group, cur.WireBytesPerItem, prev.Group, prev.WireBytesPerItem)
		}
	}
	plain, grouped := points[0], points[len(points)-1]
	if grouped.WireBytesPerItem > 0.7*plain.WireBytesPerItem {
		t.Errorf("group %d: %.1f wire B/item vs plain %.1f; grouping should save at least 30%%",
			grouped.Group, grouped.WireBytesPerItem, plain.WireBytesPerItem)
	}
	// Equal window, so throughput only has to stay within noise.
	if r := grouped.Throughput / plain.Throughput; r < 0.5 || r > 2 {
		t.Errorf("group %d at %.0f items/s vs plain %.0f at an equal window (ratio %.2f); expected near parity",
			grouped.Group, grouped.Throughput, plain.Throughput, r)
	}
}
