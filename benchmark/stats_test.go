package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{10, 10, 1, 1000, 10}, 10}, // one slow rep does not move it
	}
	for _, c := range cases {
		in := append([]float64(nil), c.in...)
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
		for i := range in {
			if in[i] != c.in[i] {
				t.Errorf("median reordered its argument: %v -> %v", in, c.in)
			}
		}
	}
}

func TestPercentileStatesItsSampleCount(t *testing.T) {
	xs := make([]int64, 0, 200)
	for v := int64(200); v >= 1; v-- { // unsorted on purpose
		xs = append(xs, v)
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 100}, {99, 198}, {100, 200}, {0.1, 1}} {
		got := percentile(xs, c.p)
		if got.V != c.want || got.N != 200 {
			t.Errorf("p%v = %+v, want value %v over 200 samples", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got.N != 0 || got.V != 0 {
		t.Errorf("percentile of nothing = %+v, want zero value over 0 samples", got)
	}
	// Nearest rank never invents a value between two samples.
	if got := percentile([]int64{10, 20}, 50); got.V != 10 {
		t.Errorf("p50 of {10,20} = %v, want the measured 10", got.V)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := interval{100, 200}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping counted once", []interval{{110, 150}, {140, 160}}, 50},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"sticking out both ends", []interval{{50, 120}, {180, 300}}, 60},
		{"outside entirely", []interval{{0, 50}, {250, 300}}, 100},
		{"covering", []interval{{0, 300}}, 0},
		{"empty child", []interval{{150, 150}}, 100},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
	if got := selfTime(interval{5, 5}, []interval{{0, 10}}); got != 0 {
		t.Errorf("selfTime of an empty parent = %d, want 0", got)
	}
}

func TestWindowReconstructionAgreesWithLittlesLaw(t *testing.T) {
	// A volunteer with a fixed window of 4: a new item is encoded every
	// 10 ns and each stays 40 ns between master encode and master decode.
	var ivs []interval
	for i := int64(0); i < 1000; i++ {
		ivs = append(ivs, interval{i * 10, i*10 + 40})
	}
	win := windowAtStarts(ivs)
	for i, w := range win {
		want := min(i+1, 4) // the window fills over the first four items
		if w != want {
			t.Fatalf("window at item %d = %d, want %d", i, w, want)
		}
	}
	var sum float64
	for _, w := range win {
		sum += float64(w)
	}
	got := sum / float64(len(win))
	// Little: window = rate x stay = (1 item / 10 ns) x 40 ns = 4.
	want := littleWindow(1/10e-9, 40e-9)
	if math.Abs(got-want) > 0.01*want {
		t.Errorf("mean reconstructed window %.3f, Little's law predicts %.3f", got, want)
	}

	// Order of the input must not matter, and an interval that ends
	// exactly when another starts has left the window.
	shuffled := []interval{{20, 30}, {0, 10}, {10, 20}}
	for i, w := range windowAtStarts(shuffled) {
		if w != 1 {
			t.Errorf("back-to-back intervals: window %d = %d, want 1", i, w)
		}
	}
}
