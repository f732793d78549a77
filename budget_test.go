package pando_test

import (
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"testing"
	"time"

	"pando"
	"pando/internal/apps"
	"pando/internal/netsim"
	"pando/internal/race"
	"pando/internal/worker"
)

// budgets are the per-item counts TestBudget holds each shape to. Every
// row names the change that set it. A count fails outside ±budgetBand in
// either direction, so a change that improves one records the new figure
// here, in the same diff.
var budgets = []struct {
	shape       string
	setBy       string
	schedEvents float64 // /sched/latencies:seconds samples ×8, per item
	allocs      float64 // /gc/heap/allocs:objects, per item
}{
	{shape: "collatz", setBy: "each frame handled on the goroutine that read it", schedEvents: 8.51, allocs: 10.0},
}

const budgetBand = 0.03

// TestBudget runs a fixed in-process deployment at one P and holds its
// scheduler events and heap allocations per item to the budgets table.
// At one P these counts barely move between runs, where timings drift by
// tens of percent, so a goroutine hand-off or an allocation added to (or
// removed from) the per-item path shows here.
//
// The shape: small collatz values, the JSON codec, two volunteers over
// netsim loopback links, 60k items.
func TestBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector adds allocations and scheduling of its own")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 60_000
	b := budgets[0]

	name := "budget-collatz"
	p := pando.New(name, apps.CollatzSteps, pando.WithoutRegistry())
	defer p.Close()
	ln := netsim.NewListener(name, netsim.Loopback)
	defer ln.Close()
	go func() { _ = p.ServeWS(ln) }()
	for k := 0; k < 2; k++ {
		conn, _, err := ln.Dial()
		if err != nil {
			t.Fatal(err)
		}
		v := &worker.Volunteer{
			Name:       "v" + strconv.Itoa(k),
			Handler:    pando.CodecHandler(apps.CollatzSteps, pando.JSONCodec[string]{}, pando.JSONCodec[apps.CollatzResult]{}),
			CrashAfter: -1,
			Functions:  []string{name},
		}
		go func() { _ = v.JoinWS(conn) }()
	}
	for deadline := time.Now().Add(10 * time.Second); len(p.Stats()) < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the two volunteers were never admitted")
		}
	}
	in := make(chan string)
	go func() {
		defer close(in)
		for i := 0; i < n; i++ {
			in <- strconv.Itoa(1_000_000 + i)
		}
	}()

	// Six windows of n/6 items. Now and then an episode of 10k–40k items,
	// more often beside other processes, reads events a few percent low:
	// frames batch, several taken per wake-up. Batching only removes
	// events, so the count is the busiest window's, the unbatched cost
	// that every window pays once the per-item path changes. Allocations
	// do not batch; they are the median window's.
	const windows = 6
	runtime.GC()
	out, errc := p.Process(t.Context(), in)
	marks := []budgetMetrics{readBudgetMetrics()}
	got := 0
	for range out {
		if got++; got%(n/windows) == 0 {
			marks = append(marks, readBudgetMetrics())
		}
	}
	if err := <-errc; err != nil || got != n {
		t.Fatalf("processed %d of %d items: %v", got, n, err)
	}
	var events, allocs []float64
	for w := 1; w < len(marks); w++ {
		events = append(events, 8*float64(marks[w].schedEvents-marks[w-1].schedEvents)/(n/windows))
		allocs = append(allocs, float64(marks[w].allocs-marks[w-1].allocs)/(n/windows))
	}
	t.Logf("%s: scheduler events per item %.2f, allocations per item %.2f, by window", b.shape, events, allocs)
	slices.Sort(allocs)
	check := func(what string, got, want float64) {
		t.Helper()
		if got < want*(1-budgetBand) || got > want*(1+budgetBand) {
			t.Errorf("%s: %.2f per item, budget %.2f ±%.0f%% (set by %q): record the new figure if the change is meant",
				what, got, want, budgetBand*100, b.setBy)
		}
	}
	check("scheduler events", slices.Max(events), b.schedEvents)
	check("allocations", allocs[windows/2], b.allocs)
}

type budgetMetrics struct{ schedEvents, allocs uint64 }

func readBudgetMetrics() budgetMetrics {
	s := []metrics.Sample{{Name: "/sched/latencies:seconds"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	var m budgetMetrics
	for _, c := range s[0].Value.Float64Histogram().Counts {
		m.schedEvents += c
	}
	m.allocs = s[1].Value.Uint64()
	return m
}
