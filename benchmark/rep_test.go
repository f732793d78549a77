package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"pando/internal/netsim"
)

// tinyWorkload is a few hundred integers through two loopback
// volunteers: a whole deployment in a few milliseconds.
func tinyWorkload(items int) *workload[int, int] {
	key := func(v int) uint64 { return uint64(v) }
	return &workload[int, int]{
		name:   "tiny",
		items:  items,
		gen:    func(seed uint64, i int) int { return int(seed)*1000 + i },
		kernel: func(v int) (int, error) { return v * v, nil },
		inKey:  key,
		outKey: key,
		fleet:  fleet{n: 2, link: netsim.Loopback},
	}
}

func TestRepChecksAndTracesAHealthyDeployment(t *testing.T) {
	w := tinyWorkload(300)
	tr := newTracer(w.items, false)
	r := w.rep(repConfig{seed: 3, items: w.items, trace: tr, outDir: t.TempDir(), label: "test"})
	if r.problem != "" || r.failed != 0 || r.hung {
		t.Fatalf("healthy rep: problem %q, failed %d, hung %v", r.problem, r.failed, r.hung)
	}
	if r.emitted != w.items || r.statsItems != w.items || r.processed != w.items {
		t.Errorf("emitted %d, devices report %d, volunteers processed %d, want %d each", r.emitted, r.statsItems, r.processed, w.items)
	}
	if len(r.latencies) != w.items || r.wall <= 0 || r.wireBytes <= 0 || r.mallocs == 0 || r.peakRSS <= 0 {
		t.Errorf("measurements missing: %d latencies, wall %v, %d wire bytes, %d mallocs", len(r.latencies), r.wall, r.wireBytes, r.mallocs)
	}
	path := filepath.Join(t.TempDir(), "tiny.trace.json")
	a := w.analyzeTrace(tr, r, 3, path)
	m := a.metrics
	if m["trace.coverage_pct"] != 100 || m["trace.unaccounted_pct"] > 2 || m["trace.negative_stages"] != 0 {
		t.Errorf("coverage %v%%, unaccounted %v%%, negative stages %v", m["trace.coverage_pct"], m["trace.unaccounted_pct"], m["trace.negative_stages"])
	}
	if m["lender.work_amplification"] != 1 || m["lender.reencoded_items"] != 0 {
		t.Errorf("churn-free rep: amplification %v, re-encoded %v", m["lender.work_amplification"], m["lender.reencoded_items"])
	}
	if info, err := os.Stat(path); err != nil || info.Size() == 0 {
		t.Errorf("trace file not written: %v", err)
	}

	// A wrong expectation must be counted, not overlooked.
	got := make([]uint64, w.items)
	for i := range got {
		got[i] = w.expected[i]
	}
	got[7], got[8] = got[8], got[7] // two outputs out of order
	if failed := w.verify(3, got, w.items-1, w.items); failed != 3 {
		t.Errorf("verify counted %d failures, want 2 out of order + 1 missing", failed)
	}
}

func TestWatchdogTurnsAHangIntoFailedItems(t *testing.T) {
	// Both volunteers crash after some hundred items and nobody joins: the
	// deployment waits forever for a volunteer.
	w := tinyWorkload(1000)
	w.fleet.crashers = 2
	dir := t.TempDir()
	r := w.rep(repConfig{seed: 1, items: w.items, outDir: dir, label: "hang", watchdog: 300 * time.Millisecond})
	if !r.hung || r.problem == "" {
		t.Fatalf("the watchdog did not fire: %+v", r)
	}
	if r.emitted >= w.items || r.failed != w.items-r.emitted {
		t.Errorf("emitted %d of %d, failed %d: every item not emitted must count as failed", r.emitted, w.items, r.failed)
	}
	if info, err := os.Stat(filepath.Join(dir, "tiny.hang.watchdog.txt")); err != nil || info.Size() == 0 {
		t.Errorf("no goroutine dump: %v", err)
	}
}
