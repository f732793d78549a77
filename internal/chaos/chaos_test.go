package chaos

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pando/internal/fleet"
	"pando/internal/journal"
)

// TestRandDeterminism: the same seed yields the same draws, and Fork
// streams depend only on (seed, label) — not on parent draw order.
func TestRandDeterminism(t *testing.T) {
	draws := func(r *Rand) []int64 {
		out := make([]int64, 8)
		for i := range out {
			out[i] = r.Int63()
		}
		return out
	}
	if !reflect.DeepEqual(draws(New(42)), draws(New(42))) {
		t.Fatal("same seed produced different streams")
	}
	if reflect.DeepEqual(draws(New(42)), draws(New(43))) {
		t.Fatal("different seeds produced identical streams")
	}

	// Fork independence from parent draw order.
	a := New(7)
	forkA := a.Fork("workers")
	b := New(7)
	b.Int63() // parent draw before forking...
	forkB := b.Fork("workers")
	if !reflect.DeepEqual(draws(forkA), draws(forkB)) {
		t.Fatal("fork stream shifted with parent draw count")
	}
	if reflect.DeepEqual(draws(New(7).Fork("workers")), draws(New(7).Fork("faults"))) {
		t.Fatal("different labels produced identical fork streams")
	}
}

// TestRandHelpers: bounds of the convenience draws.
func TestRandHelpers(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if d := r.Duration(10*time.Millisecond, 20*time.Millisecond); d < 10*time.Millisecond || d >= 20*time.Millisecond {
			t.Fatalf("Duration out of range: %v", d)
		}
	}
	if d := r.Duration(5*time.Millisecond, 5*time.Millisecond); d != 5*time.Millisecond {
		t.Fatalf("degenerate Duration = %v", d)
	}
	if got := len(r.Perm(5)); got != 5 {
		t.Fatalf("Perm length %d", got)
	}
}

// TestScheduleDeterministicDescription: two schedules built from the same
// seed describe identically, regardless of Add order for distinct
// offsets.
func TestScheduleDeterministicDescription(t *testing.T) {
	build := func(seed int64) []string {
		r := New(seed)
		s := &Schedule{}
		// Added out of order on purpose; Describe sorts by offset.
		s.Add(30*time.Millisecond, "late", func() {})
		s.Add(r.Duration(0, 10*time.Millisecond), "early", func() {})
		return s.Describe()
	}
	if !reflect.DeepEqual(build(9), build(9)) {
		t.Fatal("same seed produced different schedules")
	}
	lines := build(9)
	if !strings.Contains(lines[0], "early") || !strings.Contains(lines[1], "late") {
		t.Fatalf("Describe not sorted by offset: %v", lines)
	}
}

// TestDescribeDeterministic: a full scenario built through the fault
// builders from one seed describes byte-identically across two
// independent builds, so one seed always replays one schedule. Each
// injector draws from its own fork, so the comparison also pins the
// fork-isolation contract (one builder's draw count must not shift
// another's timings).
func TestDescribeDeterministic(t *testing.T) {
	build := func(seed int64) string {
		r := New(seed)
		s := &Schedule{}
		var p Pauser = pauseRecorder{}
		Flap(s, r.Fork("flap-a"), "link-a", p, 3, 5*time.Millisecond, 40*time.Millisecond, time.Millisecond, 20*time.Millisecond)
		Flap(s, r.Fork("flap-b"), "link-b", p, 2, 0, 25*time.Millisecond, time.Millisecond, 10*time.Millisecond)
		Cut(s, "link-b", cutRecorder{}, 60*time.Millisecond)
		return strings.Join(s.Describe(), "\n")
	}
	first, second := build(42), build(42)
	if first != second {
		t.Fatalf("same seed described differently:\n--- first\n%s\n--- second\n%s", first, second)
	}
	if other := build(43); other == first {
		t.Fatal("different seeds described identically; the builders are not drawing from the Rand")
	}
}

type pauseRecorder struct{}

func (pauseRecorder) Pause()  {}
func (pauseRecorder) Resume() {}

type cutRecorder struct{}

func (cutRecorder) Cut() {}

// TestSchedulePlayFiresInOrder: events fire by offset order and the
// fired log records them.
func TestSchedulePlayFiresInOrder(t *testing.T) {
	s := &Schedule{}
	var order []string
	s.Add(20*time.Millisecond, "second", func() { order = append(order, "second") })
	s.Add(1*time.Millisecond, "first", func() { order = append(order, "first") })
	stop := make(chan struct{})
	s.Play(stop) // synchronous: returns when all fired
	if !reflect.DeepEqual(order, []string{"first", "second"}) {
		t.Fatalf("fired order %v", order)
	}
	if !reflect.DeepEqual(s.Fired(), []string{"first", "second"}) {
		t.Fatalf("Fired() = %v", s.Fired())
	}
}

// TestSchedulePlayStops: closing stop abandons the remaining events.
func TestSchedulePlayStops(t *testing.T) {
	s := &Schedule{}
	var fired atomic.Int32
	s.Add(time.Millisecond, "a", func() { fired.Add(1) })
	s.Add(10*time.Second, "never", func() { fired.Add(1) })
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { s.Play(stop); close(done) }()
	time.Sleep(30 * time.Millisecond)
	close(stop)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Play did not return after stop")
	}
	if got := fired.Load(); got != 1 {
		t.Fatalf("fired %d events, want 1", got)
	}
}

// TestScrambleDeterministic: the same forked seed yields the same
// drop/corrupt decisions chunk for chunk.
func TestScrambleDeterministic(t *testing.T) {
	run := func() []string {
		f := Scramble(New(3).Fork("scramble:w1"), 0.3, 0.2)
		var log []string
		for i := 0; i < 50; i++ {
			data := []byte{byte(i), byte(i + 1), byte(i + 2)}
			out, ok := f(data)
			log = append(log, fmt.Sprintf("%v %v", out, ok))
		}
		return log
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Fatal("scramble decisions not reproducible from the seed")
	}
}

// TestCheckExact catches each violation class.
func TestCheckExact(t *testing.T) {
	want := func(i int) int { return i * i }
	if err := CheckExact([]int{0, 1, 4, 9}, 4, want); err != nil {
		t.Fatalf("clean sequence rejected: %v", err)
	}
	if err := CheckExact([]int{0, 1, 4}, 4, want); err == nil {
		t.Fatal("missing output accepted")
	}
	if err := CheckExact([]int{0, 1, 1, 4}, 4, want); err == nil {
		t.Fatal("duplicate accepted")
	}
	if err := CheckExact([]int{0, 4, 1, 9}, 4, want); err == nil {
		t.Fatal("misorder accepted")
	}
}

// TestStaleLeases flags only leases held by closed jobs.
func TestStaleLeases(t *testing.T) {
	workers := []fleet.WorkerInfo{
		{Name: "w1", Job: "open-job", State: "leased"},
		{Name: "w2", Job: "closed-job", State: "leased"},
		{Name: "w3", Job: "closed-job", State: "reclaiming"},
		{Name: "w4", Job: "", State: "parked"},
		{Name: "w5", Job: "closed-job", State: "dismissing"},
	}
	open := func(job string) bool { return job == "open-job" }
	stale := StaleLeases(workers, open)
	if len(stale) != 2 {
		t.Fatalf("stale = %v, want exactly w2 and w3", stale)
	}
	for _, s := range stale {
		if !strings.Contains(s, "closed-job") {
			t.Fatalf("unexpected stale entry %q", s)
		}
	}
}

// TestVerifyJournal: byte identity holds for a clean journal and fails on
// a count mismatch or payload divergence.
func TestVerifyJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	j, err := journal.Open(path, journal.Options{SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	want := func(i int) []byte { return []byte(fmt.Sprintf("r%d", i)) }
	for i := 0; i < 5; i++ {
		if err := j.Record(i, want(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := VerifyJournal(path, 5, want); err != nil {
		t.Fatalf("clean journal rejected: %v", err)
	}
	if err := VerifyJournal(path, 6, want); err == nil {
		t.Fatal("short journal accepted")
	}
	if err := VerifyJournal(path, 5, func(i int) []byte { return []byte("x") }); err == nil {
		t.Fatal("diverging payloads accepted")
	}
}

// blockUntil is a helper whose frame lives in this module, so a goroutine
// parked in it counts as a Pando goroutine for the leak guard.
func blockUntil(ch chan struct{}) { <-ch }

// TestLeakGuard: a goroutine leaked after the baseline is reported, and
// the guard settles once it exits.
func TestLeakGuard(t *testing.T) {
	g := Guard()
	release := make(chan struct{})
	go blockUntil(release)
	time.Sleep(10 * time.Millisecond)
	if err := g.Check(50 * time.Millisecond); err == nil {
		t.Fatal("leaked goroutine not detected")
	} else if !strings.Contains(err.Error(), "blockUntil") {
		t.Fatalf("leak report does not name the culprit: %v", err)
	}
	close(release)
	if err := g.Check(2 * time.Second); err != nil {
		t.Fatalf("guard still failing after the leak exited: %v", err)
	}
}
