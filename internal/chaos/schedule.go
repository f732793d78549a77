package chaos

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Event is one named fault action at a fixed offset from scenario start.
type Event struct {
	At   time.Duration
	Name string
	Do   func()
}

// Schedule is a deterministic list of fault events. Build it (from a
// Rand) before the scenario starts, then Play it on a goroutine: each
// event fires once its offset elapses. The event list and its order are
// fully determined by the seed; Play only maps the offsets onto real
// time.
type Schedule struct {
	mu     sync.Mutex
	events []Event
	fired  []string
	played bool
}

// Add appends one event. Events may be added in any order; Play and
// Describe sort by offset (stable, so same-offset events keep insertion
// order — which is deterministic when the builder is).
func (s *Schedule) Add(at time.Duration, name string, do func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.played {
		panic("chaos: Schedule.Add after Play")
	}
	s.events = append(s.events, Event{At: at, Name: name, Do: do})
}

// Len reports how many events the schedule holds.
func (s *Schedule) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.events)
}

// Describe renders the full schedule, one "offset name" line per event in
// firing order — the artifact to log so a seed's fault schedule is
// visible and comparable across runs. Two schedules built from the same
// seed must describe byte-identically (TestDescribeDeterministic pins
// this).
func (s *Schedule) Describe() []string {
	s.mu.Lock()
	events := append([]Event(nil), s.events...)
	s.mu.Unlock()
	sort.SliceStable(events, func(a, b int) bool { return events[a].At < events[b].At })
	out := make([]string, len(events))
	for i, e := range events {
		out[i] = fmt.Sprintf("%8s  %s", e.At.Round(time.Millisecond), e.Name)
	}
	return out
}

// Play fires the events at their offsets from the moment it is called,
// returning when every event has fired or stop is closed. Run it on its
// own goroutine alongside the workload.
func (s *Schedule) Play(stop <-chan struct{}) {
	s.mu.Lock()
	s.played = true
	events := append([]Event(nil), s.events...)
	s.mu.Unlock()
	sort.SliceStable(events, func(a, b int) bool { return events[a].At < events[b].At })
	start := time.Now()
	for _, e := range events {
		if d := time.Until(start.Add(e.At)); d > 0 {
			timer := time.NewTimer(d)
			select {
			case <-timer.C:
			case <-stop:
				timer.Stop()
				return
			}
		}
		select {
		case <-stop:
			return
		default:
		}
		e.Do()
		s.mu.Lock()
		s.fired = append(s.fired, e.Name)
		s.mu.Unlock()
	}
}

// Fired lists the names of the events that have fired, in firing order.
func (s *Schedule) Fired() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.fired...)
}
