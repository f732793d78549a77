package master

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Reporter periodically prints per-device throughput, the live console
// monitoring the JavaScript tool shows while a deployment runs. One line
// per tick summarizes the deployment; device details follow, sorted by
// name, using the windowed methodology of §5.1.
type Reporter struct {
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// StartReporter begins reporting to w every interval over the given
// trailing window. Call Stop to end it.
func (m *Master[I, O]) StartReporter(w io.Writer, interval, window time.Duration) *Reporter {
	if interval <= 0 {
		interval = time.Second
	}
	if window <= 0 {
		window = 10 * time.Second
	}
	r := &Reporter{
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go func() {
		defer close(r.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				m.report(w, window)
			case <-r.stop:
				return
			}
		}
	}()
	return r
}

// Stop ends the reporting loop; it is safe to call multiple times.
func (r *Reporter) Stop() {
	r.once.Do(func() { close(r.stop) })
	<-r.done
}

func (m *Master[I, O]) report(w io.Writer, window time.Duration) {
	stats := m.Stats()
	sort.Slice(stats, func(i, j int) bool { return stats[i].Name < stats[j].Name })
	perDevice, total := m.WindowedThroughput(window)
	alive := 0
	items := 0
	for _, s := range stats {
		if s.Alive {
			alive++
		}
		items += s.Items
	}
	fmt.Fprintf(w, "[pando] %d device(s) alive, %d item(s) done, %.1f items/s over last %v\n",
		alive, items, total, window)
	for _, s := range stats {
		state := "gone "
		if s.Alive {
			state = "alive"
		}
		wire := s.Wire
		if wire == "" {
			wire = "-"
		}
		fmt.Fprintf(w, "[pando]   %-24s %s %-13s %6d items %8.1f items/s  win %d, %d in flight, ewma %.1f/s",
			s.Name, state, wire, s.Items, perDevice[s.Name], s.Credits, s.InFlight, s.EWMARate)
		if s.Speculated > 0 {
			fmt.Fprintf(w, ", %d re-dispatched", s.Speculated)
		}
		fmt.Fprintln(w)
	}
}
