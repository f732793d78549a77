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

// StartReporter begins reporting the rows stats returns to w every
// interval over the given trailing window. Call Stop to end it.
func StartReporter(w io.Writer, stats func() []WorkerStats, interval, window time.Duration) *Reporter {
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
				report(w, stats(), window, time.Now())
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

// report prints one tick: the deployment's summary line, then one line
// per device, each device's windowed rate read from its row; the summary's
// rate is their sum, the §5.1 cross-check against the output.
func report(w io.Writer, stats []WorkerStats, window time.Duration, now time.Time) {
	sort.Slice(stats, func(i, j int) bool { return stats[i].Name < stats[j].Name })
	alive, items, total := 0, 0, 0.0
	rates := make([]float64, len(stats))
	for i, s := range stats {
		if s.Alive {
			alive++
		}
		items += s.Items
		rates[i] = s.ThroughputWithin(window, now)
		total += rates[i]
	}
	fmt.Fprintf(w, "[pando] %d device(s) alive, %d item(s) done, %.1f items/s over last %v\n",
		alive, items, total, window)
	for i, s := range stats {
		state := "gone "
		if s.Alive {
			state = "alive"
		}
		fmt.Fprintf(w, "[pando]   %-24s %s %6d items %8.1f items/s  win %d, %d in flight, ewma %.1f/s",
			s.Name, state, s.Items, rates[i], s.Credits, s.InFlight, s.EWMARate)
		if s.Speculated > 0 {
			fmt.Fprintf(w, ", %d re-dispatched", s.Speculated)
		}
		fmt.Fprintln(w)
	}
}
