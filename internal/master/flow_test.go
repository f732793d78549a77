package master

import (
	"testing"
	"time"

	"pando/internal/netsim"
	"pando/internal/pullstream"
	"pando/internal/sched"
	"pando/internal/worker"
)

// TestStatsExposeFlowControl verifies the operator-facing controller
// state: while a run is live, the per-device rows report the credit
// window, the in-flight count, and (after a few results) the EWMA
// throughput estimate and the round-trips the window rule decides on.
func TestStatsExposeFlowControl(t *testing.T) {
	m, pool := newTestMaster(t, Config{})
	ln := netsim.NewListener("master-flow", netsim.Loopback)
	defer ln.Close()
	go pool.ServeWS(ln)

	out := m.Bind(pullstream.Count(80))
	startVolunteer(t, ln, &worker.Volunteer{Name: "dev", Handler: jsonSquare, Delay: 2 * time.Millisecond})

	done := make(chan error, 1)
	go func() {
		_, err := pullstream.Collect(out)
		done <- err
	}()

	var sawCredits, sawInFlight, sawRate, sawRTT bool
	for {
		for _, w := range m.Stats() {
			if w.Name != "dev" {
				continue
			}
			if w.Credits > 0 {
				sawCredits = true
				if w.Credits != 2 {
					t.Fatalf("Credits = %d, want the static batch 2", w.Credits)
				}
			}
			if w.InFlight > 0 {
				sawInFlight = true
				if w.InFlight > 2 {
					t.Fatalf("InFlight = %d exceeds the window", w.InFlight)
				}
			}
			if w.EWMARate > 0 {
				sawRate = true
			}
			if w.RTT > 0 {
				sawRTT = true
				if w.BaseRTT <= 0 || w.Queued < 0 || w.Queued > 2 {
					t.Fatalf("RTT %v, BaseRTT %v, Queued %.2f: want a base and a queue within the window of 2", w.RTT, w.BaseRTT, w.Queued)
				}
			}
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if !sawCredits || !sawInFlight || !sawRate || !sawRTT {
				t.Fatalf("flow state never surfaced: credits=%v inflight=%v rate=%v rtt=%v",
					sawCredits, sawInFlight, sawRate, sawRTT)
			}
			return
		case <-time.After(time.Millisecond):
		}
	}
}

// TestStatsExposeServiceStamp: the service time a volunteer stamps on its
// first result reaches the device's row, and it is the processing
// function's time: at least the 4 ms the volunteer sleeps per item.
func TestStatsExposeServiceStamp(t *testing.T) {
	m, pool := newTestMaster(t, Config{})
	ln := netsim.NewListener("master-service", netsim.Loopback)
	defer ln.Close()
	go pool.ServeWS(ln)

	out := m.Bind(pullstream.Count(40))
	startVolunteer(t, ln, &worker.Volunteer{Name: "dev", Handler: jsonSquare, Delay: 4 * time.Millisecond})
	done := make(chan error, 1)
	go func() {
		_, err := pullstream.Collect(out)
		done <- err
	}()
	var service time.Duration
	for service == 0 {
		for _, w := range m.Stats() {
			if w.Name == "dev" {
				service = w.Service
			}
		}
		select {
		case err := <-done:
			t.Fatalf("stream ended (%v) before the stamp surfaced", err)
		case <-time.After(time.Millisecond):
		}
	}
	if service < 4*time.Millisecond {
		t.Fatalf("Service = %v, want at least the volunteer's 4ms per item", service)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestConfigFlowDefaults: the zero policy preserves the static batch
// bound, and explicit policies pass through with sane clamping.
func TestConfigFlowDefaults(t *testing.T) {
	cases := []struct {
		cfg  Config
		want sched.Policy
	}{
		{Config{}, sched.Policy{Min: 2, Max: 2}},
		{Config{Flow: sched.Static(5)}, sched.Policy{Min: 5, Max: 5}},
		{Config{Flow: sched.Policy{Speculation: 2}}, sched.Policy{Min: 2, Max: 2, Speculation: 2}},
		{Config{Flow: sched.Policy{Min: 1, Max: 8}}, sched.Policy{Min: 1, Max: 8}},
	}
	for _, c := range cases {
		if got := c.cfg.flow(); got != c.want {
			t.Errorf("flow(%+v) = %+v, want %+v", c.cfg, got, c.want)
		}
	}
	if got := grouped(sched.Policy{Min: 2, Max: 16}, 4); got.Min != 1 || got.Max != 4 {
		t.Errorf("grouped rescale = %+v, want Min 1 Max 4", got)
	}
}
