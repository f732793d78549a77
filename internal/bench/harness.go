package bench

import (
	"context"
	"fmt"
	"sort"
	"time"

	pando "pando"
	"pando/internal/netsim"
	"pando/internal/transport"
)

// DefaultTimeScale compresses the simulation: compute delays and link
// latencies are both multiplied by it, preserving their ratio (which is
// what determines whether batching can hide the latency) while letting a
// full Table 2 run finish in seconds instead of the paper's five minutes
// per cell.
const DefaultTimeScale = 0.01

// Options tunes a harness run.
type Options struct {
	// TimeScale compresses time; zero selects DefaultTimeScale.
	TimeScale float64
	// Items is the number of work items per run; zero selects 400.
	Items int
	// Batch overrides the scenario's batch size when > 0 (for sweeps).
	Batch int
}

func (o Options) timeScale() float64 {
	if o.TimeScale <= 0 {
		return DefaultTimeScale
	}
	return o.TimeScale
}

func (o Options) items() int {
	if o.Items <= 0 {
		return 400
	}
	return o.Items
}

// WorkItem is the simulated work unit flowing through the deployment.
type WorkItem struct {
	Seq int `json:"seq"`
}

// Ack is the simulated result.
type Ack struct {
	Seq int `json:"seq"`
}

// Row is one measured cell of the regenerated Table 2.
type Row struct {
	Device string
	// Measured is the achieved throughput in the app's unit per second,
	// rescaled back to real time.
	Measured float64
	// MeasuredShare is the device's % of the total (the % columns).
	MeasuredShare float64
	// Paper is the rate the paper reports for this device (calibration
	// target).
	Paper float64
	// PaperShare is the paper's % column.
	PaperShare float64
	// Items processed by this device.
	Items int
}

// CellResult is one (scenario, app) cell run: per-device rows plus
// aggregates.
type CellResult struct {
	Scenario string
	App      App
	Rows     []Row
	// TotalMeasured and TotalPaper aggregate the device rates.
	TotalMeasured float64
	TotalPaper    float64
	Elapsed       time.Duration
	Items         int
}

// scaledLink multiplies a link's delays by the time scale.
func scaledLink(l netsim.Link, ts float64) netsim.Link {
	l.Latency = time.Duration(float64(l.Latency) * ts)
	l.Jitter = time.Duration(float64(l.Jitter) * ts)
	return l
}

// perCoreDelay computes the simulated per-item compute time for one core
// of the device.
func perCoreDelay(d Device, app App, ts float64) (time.Duration, bool) {
	rate, ok := d.Rates[app]
	if !ok || rate <= 0 {
		return 0, false
	}
	perCore := rate / float64(d.Cores)
	secs := UnitsPerItem[app] / perCore * ts
	return time.Duration(secs * float64(time.Second)), true
}

var cellSeq int

// RunCell reproduces one (scenario, app) cell of Table 2: it deploys one
// master, attaches every device of the scenario (one volunteer per core,
// with the device's calibrated per-item delay, behind the scenario's
// simulated link), processes the work items, and derives per-device
// throughput from the master's accounting — the same methodology as §5.1.
func RunCell(s Scenario, app App, opt Options) (CellResult, error) {
	ts := opt.timeScale()
	batch := s.Batch
	if opt.Batch > 0 {
		batch = opt.Batch
	}
	cellSeq++
	p := pando.New(
		fmt.Sprintf("bench-%s-%d", app, cellSeq),
		func(w WorkItem) (Ack, error) { return Ack{Seq: w.Seq}, nil },
		pando.WithBatch(batch),
		pando.WithChannelConfig(transport.Config{HeartbeatInterval: 50 * time.Millisecond}),
		pando.WithoutRegistry(),
	)
	defer p.Close()

	link := scaledLink(s.Link, ts)
	participating := 0
	for _, d := range s.Devices {
		delay, ok := perCoreDelay(d, app, ts)
		if !ok {
			continue // app not run on this device (ImgProc on WAN)
		}
		participating++
		for c := 0; c < d.Cores; c++ {
			p.AddWorker(d.Name, link, delay, -1)
		}
	}
	if participating == 0 {
		return CellResult{}, fmt.Errorf("bench: no device runs %s in %s", app, s.Name)
	}

	items := opt.items()
	inputs := make([]WorkItem, items)
	for i := range inputs {
		inputs[i] = WorkItem{Seq: i}
	}
	start := time.Now()
	if _, err := p.ProcessSlice(context.Background(), inputs); err != nil {
		return CellResult{}, fmt.Errorf("bench: %s/%s: %w", s.Name, app, err)
	}
	elapsed := time.Since(start)

	res := CellResult{Scenario: s.Name, App: app, Elapsed: elapsed, Items: items}
	stats := p.Stats()
	sort.Slice(stats, func(i, j int) bool { return stats[i].Name < stats[j].Name })
	totalItems := 0
	for _, w := range stats {
		totalItems += w.Items
	}
	for _, d := range s.Devices {
		paper := d.Rates[app]
		if paper == 0 {
			continue
		}
		var devItems int
		for _, w := range stats {
			if w.Name == d.Name {
				devItems = w.Items
			}
		}
		// Rescale: measured units/s in simulated time x timeScale gives
		// the calibrated real-time rate.
		measured := float64(devItems) * UnitsPerItem[app] / elapsed.Seconds() * ts
		row := Row{
			Device:     d.Name,
			Measured:   measured,
			Paper:      paper,
			PaperShare: s.Share(d.Name, app),
			Items:      devItems,
		}
		if totalItems > 0 {
			row.MeasuredShare = 100 * float64(devItems) / float64(totalItems)
		}
		res.Rows = append(res.Rows, row)
		res.TotalMeasured += measured
		res.TotalPaper += paper
	}
	return res, nil
}

// RunScenario reproduces one block of Table 2 (all apps on one scenario).
func RunScenario(s Scenario, opt Options) ([]CellResult, error) {
	var out []CellResult
	for _, app := range Apps {
		if s.Total(app) == 0 {
			continue
		}
		cell, err := RunCell(s, app, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, cell)
	}
	return out, nil
}

// RunTable2 reproduces the full Table 2.
func RunTable2(opt Options) ([]CellResult, error) {
	var out []CellResult
	for _, s := range Scenarios {
		cells, err := RunScenario(s, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, cells...)
	}
	return out, nil
}
