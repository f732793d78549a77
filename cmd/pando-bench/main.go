// Command pando-bench regenerates the paper's evaluation (Section 5) on
// the simulated substrate:
//
//	pando-bench -table 2                 # full Table 2 (all scenarios)
//	pando-bench -table 2 -scenario lan   # one block
//	pando-bench -sweep batch             # §5.5: batching hides latency
//	pando-bench -claims                  # §5.5 analysis claims
//	pando-bench -ablations               # design-choice ablations
//	pando-bench -speedup                 # headline speedup vs one device
//
// Absolute rates are calibrated from the paper's measurements; what the
// run demonstrates is the shape — who wins, by what share, and how
// batching interacts with latency — produced by the real coordination
// stack.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"pando/internal/bench"
)

func main() {
	var (
		table     = flag.Int("table", 0, "paper table to regenerate (2)")
		scenario  = flag.String("scenario", "all", "lan | vpn | wan | all")
		sweep     = flag.String("sweep", "", "sweep to run: batch")
		claims    = flag.Bool("claims", false, "check the §5.5 analysis claims")
		ablations = flag.Bool("ablations", false, "run the design-choice ablations")
		speedup   = flag.Bool("speedup", false, "measure speedup of all LAN devices vs one")
		items     = flag.Int("items", 400, "work items per cell")
		timeScale = flag.Float64("timescale", bench.DefaultTimeScale, "time compression factor")
	)
	flag.Parse()
	opt := bench.Options{Items: *items, TimeScale: *timeScale}

	ran := false
	if *table == 2 {
		ran = true
		var cells []bench.CellResult
		var err error
		switch strings.ToLower(*scenario) {
		case "lan":
			cells, err = bench.RunScenario(bench.LAN, opt)
		case "vpn":
			cells, err = bench.RunScenario(bench.VPN, opt)
		case "wan":
			cells, err = bench.RunScenario(bench.WAN, opt)
		case "all":
			cells, err = bench.RunTable2(opt)
		default:
			err = fmt.Errorf("unknown scenario %q", *scenario)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "pando-bench:", err)
			os.Exit(1)
		}
		bench.RenderTable2(os.Stdout, cells)
	}

	if *sweep == "batch" {
		ran = true
		for _, latency := range []time.Duration{2 * time.Millisecond, 10 * time.Millisecond, 40 * time.Millisecond} {
			points, err := bench.RunBatchSweep([]int{1, 2, 4, 8, 16}, latency, 10*time.Millisecond, 4, 240)
			if err != nil {
				fmt.Fprintln(os.Stderr, "pando-bench:", err)
				os.Exit(1)
			}
			bench.RenderSweep(os.Stdout, points)
		}
	}

	if *claims {
		ran = true
		bench.RenderClaims(os.Stdout, bench.CheckClaims())
	}

	if *ablations {
		ran = true
		det, err := bench.RunFailureDetection([]time.Duration{
			10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "pando-bench:", err)
			os.Exit(1)
		}
		ord, err := bench.RunOrderingAblation(4, 300, time.Millisecond)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pando-bench:", err)
			os.Exit(1)
		}
		adapt, err := bench.RunBatchAdaptivity([]int{1, 2, 4, 16, 64}, 200)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pando-bench:", err)
			os.Exit(1)
		}
		bench.RenderAblations(os.Stdout, det, ord, adapt)
		grouping, err := bench.RunGroupingComparison([]int{1, 2, 4, 8, 16}, 20*time.Millisecond, 3, 300)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pando-bench:", err)
			os.Exit(1)
		}
		bench.RenderGrouping(os.Stdout, grouping)
	}

	if *speedup {
		ran = true
		for _, app := range []bench.App{bench.Raytrace, bench.Collatz} {
			r, err := bench.RunSpeedup(app, "MBAir 2011", opt)
			if err != nil {
				fmt.Fprintln(os.Stderr, "pando-bench:", err)
				os.Exit(1)
			}
			bench.RenderSpeedup(os.Stdout, r)
		}
	}

	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}
