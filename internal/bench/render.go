package bench

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// RenderTable2 prints regenerated cells in the layout of the paper's
// Table 2: one block per scenario, devices as rows, applications as
// column pairs (measured rate and % share), with paper values alongside
// for comparison.
func RenderTable2(w io.Writer, cells []CellResult) {
	byScenario := map[string][]CellResult{}
	var order []string
	for _, c := range cells {
		if _, seen := byScenario[c.Scenario]; !seen {
			order = append(order, c.Scenario)
		}
		byScenario[c.Scenario] = append(byScenario[c.Scenario], c)
	}
	for _, scenario := range order {
		group := byScenario[scenario]
		fmt.Fprintf(w, "\n%s\n%s\n", scenario, strings.Repeat("=", len(scenario)))
		// Header.
		fmt.Fprintf(w, "%-30s", "Device")
		for _, c := range group {
			fmt.Fprintf(w, " | %22s", fmt.Sprintf("%s (%s)", c.App, Unit[c.App]))
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "%-30s", "")
		for range group {
			fmt.Fprintf(w, " | %10s %5s %5s", "measured", "m%", "p%")
		}
		fmt.Fprintln(w)

		// Device rows (devices are identical across the group's cells).
		if len(group) == 0 {
			continue
		}
		for i := range group[0].Rows {
			fmt.Fprintf(w, "%-30s", group[0].Rows[i].Device)
			for _, c := range group {
				r := c.Rows[i]
				fmt.Fprintf(w, " | %10.2f %5.1f %5.1f", r.Measured, r.MeasuredShare, r.PaperShare)
			}
			fmt.Fprintln(w)
		}
		// Totals.
		fmt.Fprintf(w, "%-30s", "TOTAL (measured / paper)")
		for _, c := range group {
			fmt.Fprintf(w, " | %10.2f /%9.2f", c.TotalMeasured, c.TotalPaper)
		}
		fmt.Fprintln(w)
	}
}

// RenderSweep prints the batch sweep series (claim C1).
func RenderSweep(w io.Writer, points []SweepPoint) {
	fmt.Fprintf(w, "\nBatch-size sweep (one-way latency %v)\n", points[0].Latency)
	fmt.Fprintf(w, "%8s  %14s\n", "batch", "items/s")
	for _, p := range points {
		fmt.Fprintf(w, "%8d  %14.1f\n", p.Batch, p.Throughput)
	}
}

// RenderClaims prints the §5.5 claim checks.
func RenderClaims(w io.Writer, claims []Claim) {
	fmt.Fprintln(w, "\nAnalysis claims (paper §5.5):")
	for _, c := range claims {
		status := "HOLDS"
		if !c.Holds {
			status = "FAILS"
		}
		fmt.Fprintf(w, "  [%s] %-5s %s — %s\n", c.ID, status, c.Text, c.Detail)
	}
}

// RenderAblations prints the design-choice ablation results.
func RenderAblations(w io.Writer, det []DetectionPoint, ord OrderingPoint, adapt []AdaptivityPoint) {
	fmt.Fprintln(w, "\nAblation: heartbeat interval vs crash-detection latency (§2.4.1)")
	fmt.Fprintf(w, "%12s %12s %12s\n", "interval", "timeout", "detected in")
	for _, p := range det {
		to := p.Timeout
		if to == 0 {
			to = 3 * p.HeartbeatInterval
		}
		fmt.Fprintf(w, "%12v %12v %12v\n", p.HeartbeatInterval, to, p.Detection.Round(time.Millisecond))
	}

	fmt.Fprintf(w, "\nAblation: ordered vs unordered output (%d workers, §4.2)\n", ord.Workers)
	fmt.Fprintf(w, "  ordered   %.1f items/s (first output after %v)\n",
		ord.OrderedItems, ord.OrderedFirstOut.Round(time.Millisecond))
	fmt.Fprintf(w, "  unordered %.1f items/s\n", ord.UnorderedItems)

	fmt.Fprintln(w, "\nAblation: Limiter bound vs adaptivity (fast+slow device, 10x speed gap, §2.4.3)")
	fmt.Fprintf(w, "%8s %12s %14s %14s\n", "batch", "elapsed", "fast share", "ideal share")
	for _, p := range adapt {
		fmt.Fprintf(w, "%8d %12v %13.1f%% %13.1f%%\n",
			p.Batch, p.Elapsed.Round(time.Millisecond), 100*p.ActualShare, 100*p.IdealShare)
	}
}

// RenderGrouping prints the grouped-frames comparison.
func RenderGrouping(w io.Writer, points []GroupingPoint) {
	if len(points) == 0 {
		return
	}
	fmt.Fprintf(w, "\nExtension: inputs per frame (tiny items, %v one-way latency, window %d values per device)\n",
		points[0].Latency, points[0].Window)
	fmt.Fprintf(w, "%8s %14s %14s\n", "group", "items/s", "wire B/item")
	for _, p := range points {
		fmt.Fprintf(w, "%8d %14.1f %14.1f\n", p.Group, p.Throughput, p.WireBytesPerItem)
	}
}

// RenderSpeedup prints a speedup comparison (the headline claim).
func RenderSpeedup(w io.Writer, r SpeedupResult) {
	fmt.Fprintf(w, "\n%s: all LAN devices %.2f %s vs %s alone %.2f => speedup %.2fx\n",
		r.App, r.AllMeasured, Unit[r.App], r.SingleDevice, r.SingleMeasured, r.Speedup)
}
