// Command benchmark is this repository's one benchmark: four named
// workloads, the end-to-end metrics a user of Pando sees on each of them,
// a ladder that times every layer alone, and one traced rep per workload
// whose spans are recorded from this directory's own shims. README.md
// defines every metric and says why each workload exists.
//
// The driver runs one workload per process:
//
//	bash benchmark/run.sh --workload collatz-small --seed 1 --seconds 18 --trace 0
//
// Without --workload the program runs the whole suite, re-executing
// itself once per workload so each gets a fresh process and its own
// memory high-water mark; -ladder runs the ladder alone; -selfcheck runs the suite
// twice and compares the two against the bounds in BENCHMARK.json.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

const (
	defaultSeed    = 1
	secondSeed     = 20190 // the documented second seed: check a claim on inputs it was not tuned on
	defaultSeconds = 18
	firstSetups    = 2 // set-up cycles before the first measured rep; one more precedes every measured rep
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the last line of standard output, the contract with the
// driver.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// environment is stamped into every result file.
type environment struct {
	Seed       uint64  `json:"seed"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CalibNs    float64 `json:"bench.calib_ns"`
}

// report is out/<workload>.result.json: everything one run measured.
type report struct {
	Workload  string      `json:"workload"`
	Env       environment `json:"env"`
	Reps      int         `json:"measured_reps"`
	Samples   int         `json:"latency_samples"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	ErrorRate float64     `json:"error_rate"`
	Problems  []string    `json:"problems,omitempty"`
	// VolunteersLost counts volunteers that left mid-stream for another
	// reason than a scheduled crash. Pando recovers from it, so it is not a
	// failure, but a rep it happened in did not run the workload as defined.
	VolunteersLost int                `json:"volunteers_lost"`
	EndToEnd       map[string]float64 `json:"end_to_end"`
	PerLayer       map[string]float64 `json:"per_layer,omitempty"`
	Stages         []stageSummary     `json:"stages,omitempty"`
	RepDetail      []repDetail        `json:"rep_detail"`
}

// repDetail is one measured rep; the end-to-end metrics are medians of
// these.
type repDetail struct {
	ItemsPerS         float64 `json:"items_per_s"`
	CPUUsPerItem      float64 `json:"cpu_us_per_item"`
	AllocsPerItem     float64 `json:"allocs_per_item"`
	WireBytesPerItem  float64 `json:"wire_bytes_per_item"`
	PeakRSSMB         float64 `json:"peak_rss_mb"`
	FirstResultMs     float64 `json:"first_result_ms"`
	AdmitMs           float64 `json:"admit_ms"`
	WorkAmplification float64 `json:"work_amplification"`
}

func main() {
	initLadder()
	workload := flag.String("workload", "", "run one workload in this process: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", defaultSeed, fmt.Sprintf("workload seed: inputs, crash thresholds (the documented second seed is %d)", secondSeed))
	seconds := flag.Int("seconds", defaultSeconds, "how long the measured reps of one workload run")
	trace := flag.Int("trace", 0, "1: also run the traced rep and the ladder, and print the per-layer metrics")
	ladder := flag.Bool("ladder", false, "run the layer ladder alone")
	selfcheck := flag.Bool("selfcheck", false, "run the suite twice and compare the two against the bounds in BENCHMARK.json")
	skipLadder := flag.Bool("skip-ladder", false, "with -trace 1: leave the ladder out (the suite runs it once itself)")
	spinner := flag.Bool("spin", false, "internal: be an idle-priority spinner until standard input closes (awake.go)")
	flag.Parse()
	if *spinner {
		spin()
	}

	outDir, err := ensureOutDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	switch {
	case *ladder:
		res, err := runLadder(outDir)
		printMetrics("ladder", ladderMetrics, res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: ladder:", err)
			os.Exit(1)
		}
	case *selfcheck:
		os.Exit(runSelfcheck(*seed, *seconds, outDir))
	case *workload != "":
		os.Exit(runWorkload(*workload, *seed, *seconds, *trace == 1, *skipLadder, outDir))
	default:
		os.Exit(runSuite(*seed, *seconds, outDir))
	}
}

// benchDir is this directory as seen from the working directory: the
// program is started either from the repository root (run.sh) or from
// here (go run .).
func benchDir() string {
	if _, err := os.Stat(filepath.Join("benchmark", "go.mod")); err == nil {
		return "benchmark"
	}
	return "."
}

func ensureOutDir() (string, error) {
	dir := filepath.Join(benchDir(), "out")
	return dir, os.MkdirAll(dir, 0o755)
}

func stampEnvironment(seed uint64) environment {
	env := environment{
		Seed:       seed,
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CalibNs:    calibrate(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return env
}

// runWorkload is the per-process protocol: set-up cycles (each a full
// deployment with a warm-up rep, discarded) before and between measured
// reps, which run with tracing off until --seconds of measured time have
// passed; then, with tracing requested, one traced rep and the ladder.
func runWorkload(name string, seed uint64, seconds int, traced, skipLadder bool, outDir string) int {
	w := newRunner(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", name, strings.Join(workloadNames, ", "))
		return 2
	}
	release, err := settle(w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	defer release()
	rep := report{Workload: name, Env: stampEnvironment(seed), EndToEnd: map[string]float64{}}
	// A deployment that hung once will hang again: after the watchdog has
	// fired the workload runs no further rep, so a hang costs one watchdog
	// period and the remaining workloads still run.
	hung := false
	note := func(kind string, r repResult) {
		rep.Attempted += r.items
		rep.Failed += r.failed
		hung = hung || r.hung
		if r.problem != "" {
			rep.Problems = append(rep.Problems, kind+": "+r.problem)
		}
		fmt.Fprintf(os.Stderr, "%s %-8s %6d items  %6d emitted  wall %6.2fs  failed %d\n",
			name, kind, r.items, r.emitted, r.wall.Seconds(), r.failed)
		if r.lost > 0 {
			rep.VolunteersLost += r.lost
			fmt.Fprintf(os.Stderr, "%s %-8s lost %d volunteers mid-stream, first %s\n", name, kind, r.lost, r.lostWhy)
		}
	}

	// Set-up cycles are spread over the whole run, one before every
	// measured rep, so that setup_s sees the same stretch of host weather
	// as the other metrics instead of its first two seconds.
	var setups []float64
	setup := func() {
		r := w.rep(repConfig{seed: seed, items: w.Items() / warmupFrac, outDir: outDir, label: fmt.Sprintf("setup%d", len(setups))})
		note("warm-up", r)
		setups = append(setups, r.lifetime.Seconds())
	}
	for c := 0; c < firstSetups && !hung; c++ {
		setup()
	}

	var latencies []int64
	var measured time.Duration
	for measured < time.Duration(seconds)*time.Second && !hung {
		if setup(); hung {
			break
		}
		r := w.rep(repConfig{seed: seed, items: w.Items(), outDir: outDir, label: fmt.Sprintf("rep%d", rep.Reps)})
		note("measured", r)
		rep.Reps++
		measured += r.wall
		if r.emitted == 0 {
			break // a rep that emitted nothing has no rates; the failure is already counted
		}
		items := float64(r.emitted)
		rep.RepDetail = append(rep.RepDetail, repDetail{
			ItemsPerS:         items / r.wall.Seconds(),
			CPUUsPerItem:      float64(r.cpu.Microseconds()) / items,
			AllocsPerItem:     float64(r.mallocs) / items,
			WireBytesPerItem:  float64(r.wireBytes) / items,
			PeakRSSMB:         r.peakRSS,
			FirstResultMs:     ms(float64(r.first)),
			AdmitMs:           ms(float64(r.admit)),
			WorkAmplification: float64(r.processed) / items,
		})
		latencies = append(latencies, r.latencies...)
	}
	medianOf := func(field func(repDetail) float64) float64 {
		xs := make([]float64, len(rep.RepDetail))
		for i, d := range rep.RepDetail {
			xs[i] = field(d)
		}
		return median(xs)
	}
	p50 := percentile(latencies, 50)
	p99 := percentile(latencies, 99)
	rep.Samples = p50.N
	rep.EndToEnd["items_per_s"] = medianOf(func(d repDetail) float64 { return d.ItemsPerS })
	rep.EndToEnd["item_latency_p50_ms"] = ms(p50.V)
	rep.EndToEnd["cpu_us_per_item"] = medianOf(func(d repDetail) float64 { return d.CPUUsPerItem })
	rep.EndToEnd["allocs_per_item"] = medianOf(func(d repDetail) float64 { return d.AllocsPerItem })
	rep.EndToEnd["wire_bytes_per_item"] = medianOf(func(d repDetail) float64 { return d.WireBytesPerItem })
	rep.EndToEnd["peak_rss_mb"] = medianOf(func(d repDetail) float64 { return d.PeakRSSMB })
	rep.EndToEnd["setup_s"] = median(setups)

	if traced && !hung {
		rep.PerLayer = map[string]float64{}
		t := newTracer(w.Items(), w.Repeats())
		r := w.rep(repConfig{seed: seed, items: w.Items(), trace: t, outDir: outDir, label: "traced"})
		note("traced", r)
		a := w.analyzeTrace(t, r, seed, filepath.Join(outDir, name+".trace.json"))
		for k, v := range a.metrics {
			rep.PerLayer[k] = v
		}
		rep.Stages = a.stages
		rep.PerLayer["pando.first_result_ms"] = medianOf(func(d repDetail) float64 { return d.FirstResultMs })
		rep.PerLayer["pando.item_latency_p99_ms"] = ms(p99.V)
		if r.wall > 0 && rep.EndToEnd["items_per_s"] > 0 {
			tracedIPS := float64(r.emitted) / r.wall.Seconds()
			rep.PerLayer["trace.overhead_pct"] = 100 * (1 - tracedIPS/rep.EndToEnd["items_per_s"])
		}
		if !skipLadder {
			release() // the ladder times each layer alone, on every workload under the same conditions
			lad, err := runLadder(outDir)
			if err != nil {
				rep.Problems = append(rep.Problems, "ladder: "+err.Error())
			}
			for k, v := range lad {
				rep.PerLayer[k] = v
			}
		}
		printStages(name, a)
	}
	if rep.Attempted > 0 {
		rep.ErrorRate = float64(rep.Failed) / float64(rep.Attempted)
	}

	fmt.Printf("%s  seed %d  %d measured reps  latency over %d samples  error_rate %g (%d of %d)\n",
		name, seed, rep.Reps, rep.Samples, rep.ErrorRate, rep.Failed, rep.Attempted)
	printMetrics(name, endToEnd, rep.EndToEnd)
	line := driverLine{
		Correct:   rep.Failed == 0 && len(rep.Problems) == 0,
		Attempted: max(rep.Attempted, 1),
		Failed:    rep.Failed,
		Metrics:   map[string]metricValue{},
	}
	defs, values := endToEnd, rep.EndToEnd
	if traced && !hung {
		defs, values = perLayer(), rep.PerLayer
		if skipLadder {
			defs = tracedMetrics
		}
		printMetrics(name, defs, values)
	}
	for _, d := range defs {
		line.Metrics[d.name] = metricValue{values[d.name], d.unit}
	}
	for _, p := range rep.Problems {
		fmt.Fprintln(os.Stderr, "benchmark: "+name+": "+p)
	}
	if data, err := json.MarshalIndent(rep, "", "  "); err == nil {
		_ = os.WriteFile(filepath.Join(outDir, name+".result.json"), data, 0o644)
	}
	out, _ := json.Marshal(line)
	fmt.Println(string(out))
	if !line.Correct {
		return 1
	}
	return 0
}

// analyzeTrace is the typed half of trace analysis: it needs the
// expected output keys, which only the workload can regenerate.
func (w *workload[I, O]) analyzeTrace(t *tracer, r repResult, seed uint64, path string) *analysis {
	w.expect(seed, w.items)
	rec := reconstruct(t, r.emitted, w.expected)
	a := analyze(t, r, rec, w.fleet)
	tf := &traceFile{
		Workload: w.name, Seed: seed, Items: t.items,
		Stages: a.stages, StageMeanSumUs: a.sumUs, MeanLatencyUs: a.meanUs, Metrics: a.metrics,
		MasterConns: t.masterConn.summary(), VolunteerConns: t.volConn.summary(),
	}
	if err := writeTrace(path, tf, t, rec); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: writing trace:", err)
	}
	return a
}

func printMetrics(scope string, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		fmt.Printf("%-18s %-34s %14.4f %-6s (%s is better)\n", scope, d.name, values[d.name], d.unit, better(d.higher))
	}
}

// printStages prints where an item's time goes: the stages partition
// taken -> emitted, so their means must add up to the mean latency.
func printStages(scope string, a *analysis) {
	fmt.Printf("%s  traced rep, stages from taken to emitted:\n", scope)
	for _, s := range a.stages {
		fmt.Printf("  %-24s p50 %12.1f us   p99 %12.1f us   mean %12.1f us   n %d\n", s.Name, s.P50us, s.P99us, s.MeanUs, s.N)
	}
	fmt.Printf("  %-24s %56.1f us\n", "sum of stage means", a.sumUs)
	fmt.Printf("  %-24s %56.1f us   (unaccounted %.3f%%)\n", "mean item latency", a.meanUs, a.metrics["trace.unaccounted_pct"])
}

// child re-executes this binary for one workload and returns its report.
func child(name string, seed uint64, seconds int, traced bool, outDir string) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds)}
	if traced {
		args = append(args, "-trace", "1", "-skip-ladder")
	}
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr // the suite prints its own summary on stdout
	runErr := cmd.Run()
	data, err := os.ReadFile(filepath.Join(outDir, name+".result.json"))
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", name, runErr)
		}
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// runSuite runs every workload in its own process, then the ladder, and
// prints every metric by name with unit, direction and bound.
func runSuite(seed uint64, seconds int, outDir string) int {
	bounds := readBounds()
	reports := map[string]*report{}
	code := 0
	for _, name := range workloadNames {
		rep, err := child(name, seed, seconds, true, outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			code = 1
			continue
		}
		if rep.Failed > 0 || len(rep.Problems) > 0 {
			code = 1
		}
		reports[name] = rep
	}
	for _, name := range workloadNames {
		if rep := reports[name]; rep != nil {
			env := rep.Env
			fmt.Printf("environment: seed %d  commit %s  %s  %q  nproc %d  GOMAXPROCS %d  bench.calib_ns %.1f\n",
				env.Seed, env.Commit, env.GoVersion, env.CPU, env.NumCPU, env.GOMAXPROCS, env.CalibNs)
			break
		}
	}
	header := fmt.Sprintf("%-34s %-6s %-7s %-6s", "metric", "unit", "better", "bound")
	for _, name := range workloadNames {
		header += fmt.Sprintf(" %16s", name)
	}
	fmt.Println("\nend-to-end (median of the measured reps)")
	fmt.Println(header)
	row := func(d metricDef, bound string, get func(*report) (float64, bool)) {
		line := fmt.Sprintf("%-34s %-6s %-7s %-6s", d.name, d.unit, better(d.higher), bound)
		for _, name := range workloadNames {
			if rep := reports[name]; rep != nil {
				if v, ok := get(rep); ok {
					line += fmt.Sprintf(" %16.4f", v)
					continue
				}
			}
			line += fmt.Sprintf(" %16s", "-")
		}
		fmt.Println(line)
	}
	for _, d := range endToEnd {
		row(d, fmt.Sprintf("%.0f%%", 100*bounds[d.name]), func(r *report) (float64, bool) { v, ok := r.EndToEnd[d.name]; return v, ok })
	}
	row(metricDef{"error_rate", "ratio", false}, "0", func(r *report) (float64, bool) { return r.ErrorRate, true })

	fmt.Println("\nper layer, traced rep (spans recorded by the benchmark's shims)")
	fmt.Println(header)
	for _, d := range tracedMetrics {
		row(d, "-", func(r *report) (float64, bool) { v, ok := r.PerLayer[d.name]; return v, ok })
	}
	fmt.Println("\nper layer, ladder (each layer alone)")
	lad, err := runLadder(outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: ladder:", err)
		code = 1
	}
	printMetrics("ladder", ladderMetrics, lad)
	return code
}

type benchmarkJSON struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readBounds takes the regression bounds from BENCHMARK.json, which is
// next to this directory.
func readBounds() map[string]float64 {
	bounds := map[string]float64{}
	data, err := os.ReadFile(filepath.Join(benchDir(), "..", "BENCHMARK.json"))
	if err != nil {
		return bounds
	}
	var b benchmarkJSON
	if json.Unmarshal(data, &b) == nil {
		for _, m := range b.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	return bounds
}

// runSelfcheck runs the suite's untraced half twice and fails if the two
// disagree on any end-to-end metric by more than its bound.
func runSelfcheck(seed uint64, seconds int, outDir string) int {
	bounds := readBounds()
	if len(bounds) == 0 {
		fmt.Fprintln(os.Stderr, "benchmark: selfcheck: BENCHMARK.json not found")
		return 2
	}
	var runs [2]map[string]*report
	for i := range runs {
		runs[i] = map[string]*report{}
		for _, name := range workloadNames {
			rep, err := child(name, seed, seconds, false, outDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			runs[i][name] = rep
		}
	}
	code := 0
	fmt.Printf("%-18s %-22s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, name := range workloadNames {
		a, b := runs[0][name], runs[1][name]
		for _, d := range endToEnd {
			x, y := a.EndToEnd[d.name], b.EndToEnd[d.name]
			diff := relDiff(x, y)
			verdict := ""
			if diff > bounds[d.name] || -diff > bounds[d.name] {
				verdict, code = "  DISAGREE", 1
			}
			fmt.Printf("%-18s %-22s %14.4f %14.4f %+8.2f%% %6.0f%%%s\n", name, d.name, x, y, 100*diff, 100*bounds[d.name], verdict)
		}
		if a.Failed+b.Failed > 0 {
			fmt.Printf("%-18s %-22s %14d %14d   must be 0  DISAGREE\n", name, "failed items", a.Failed, b.Failed)
			code = 1
		}
	}
	return code
}

// quickCalib is bench.calib_ns without the testing machinery: a fixed
// SHA-256 spin, so host drift is visible next to every result.
func calibrate() float64 {
	buf := make([]byte, 4096)
	const rounds = 5
	samples := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		const n = 2000
		start := time.Now()
		for i := 0; i < n; i++ {
			sum := sha256.Sum256(buf)
			buf[0] = sum[0]
		}
		samples = append(samples, float64(time.Since(start).Nanoseconds())/n)
	}
	sort.Float64s(samples)
	return samples[0]
}
