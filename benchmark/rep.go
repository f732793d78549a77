package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	pando "pando"
	"pando/internal/netsim"
	"pando/internal/worker"
)

// A rep is one complete deployment: build it, admit the fleet, stream
// the inputs through Process, check every output, tear it down. Every
// rep starts from nothing so that no state — credit windows, intern
// tables, journal — carries from one measurement into the next.

// defaultWatchdog bounds one rep. A deployment whose volunteers all
// crashed waits forever; the watchdog turns that into a count of failed
// items.
const defaultWatchdog = 60 * time.Second

type repConfig struct {
	seed   uint64
	items  int     // items streamed by this rep
	trace  *tracer // nil for the measured reps: no shim is installed at all
	outDir string
	label  string // names the rep in watchdog dumps
	// watchdog overrides defaultWatchdog when positive (tests shorten it).
	watchdog time.Duration
}

type repResult struct {
	items     int
	emitted   int
	failed    int    // missing + wrong + duplicated + out-of-order + not emitted at the watchdog
	problem   string // first correctness or cross-check failure, empty when the rep is sound
	hung      bool   // the watchdog fired
	admit     time.Duration
	wall      time.Duration // first input offered -> output channel closed
	cpu       time.Duration // getrusage user+sys over the same interval
	mallocs   uint64
	peakRSS   float64 // MiB, high-water mark since the rep's clocks started
	wireBytes int64
	first     time.Duration // first input offered -> first output
	lifetime  time.Duration // pando.New -> deployment closed, verification excluded
	latencies []int64       // ns, taken -> emitted, in input order

	statsItems   int     // sum of Stats().Items: the paper's §5.1 cross-check
	processed    int     // sum of Volunteer.Processed()
	journalBytes int64   // size of the checkpoint files, 0 without a journal
	goroutines   float64 // goroutines per volunteer at mid-stream (traced rep only)
	lost         int     // volunteers that left mid-stream for another reason than their scheduled crash
	lostWhy      string  // the first such volunteer's error
}

func (w *workload[I, O]) codecs() (pando.Codec[I], pando.Codec[O]) {
	in, out := w.in, w.out
	if in == nil {
		in = pando.JSONCodec[I]{}
	}
	if out == nil {
		out = pando.JSONCodec[O]{}
	}
	return in, out
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's resident-set high-water mark for
// this process (Linux: "5" into clear_refs), so that each rep reports its
// own peak and the run can take their median. Where the kernel refuses,
// the mark simply keeps rising and peakRSSMB reads like ru_maxrss.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the resident-set high-water mark (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

func (w *workload[I, O]) rep(cfg repConfig) repResult {
	n := cfg.items
	res := repResult{items: n}
	tr := cfg.trace
	watchdog := defaultWatchdog
	if cfg.watchdog > 0 {
		watchdog = cfg.watchdog
	}

	dir, err := os.MkdirTemp(cfg.outDir, "rep-")
	if err != nil {
		res.failed, res.problem = n, "temp dir: "+err.Error()
		return res
	}
	defer os.RemoveAll(dir)

	// The codecs are always named explicitly (the JSON pair is what the
	// library would default to), so the traced rep differs from a measured
	// one only by the shims around them.
	in, out := w.codecs()
	kernel := w.kernel
	masterIn, masterOut := in, out
	if tr != nil {
		masterIn = &tracedCodec[I]{inner: in, key: w.inKey, onEncode: tr.masterEncoded}
		masterOut = &tracedCodec[O]{inner: out, key: w.outKey, onDecode: tr.masterDecoded}
	}
	opts := []pando.Option{pando.WithoutRegistry(), pando.WithCodec[I, O](masterIn, masterOut)}
	if w.opts != nil {
		opts = append(opts, w.opts(dir)...)
	}

	goroutines0 := runtime.NumGoroutine()
	built := time.Now()
	p := pando.New(w.name, kernel, opts...)
	ln := netsim.NewListener(w.name, w.fleet.link)
	var acc pando.Acceptor = ln
	if tr != nil {
		acc = tracedAcceptor{Acceptor: ln, stats: &tr.masterConn}
	}
	served := make(chan struct{})
	go func() {
		_ = p.ServeWS(acc)
		close(served)
	}()

	var (
		vmu       sync.Mutex
		vols      []*worker.Volunteer
		wg        sync.WaitGroup
		streaming atomic.Bool // true while outputs are being consumed
		lost      int         // under vmu, like vols
		lostWhy   string
	)
	join := func(k int) error {
		conn, _, err := ln.Dial()
		if err != nil {
			return err
		}
		handler := pando.CodecHandler(kernel, in, out)
		if tr != nil {
			vt := tr.volunteer(k)
			conn = &tracedConn{Conn: conn, stats: &tr.volConn}
			handler = pando.CodecHandler(
				func(v I) (O, error) {
					start := stamp()
					r, err := kernel(v)
					vt.kernelRan(start, stamp())
					return r, err
				},
				&tracedCodec[I]{inner: in, key: w.inKey, onDecode: vt.decoded},
				&tracedCodec[O]{inner: out, key: w.outKey, onEncode: vt.encoded},
			)
		}
		v := &worker.Volunteer{
			Name:       fmt.Sprintf("v%02d", k),
			Handler:    handler,
			Channel:    w.fleet.channel,
			Delay:      w.fleet.delay,
			CrashAfter: w.fleet.crashAfter(cfg.seed, k),
			Functions:  []string{w.name},
		}
		vmu.Lock()
		vols = append(vols, v)
		vmu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := v.JoinWS(conn)
			switch {
			case errors.Is(err, worker.ErrCrashed):
				if tr != nil {
					tr.crashed(k)
				}
			case streaming.Load():
				// Not a scheduled crash: the deployment lost a volunteer
				// (a heartbeat timeout, typically), so the rep did not run
				// the workload as defined.
				vmu.Lock()
				if lost++; lost == 1 {
					lostWhy = fmt.Sprintf("%s: %v", v.Name, err)
				}
				vmu.Unlock()
			}
		}()
		return nil
	}
	teardown := func() {
		p.Close()
		ln.Close()
		wg.Wait()
		<-served
	}

	for k := 0; k < w.fleet.n; k++ {
		if err := join(k); err != nil {
			res.failed, res.problem = n, "dial: "+err.Error()
			teardown()
			return res
		}
	}
	for admitBy := built.Add(watchdog); len(p.Stats()) < w.fleet.n; {
		if time.Now().After(admitBy) {
			res.failed, res.problem, res.hung = n, "fleet never admitted", true
			dumpStacks(cfg.outDir, w.name, cfg.label)
			go teardown()
			return res
		}
		time.Sleep(50 * time.Microsecond)
	}
	res.admit = time.Since(built)

	// The measured interval starts here.
	got := make([]uint64, n)
	taken := make([]atomic.Int64, n)
	res.latencies = make([]int64, 0, n)
	runtime.GC()
	resetPeakRSS()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inputs := make(chan I)
	if tr != nil {
		tr.begin()
	}
	start := time.Now()
	go func() {
		defer close(inputs)
		for i := 0; i < n; i++ {
			v := w.gen(cfg.seed, i)
			if tr != nil {
				tr.offered(i, w.inKey(v))
			}
			select {
			case inputs <- v:
				taken[i].Store(int64(time.Since(start)))
			case <-ctx.Done():
				return
			}
		}
	}()
	outs, errs := p.Process(ctx, inputs)
	streaming.Store(true)

	deadline := time.NewTimer(watchdog)
	defer deadline.Stop()
	count, joined, hung := 0, 0, false
consume:
	for {
		select {
		case v, ok := <-outs:
			if !ok {
				break consume
			}
			at := int64(time.Since(start))
			if count < n {
				got[count] = w.outKey(v)
				t := taken[count].Load()
				for spin := 0; t == 0 && spin < 1000; spin++ {
					// The feeder was descheduled between its send and its
					// stamp; let it finish.
					runtime.Gosched()
					t = taken[count].Load()
				}
				if t == 0 {
					t = at
				}
				res.latencies = append(res.latencies, at-t)
				if tr != nil {
					tr.emitted(count, t, at)
				}
			}
			if count == 0 {
				res.first = time.Duration(at)
			}
			count++
			for joined < w.fleet.joinsDue(count) {
				if err := join(w.fleet.n + joined); err != nil && res.problem == "" {
					res.problem = "mid-stream dial: " + err.Error()
				}
				joined++
			}
			if tr != nil && count == n/2 {
				vmu.Lock()
				res.goroutines = float64(runtime.NumGoroutine()-goroutines0) / float64(len(vols))
				vmu.Unlock()
			}
		case <-deadline.C:
			hung = true
			dumpStacks(cfg.outDir, w.name, cfg.label)
			cancel()
			break consume
		}
	}
	res.wall = time.Since(start)
	streaming.Store(false)
	vmu.Lock()
	res.lost, res.lostWhy = lost, lostWhy
	vmu.Unlock()
	res.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	res.mallocs = ms1.Mallocs - ms0.Mallocs
	res.peakRSS = peakRSSMB()
	res.emitted = count
	toMaster, toVolunteers := ln.Bytes()
	res.wireBytes = toMaster + toVolunteers

	if hung {
		res.hung = true
		res.failed = n - min(count, n)
		res.problem = fmt.Sprintf("watchdog: %d of %d items not emitted after %v", res.failed, n, watchdog)
		// A hung deployment may not close either; do not wait for it.
		go teardown()
		return res
	}
	if err := <-errs; err != nil && res.problem == "" {
		res.problem = "process: " + err.Error()
	}
	for _, s := range p.Stats() {
		res.statsItems += s.Items
	}
	teardown()
	res.lifetime = time.Since(built)
	for _, v := range vols {
		res.processed += v.Processed()
	}
	if tr != nil {
		tr.finish(vols)
	}
	res.journalBytes = dirSize(dir)

	// Correctness gate, after every clock has stopped: exactly once, in
	// input order, each value equal to the regenerated expectation; then
	// the paper's §5.1 cross-check, the devices' total against the output.
	res.failed = w.verify(cfg.seed, got, count, n)
	if res.failed > 0 && res.problem == "" {
		res.problem = fmt.Sprintf("%d of %d outputs missing, wrong, duplicated or out of order", res.failed, n)
	}
	if res.statsItems != count && res.problem == "" {
		res.problem = fmt.Sprintf("cross-check: devices report %d items, output has %d", res.statsItems, count)
	}
	return res
}

// verify counts the outputs that are not what an in-order, exactly-once
// map would have emitted: a wrong key at position i (wrong value,
// duplicate or reordering all show up as that), every missing position,
// and every output beyond the input count.
func (w *workload[I, O]) verify(seed uint64, got []uint64, count, n int) int {
	w.expect(seed, n)
	failed := 0
	for i := 0; i < min(count, n); i++ {
		if got[i] != w.expected[i] {
			failed++
		}
	}
	if count < n {
		failed += n - count
	} else {
		failed += count - n
	}
	return failed
}

// expect fills expected[0:n] by running the kernel on the regenerated
// inputs, on every core: it runs between reps, outside every clock.
func (w *workload[I, O]) expect(seed uint64, n int) {
	if w.expected == nil || w.expSeed != seed {
		w.expSeed = seed
		w.expected = make([]uint64, w.items)
		w.expHave = make([]bool, w.items)
	}
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < n; i += workers {
				if w.expHave[i] {
					continue
				}
				r, err := w.kernel(w.gen(seed, i))
				if err != nil {
					panic(fmt.Sprintf("%s: kernel failed on generated input %d: %v", w.name, i, err))
				}
				w.expected[i], w.expHave[i] = w.outKey(r), true
			}
		}()
	}
	wg.Wait()
}

func dirSize(dir string) int64 {
	var total int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}

// dumpStacks writes every goroutine's stack next to the traces, so a
// hang leaves evidence instead of a stuck pipeline.
func dumpStacks(outDir, workload, label string) {
	path := filepath.Join(outDir, fmt.Sprintf("%s.%s.watchdog.txt", workload, label))
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "watchdog: cannot write stacks:", err)
		return
	}
	defer f.Close()
	_ = pprof.Lookup("goroutine").WriteTo(f, 2)
	fmt.Fprintln(os.Stderr, "watchdog: goroutine stacks written to", path)
}
