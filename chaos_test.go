package pando_test

// Whole-stack deterministic chaos suite: every scenario — fleet size,
// device speeds, link profiles, which faults fire when and against whom,
// whether the master is killed and where — derives from one int64 seed.
// A randomized CI run prints its seeds; any failure reproduces exactly
// with
//
//	go test -run TestChaos -chaos.seed=<N>
//
// Faults are drawn from the full combined menu (churn, permanent crashes,
// link flaps and partitions, asymmetric degradation, byte-level
// corruption on the wire, master kill+restart over the checkpoint
// journal, signalling-relay flaps during the WebRTC-like bootstrap), and
// every run must preserve the paper's §2.3/§4 guarantees:
// exactly-once in-order output, journal-resume byte identity, no stale
// fleet leases, and no leaked goroutines (which, in the simulated
// network, covers sockets too).

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	pando "pando"
	"pando/internal/chaos"
	"pando/internal/netsim"
	"pando/internal/transport"
	"pando/internal/worker"
)

var (
	chaosSeed = flag.Int64("chaos.seed", 0,
		"replay exactly one chaos scenario with this seed (0: fresh random seeds)")
	chaosRuns = flag.Int("chaos.runs", 3,
		"number of random seeds per chaos test when -chaos.seed is unset")
	chaosItems = flag.Int("chaos.items", 160,
		"stream length of the checkpointed chaos job")
)

// chaosCorpus pins, per test, seeds that earlier randomized runs drew and
// passed. They replay on every run under their `seed=N` names beside the
// fresh seeds, so each run re-checks a fixed set of scenarios as well as
// exploring new ones.
var chaosCorpus = map[string][]int64{
	"TestChaosStack":      {1792054976070251535, 1792055037792771768, 1792055063008059685},
	"TestChaosDataPlane":  {1792054975390117818, 1792055033893504269, 1792055060183857808},
	"TestChaosSignalFlap": {1792054974702395438, 1792055035386825369, 1792055061710501124},
	"TestChaosByzantine":  {1792054973397162511, 1792055031868584120, 1792055058190634789},
}

// chaosCase is one scenario of a chaos test: its subtest name and seed.
type chaosCase struct {
	name string
	seed int64
}

// chaosCases yields the scenarios for one test: the pinned -chaos.seed
// alone when set; otherwise the test's corpus seeds, named `seed=N`, then
// -chaos.runs fresh time-derived seeds, named `random/i` so that subtest
// names stay the same from run to run. Every seed is echoed through
// t.Logf so a CI log always carries the reproduction command.
func chaosCases(t *testing.T) []chaosCase {
	if *chaosSeed != 0 {
		return []chaosCase{{fmt.Sprintf("seed=%d", *chaosSeed), *chaosSeed}}
	}
	var cases []chaosCase
	for _, seed := range chaosCorpus[t.Name()] {
		cases = append(cases, chaosCase{fmt.Sprintf("seed=%d", seed), seed})
	}
	base := time.Now().UnixNano()
	for i := 0; i < *chaosRuns; i++ {
		// Spread the seeds so consecutive runs do not share low bits.
		seed := (base ^ int64(i+1)*0x5DEECE66D) & (1<<63 - 1)
		if seed == 0 {
			seed = 1
		}
		cases = append(cases, chaosCase{fmt.Sprintf("random/%d", i), seed})
	}
	return cases
}

// chaosFleet tracks every simulated pipe a scenario creates so teardown
// can sever them all before the leak check.
type chaosFleet struct {
	mu    sync.Mutex
	pipes []*netsim.Pipe
}

func (cf *chaosFleet) add(p *netsim.Pipe) {
	cf.mu.Lock()
	cf.pipes = append(cf.pipes, p)
	cf.mu.Unlock()
}

func (cf *chaosFleet) cutAll() {
	cf.mu.Lock()
	pipes := append([]*netsim.Pipe(nil), cf.pipes...)
	cf.mu.Unlock()
	for _, p := range pipes {
		p.Cut() // paused or not: a cut fails every pending call
	}
}

// collectClosed reads out until it closes, failing the test if fewer than
// want values arrive before the deadline (a wedged stream). A wedge
// leaves evidence in the test log: every goroutine's stack, and whatever
// the evidence functions render (a deployment's Diagnostics).
func collectClosed[T any](t *testing.T, out <-chan T, want int, deadline time.Duration, what string, evidence ...func() string) []T {
	t.Helper()
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	var got []T
	for {
		select {
		case v, ok := <-out:
			if !ok {
				return got
			}
			got = append(got, v)
		case <-timer.C:
			for _, ev := range evidence {
				t.Logf("%s wedged, state:\n%s", what, ev())
			}
			stacks := make([]byte, 4<<20)
			t.Logf("%s wedged, goroutines:\n%s", what, stacks[:runtime.Stack(stacks, true)])
			t.Fatalf("%s wedged: %d/%d outputs after %v", what, len(got), want, deadline)
		}
	}
}

// collectN reads exactly n values from out (the stream stays open).
func collectN[T any](t *testing.T, out <-chan T, n int, deadline time.Duration, what string) []T {
	t.Helper()
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	got := make([]T, 0, n)
	for len(got) < n {
		select {
		case v, ok := <-out:
			if !ok {
				t.Fatalf("%s closed after %d/%d outputs", what, len(got), n)
			}
			got = append(got, v)
		case <-timer.C:
			t.Fatalf("%s wedged: %d/%d outputs after %v", what, len(got), n, deadline)
		}
	}
	return got
}

// TestChaosStack drives a shared pool with two typed jobs (one
// checkpointed with adaptive flow control and speculation) and a seeded
// schedule of combined faults.
func TestChaosStack(t *testing.T) {
	for _, c := range chaosCases(t) {
		t.Run(c.name, func(t *testing.T) {
			runChaosStack(t, c.seed)
		})
	}
}

func runChaosStack(t *testing.T, seed int64) {
	t.Logf("chaos: seed %d (reproduce: go test -run 'TestChaosStack' -chaos.seed=%d)", seed, seed)
	r := chaos.New(seed)
	guard := chaos.Guard()
	n := *chaosItems
	if n < 20 {
		// The kill branch consumes a n/5-based prefix and the invariants
		// need a few results per worker to mean anything; clamp rather
		// than panic on a tiny -chaos.items replay.
		n = 20
	}

	fA := func(v int) (int, error) { return v*v + 3, nil }
	wantA := func(i int) int { return i*i + 3 }
	fB := func(s string) (string, error) {
		time.Sleep(200 * time.Microsecond)
		return s + "-ok", nil
	}
	nameA := integName("chaos-sq")
	nameB := integName("chaos-tag")
	hb := pando.ChannelConfig{HeartbeatInterval: 20 * time.Millisecond}
	ckpt := filepath.Join(t.TempDir(), "chaos.journal")

	pool := pando.NewPool(pando.WithChannelConfig(hb), pando.WithRebalanceInterval(25*time.Millisecond))
	defer pool.Close()

	handlerA := pando.Handler(fA)
	handlerB := pando.Handler(fB)
	resolve := func(name string) (worker.Handler, bool) {
		switch name {
		case nameA:
			return handlerA, true
		case nameB:
			return handlerB, true
		}
		return nil, false
	}

	cf := &chaosFleet{}
	defer cf.cutAll()
	spawn := func(name string, link netsim.Link, delay time.Duration) *netsim.Pipe {
		v := &worker.Volunteer{
			Name:       name,
			Channel:    hb,
			Delay:      delay,
			CrashAfter: -1,
			Functions:  []string{"*"},
			Resolve:    resolve,
		}
		pipe := netsim.NewPipe(link)
		cf.add(pipe)
		go func() { _ = v.JoinWS(pipe.A) }()
		go func() { _ = pool.Fleet().Admit(transport.NewWSock(pipe.B, hb)) }()
		return pipe
	}

	// Job A also runs with a tiny memory bound and a spill segment, so
	// every chaos scenario exercises the bounded-memory reorder path —
	// out-of-order bursts page through the spill store and must still
	// come out exactly-once, in order, byte-identical across the
	// kill+restart. The spill file is transient: the restarted master
	// recreates it from scratch (durability is the checkpoint's job).
	spillPath := filepath.Join(t.TempDir(), "chaos.spill")
	mapA := func() *pando.Pando[int, int] {
		return pando.Map(pool, nameA, fA,
			pando.WithAdaptiveLimit(1, 8),
			pando.WithSpeculation(2.0),
			pando.WithCheckpoint(ckpt), pando.WithResume(), pando.WithFsyncInterval(5*time.Millisecond),
			pando.WithMemoryBound(4), pando.WithSpill(spillPath),
			pando.WithChannelConfig(hb),
			pando.WithoutRegistry())
	}
	jobB := pando.Map(pool, nameB, fB, pando.WithChannelConfig(hb), pando.WithoutRegistry())

	// --- Fleet, derived from the seed. ---
	wr := r.Fork("workers")
	nWorkers := 3 + wr.Intn(3)
	workerPipes := make([]*netsim.Pipe, nWorkers)
	workerLinks := make([]netsim.Link, nWorkers)
	for i := 0; i < nWorkers; i++ {
		link := netsim.Link{
			Latency: wr.Duration(0, 3*time.Millisecond),
			Jitter:  wr.Duration(0, 2*time.Millisecond),
			Seed:    wr.Int63() | 1,
		}
		workerLinks[i] = link
		workerPipes[i] = spawn(fmt.Sprintf("cw-%d", i+1), link, wr.Duration(3*time.Millisecond, 12*time.Millisecond))
	}

	// --- Fault schedule, derived from the seed. Worker 0 is protected
	// (liveness anchor): it never receives a lethal fault. ---
	fr := r.Fork("faults")
	sched := &chaos.Schedule{}
	const horizon = 450 * time.Millisecond
	for i := 1; i < nWorkers; i++ {
		p := workerPipes[i]
		wname := fmt.Sprintf("cw-%d", i+1)
		at := fr.Duration(20*time.Millisecond, horizon-120*time.Millisecond)
		switch fr.Intn(5) {
		case 0: // churn: crash-stop, then the device rejoins under its name
			chaos.Cut(sched, wname, p, at)
			rejoin := at + fr.Duration(40*time.Millisecond, 150*time.Millisecond)
			link, delay := workerLinks[i], fr.Duration(2*time.Millisecond, 6*time.Millisecond)
			sched.Add(rejoin, fmt.Sprintf("rejoin %s", wname), func() { spawn(wname, link, delay) })
		case 1: // transient stalls, some shorter and some longer than the heartbeat timeout
			chaos.Flap(sched, fr.Fork("flap:"+wname), wname, p,
				1+fr.Intn(2), at, 200*time.Millisecond, 10*time.Millisecond, 120*time.Millisecond)
		case 2: // the wire goes bad: drops and bit flips until the connection dies
			chaos.Corrupt(sched, fr, wname, p, fr.Bool(0.5), at)
		case 3: // asymmetric congestion, then heal
			chaos.Degrade(sched, wname, p, fr.Bool(0.5),
				fr.Duration(20*time.Millisecond, 80*time.Millisecond),
				at, fr.Duration(80*time.Millisecond, 250*time.Millisecond))
		case 4: // permanent silent crash
			chaos.Cut(sched, wname, p, at)
		}
	}
	if fr.Bool(0.5) && nWorkers > 2 {
		// A short netsplit across a random subset — held under the
		// heartbeat timeout, so it must be survived as a stall, not a
		// crash (partial synchrony, paper §2.3).
		perm := fr.Perm(nWorkers)
		cutCount := 2 + fr.Intn(nWorkers-2)
		group := make([]*netsim.Pipe, 0, cutCount)
		for _, idx := range perm[:cutCount] {
			group = append(group, workerPipes[idx])
		}
		chaos.Partition(sched, "netsplit", group,
			fr.Duration(40*time.Millisecond, horizon/2), 40*time.Millisecond)
	}
	jr := r.Fork("joiners")
	for i, extra := 0, jr.Intn(3); i < extra; i++ {
		name := fmt.Sprintf("late-%d", i+1)
		at := jr.Duration(60*time.Millisecond, horizon)
		delay := jr.Duration(2*time.Millisecond, 6*time.Millisecond)
		sched.Add(at, fmt.Sprintf("join %s", name), func() { spawn(name, netsim.Loopback, delay) })
	}
	// Reinforcements: fresh reliable devices near the horizon guarantee
	// liveness no matter what the faults above removed.
	sched.Add(horizon, "reinforce fleet", func() {
		spawn("reinforce-1", netsim.Loopback, 0)
		spawn("reinforce-2", netsim.Loopback, 0)
	})

	t.Logf("chaos: %d workers, %d scheduled events:\n%s",
		nWorkers, sched.Len(), strings.Join(sched.Describe(), "\n"))

	stopSched := make(chan struct{})
	schedDone := make(chan struct{})
	go func() { defer close(schedDone); sched.Play(stopSched) }()
	var stopOnce sync.Once
	stopPlay := func() { stopOnce.Do(func() { close(stopSched) }); <-schedDone }
	defer stopPlay()

	// --- Job B runs for the whole scenario on the shared fleet. ---
	otherIn := make(chan string)
	stopOther := make(chan struct{})
	otherFed := make(chan int, 1)
	go func() {
		i := 0
		for {
			select {
			case otherIn <- fmt.Sprintf("s%d", i):
				i++
			case <-stopOther:
				close(otherIn)
				otherFed <- i
				return
			}
		}
	}()
	otherOutC, otherErrC := jobB.Process(context.Background(), otherIn)
	otherCollected := make(chan []string, 1)
	go func() {
		var out []string
		for s := range otherOutC {
			out = append(out, s)
		}
		otherCollected <- out
	}()

	// --- Job A: the checkpointed stream, killed mid-run on some seeds. ---
	ar := r.Fork("master")
	kill := ar.Bool(0.6)
	var got []int
	var finalA *pando.Pando[int, int]
	if kill {
		a1 := mapA()
		ctx1, cancel1 := context.WithCancel(context.Background())
		in1 := make(chan int)
		stop1 := make(chan struct{})
		go func() {
			defer close(in1)
			for i := 0; i < n; i++ {
				select {
				case in1 <- i:
				case <-stop1:
					return
				}
			}
		}()
		out1, errc1 := a1.Process(ctx1, in1)
		k := n/5 + ar.Intn(n/5)
		prefix := collectN(t, out1, k, 90*time.Second, "job A run 1")
		if err := chaos.CheckExact(prefix, k, wantA); err != nil {
			t.Fatalf("job A pre-kill prefix: %v", err)
		}
		if err := a1.Checkpoint().Sync(); err != nil {
			t.Fatal(err)
		}
		// The kill: sever the feed, abort the stream, close the master
		// mid-flight while volunteers still hold values.
		close(stop1)
		cancel1()
		collectClosed(t, out1, 0, 30*time.Second, "job A run 1 drain", a1.Diagnostics)
		<-errc1
		a1.Close()
		// The crash's torn write after the last durable record.
		garbage := make([]byte, 1+ar.Intn(12))
		for i := range garbage {
			garbage[i] = byte(ar.Intn(256))
		}
		fh, err := os.OpenFile(ckpt, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fh.Write(garbage); err != nil {
			t.Fatal(err)
		}
		fh.Close()

		// Restart over the same journal with fresh devices.
		a2 := mapA()
		finalA = a2
		spawn("post-kill-1", netsim.Loopback, 0)
		spawn("post-kill-2", netsim.Loopback, 0)
		in2 := make(chan int)
		go func() {
			defer close(in2)
			for i := 0; i < n; i++ {
				in2 <- i
			}
		}()
		out2, errc2 := a2.Process(context.Background(), in2)
		got = collectClosed(t, out2, n, 90*time.Second, "job A run 2", a2.Diagnostics)
		if err := <-errc2; err != nil {
			t.Fatalf("job A run 2 failed: %v", err)
		}
		// The synced prefix was restored, not recomputed (speculation may
		// add a few duplicate computations, hence the k/2 margin).
		if items := a2.TotalItems(); items > n-k/2 {
			t.Errorf("run 2 computed %d items; the synced %d-output prefix was not restored", items, k)
		}
	} else {
		a1 := mapA()
		finalA = a1
		in := make(chan int)
		go func() {
			defer close(in)
			for i := 0; i < n; i++ {
				in <- i
			}
		}()
		out, errc := a1.Process(context.Background(), in)
		got = collectClosed(t, out, n, 90*time.Second, "job A", a1.Diagnostics)
		if err := <-errc; err != nil {
			t.Fatalf("job A failed: %v", err)
		}
	}

	// Invariant 1: exactly-once, in-order output.
	if err := chaos.CheckExact(got, n, wantA); err != nil {
		t.Errorf("job A output: %v", err)
	}
	finalA.Close()

	// Invariant 2: journal-resume byte identity — what any future resume
	// would replay equals what an uninterrupted run emits.
	enc := transport.JSONCodec[int]{}
	if err := chaos.VerifyJournal(ckpt, n, func(i int) []byte {
		b, err := enc.Encode(wantA(i))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}); err != nil {
		t.Errorf("journal: %v", err)
	}

	// Job B survived everything: stop its feed and check its output.
	close(stopOther)
	fed := <-otherFed
	if err := <-otherErrC; err != nil {
		t.Fatalf("job B failed: %v", err)
	}
	otherOut := <-otherCollected
	if err := chaos.CheckExact(otherOut, fed, func(i int) string { return fmt.Sprintf("s%d-ok", i) }); err != nil {
		t.Errorf("job B output: %v", err)
	}
	if fed == 0 {
		t.Error("job B never processed anything on the shared fleet")
	}
	jobB.Close()

	// Invariant 3: no stale fleet leases once every job has closed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		stale := chaos.StaleLeases(pool.Workers(), func(string) bool { return false })
		if len(stale) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("stale leases after all jobs closed: %v", stale)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Invariant 4: everything unwinds — no goroutine (or simulated
	// socket) leaks once the scenario's resources are released.
	stopPlay()
	pool.Close()
	cf.cutAll()
	t.Logf("chaos: fired %d/%d events", len(sched.Fired()), sched.Len())
	if err := guard.Check(10 * time.Second); err != nil {
		t.Errorf("leak check: %v", err)
	}
}

// TestChaosDataPlane drives the '/pando/2.2.0' bandwidth-aware data
// plane — negotiated frame compression plus content-addressed payload
// dedup — through seeded blob-cache poisoning, compressed-frame wire
// corruption, and ordinary worker churn, all on one fleet. A poisoned
// cache entry must surface as a digest mismatch on its next reference
// and a corrupted compressed frame as a CRC or DEFLATE failure; both
// must degrade to crash-stop (the device is re-lent, never believed),
// so the output stays exactly-once and in order.
func TestChaosDataPlane(t *testing.T) {
	for _, c := range chaosCases(t) {
		t.Run(c.name, func(t *testing.T) {
			runChaosDataPlane(t, c.seed)
		})
	}
}

func runChaosDataPlane(t *testing.T, seed int64) {
	t.Logf("chaos: seed %d (reproduce: go test -run 'TestChaosDataPlane' -chaos.seed=%d)", seed, seed)
	r := chaos.New(seed)
	guard := chaos.Guard()
	n := *chaosItems
	if n < 40 {
		// The schedule poisons and corrupts mid-stream; a tiny replay
		// value would end the stream before any fault lands on traffic.
		n = 40
	}

	// The workload is shaped for the dedup plane: most inputs repeat one
	// large compressible tile, so once a channel has transmitted the
	// bytes every further send is a digest-only blob reference — exactly
	// the frames poisoning attacks. Every 4th input is a small unique
	// marker (below the dedup threshold) that pins global ordering: a
	// swap between identical tile outputs would be invisible to
	// CheckExact, a displaced marker is not.
	const tileBytes = 4096
	tile := make([]byte, tileBytes)
	for i := range tile {
		tile[i] = byte(i*31 + 7)
	}
	input := func(i int) []byte {
		if i%4 == 0 {
			return []byte(fmt.Sprintf("marker-%06d", i))
		}
		return tile
	}
	digest := func(b []byte) (string, error) {
		var sum uint64
		for _, c := range b {
			sum = sum*131 + uint64(c)
		}
		return fmt.Sprintf("%d:%016x", len(b), sum), nil
	}
	want := func(i int) string { s, _ := digest(input(i)); return s }

	name := integName("chaos-blob")
	hb := pando.ChannelConfig{HeartbeatInterval: 20 * time.Millisecond}
	pool := pando.NewPool(pando.WithChannelConfig(hb), pando.WithRebalanceInterval(25*time.Millisecond))
	defer pool.Close()

	handler := pando.Handler(digest)
	resolve := func(fn string) (worker.Handler, bool) {
		if fn == name {
			return handler, true
		}
		return nil, false
	}
	cf := &chaosFleet{}
	defer cf.cutAll()
	spawn := func(wname string, link netsim.Link, delay time.Duration, cacheBytes int64) (*worker.Volunteer, *netsim.Pipe) {
		v := &worker.Volunteer{
			Name:           wname,
			Channel:        hb,
			Delay:          delay,
			CrashAfter:     -1,
			Functions:      []string{"*"},
			Resolve:        resolve,
			BlobCacheBytes: cacheBytes,
		}
		pipe := netsim.NewPipe(link)
		cf.add(pipe)
		go func() { _ = v.JoinWS(pipe.A) }()
		go func() { _ = pool.Fleet().Admit(transport.NewWSock(pipe.B, hb)) }()
		return v, pipe
	}

	job := pando.Map(pool, name, digest,
		pando.WithAdaptiveLimit(1, 8),
		pando.WithChannelConfig(hb),
		pando.WithoutRegistry())
	defer job.Close()

	// --- Fleet, derived from the seed. One seeded device runs with a
	// degenerate single-entry cache, so blobmiss fetch exchanges happen
	// under fire too, not only cache hits. ---
	wr := r.Fork("workers")
	nWorkers := 4 + wr.Intn(3)
	tinyCache := 1 + wr.Intn(nWorkers-1) // never worker 0, the liveness anchor
	vols := make([]*worker.Volunteer, nWorkers)
	pipes := make([]*netsim.Pipe, nWorkers)
	links := make([]netsim.Link, nWorkers)
	for i := 0; i < nWorkers; i++ {
		link := netsim.Link{
			Latency: wr.Duration(0, 3*time.Millisecond),
			Jitter:  wr.Duration(0, 2*time.Millisecond),
			Seed:    wr.Int63() | 1,
		}
		var cache int64
		if i == tinyCache {
			cache = -1
		}
		links[i] = link
		vols[i], pipes[i] = spawn(fmt.Sprintf("bw-%d", i+1), link, wr.Duration(2*time.Millisecond, 8*time.Millisecond), cache)
	}

	// --- Fault schedule. Worker 0 is protected (liveness anchor);
	// worker 1 always takes a cache poisoning and worker 2 always takes
	// wire corruption, so every seed exercises both data-plane faults;
	// the rest draw from the combined menu. ---
	fr := r.Fork("faults")
	sched := &chaos.Schedule{}
	const horizon = 450 * time.Millisecond
	for i := 1; i < nWorkers; i++ {
		pipe := pipes[i]
		wname := fmt.Sprintf("bw-%d", i+1)
		at := fr.Duration(30*time.Millisecond, horizon-120*time.Millisecond)
		pick := fr.Intn(4)
		switch {
		case i == 1 || (i > 2 && pick == 0):
			// Seeded poisonings: one or two byte flips in the device's
			// newest cached blob, spread over the stream.
			for p, count := 0, 1+fr.Intn(2); p < count; p++ {
				chaos.Poison(sched, wname, vols[i], at+fr.Duration(0, 100*time.Millisecond))
			}
		case i == 2 || (i > 2 && pick == 1):
			// Byte flips on the wire: with '/pando/2.2.0' negotiated the
			// scrambled frames are compressed ones, so the CRC over the
			// compressed body (or DEFLATE itself) must catch them.
			chaos.Corrupt(sched, fr, wname, pipe, fr.Bool(0.5), at)
		case pick == 2:
			chaos.Cut(sched, wname, pipe, at)
			rejoin := at + fr.Duration(40*time.Millisecond, 150*time.Millisecond)
			link, delay := links[i], fr.Duration(2*time.Millisecond, 6*time.Millisecond)
			sched.Add(rejoin, fmt.Sprintf("rejoin %s", wname), func() { spawn(wname, link, delay, 0) })
		default:
			chaos.Flap(sched, fr.Fork("flap:"+wname), wname, pipe,
				1+fr.Intn(2), at, 200*time.Millisecond, 10*time.Millisecond, 120*time.Millisecond)
		}
	}
	// Reinforcements: fresh reliable devices near the horizon guarantee
	// liveness no matter which devices the faults removed.
	sched.Add(horizon, "reinforce fleet", func() {
		spawn("reinforce-1", netsim.Loopback, 0, 0)
		spawn("reinforce-2", netsim.Loopback, 0, 0)
	})
	t.Logf("chaos: %d workers (tiny cache: bw-%d), %d scheduled events:\n%s",
		nWorkers, tinyCache+1, sched.Len(), strings.Join(sched.Describe(), "\n"))

	stopSched := make(chan struct{})
	schedDone := make(chan struct{})
	go func() { defer close(schedDone); sched.Play(stopSched) }()
	var stopOnce sync.Once
	stopPlay := func() { stopOnce.Do(func() { close(stopSched) }); <-schedDone }
	defer stopPlay()

	in := make(chan []byte)
	go func() {
		defer close(in)
		for i := 0; i < n; i++ {
			in <- input(i)
		}
	}()
	out, errc := job.Process(context.Background(), in)
	got := collectClosed(t, out, n, 90*time.Second, "data-plane job", job.Diagnostics)
	if err := <-errc; err != nil {
		t.Fatalf("data-plane job failed: %v", err)
	}

	// Invariant 1: exactly-once, in-order output — poisoned caches and
	// corrupted frames crash-stopped their channels instead of leaking
	// wrong bytes into results.
	if err := chaos.CheckExact(got, n, want); err != nil {
		t.Errorf("data-plane output: %v", err)
	}

	// Invariant 2: the dedup plane was actually in the path — the tile
	// repeats across a fleet whose caps exceed one tile, so at least one
	// channel must have collapsed a repeat into a blob reference.
	hits, misses, evicts := int64(0), int64(0), int64(0)
	for _, w := range job.Stats() {
		hits += w.BlobHits
		misses += w.BlobMisses
		evicts += w.BlobEvicts
	}
	t.Logf("chaos: blob refs on the faulted run: %d hits, %d misses, %d evicts", hits, misses, evicts)
	if hits == 0 {
		t.Error("no blob-reference hits: the dedup plane never engaged under the scenario")
	}
	job.Close()

	// Invariant 3: no stale fleet leases once the job has closed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		stale := chaos.StaleLeases(pool.Workers(), func(string) bool { return false })
		if len(stale) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("stale leases after close: %v", stale)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Invariant 4: everything unwinds.
	stopPlay()
	pool.Close()
	cf.cutAll()
	t.Logf("chaos: fired %d/%d events", len(sched.Fired()), sched.Len())
	if err := guard.Check(10 * time.Second); err != nil {
		t.Errorf("leak check: %v", err)
	}
}

// TestChaosSignalFlap drives the WebRTC-like bootstrap through a flapping
// public signalling relay: a reconnecting volunteer keeps re-running the
// bootstrap while its signalling and direct connections are paused and
// cut under it. The deployment must finish with exact output, the relay
// must hold no stale peer registrations, and nothing may leak.
func TestChaosSignalFlap(t *testing.T) {
	for _, c := range chaosCases(t) {
		t.Run(c.name, func(t *testing.T) {
			runChaosSignalFlap(t, c.seed)
		})
	}
}

// trackedDialer dials a netsim listener, recording every pipe so the
// chaos schedule can flap or cut "the current connection".
type trackedDialer struct {
	ln *netsim.Listener
	cf *chaosFleet

	mu    sync.Mutex
	pipes []*netsim.Pipe
}

func (d *trackedDialer) dial(string) (net.Conn, error) {
	conn, pipe, err := d.ln.Dial()
	if err != nil {
		return nil, err
	}
	d.cf.add(pipe)
	d.mu.Lock()
	d.pipes = append(d.pipes, pipe)
	d.mu.Unlock()
	return conn, nil
}

// latest returns the most recently dialed pipe, if any.
func (d *trackedDialer) latest() *netsim.Pipe {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.pipes) == 0 {
		return nil
	}
	return d.pipes[len(d.pipes)-1]
}

func runChaosSignalFlap(t *testing.T, seed int64) {
	t.Logf("chaos: seed %d (reproduce: go test -run 'TestChaosSignalFlap' -chaos.seed=%d)", seed, seed)
	r := chaos.New(seed)
	guard := chaos.Guard()
	n := *chaosItems / 2

	f := func(v int) (int, error) { return 3*v + 1, nil }
	want := func(i int) int { return 3*i + 1 }
	name := integName("chaos-rtc")
	// The anchor and the master's relay registration are single points:
	// neither comes back once its channel is suspected. With the default
	// 3x interval (60ms) one scheduler stall on a loaded machine took both
	// at once and wedged the stream (53/80 outputs after 90s; at the parent
	// of this change a 300ms SIGSTOP reproduces it in 3 runs of 8, because
	// every stale conn deadline fires on resume). The failure detector no
	// longer has that mode — it looks for a frame before it suspects — but
	// a stall that starves the read loops alone still looks like silence,
	// so this scenario, whose crashes are cuts and whose pauses are meant
	// to be survived, takes the explicit timeout the Byzantine tier has.
	hb := pando.ChannelConfig{HeartbeatInterval: 20 * time.Millisecond, HeartbeatTimeout: 2 * time.Second}

	p := pando.New(name, f,
		pando.WithAdaptiveLimit(1, 4),
		pando.WithChannelConfig(hb),
		pando.WithoutRegistry())
	// Liveness anchor: one stable local device.
	p.AddWorker("anchor", netsim.LAN, 10*time.Millisecond, -1)

	cf := &chaosFleet{}
	defer cf.cutAll()
	link := netsim.Link{Latency: r.Fork("links").Duration(0, 2*time.Millisecond), Seed: r.Fork("links").Int63() | 1}
	signalLn := netsim.NewListener("signal", link)
	directLn := netsim.NewListener("direct", link)
	defer signalLn.Close()
	defer directLn.Close()

	server := transport.NewSignalServer()
	go server.Serve(signalLn, hb)
	defer server.Close()

	// Master side: join the relay, answer offers on the direct listener.
	masterID := integName("chaos-master")
	mConn, mPipe, err := signalLn.Dial()
	if err != nil {
		t.Fatal(err)
	}
	cf.add(mPipe)
	masterSignal := transport.NewWSock(mConn, hb)
	if err := transport.JoinSignal(masterSignal, masterID); err != nil {
		t.Fatal(err)
	}
	answerer := transport.NewRTCAnswerer(masterSignal, directLn, hb)
	defer answerer.Close()
	go p.ServeRTC(answerer)

	// Volunteer side: the full bootstrap, retried forever with backoff.
	signalDial := &trackedDialer{ln: signalLn, cf: cf}
	directDial := &trackedDialer{ln: directLn, cf: cf}
	vol := &worker.Volunteer{
		Name:       "roamer",
		Handler:    pando.Handler(f),
		Channel:    hb,
		Delay:      5 * time.Millisecond,
		CrashAfter: -1,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reconDone := make(chan struct{})
	go func() {
		defer close(reconDone)
		_ = worker.ServeWithReconnect(ctx, vol,
			worker.ReconnectConfig{InitialBackoff: 15 * time.Millisecond, MaxBackoff: 80 * time.Millisecond},
			func() error {
				conn, err := signalDial.dial("signal")
				if err != nil {
					return err
				}
				return vol.JoinRTC(transport.NewWSock(conn, hb), "roamer", masterID, directDial.dial)
			})
	}()

	// The flap schedule: pause and cut the volunteer's current signalling
	// and direct connections at seeded times.
	fr := r.Fork("faults")
	sched := &chaos.Schedule{}
	const horizon = 250 * time.Millisecond
	flaps := 2 + fr.Intn(4)
	for i := 0; i < flaps; i++ {
		at := fr.Duration(5*time.Millisecond, horizon)
		switch fr.Intn(3) {
		case 0:
			hold := fr.Duration(20*time.Millisecond, 120*time.Millisecond)
			sched.Add(at, fmt.Sprintf("pause signalling (%s)", hold.Round(time.Millisecond)), func() {
				if p := signalDial.latest(); p != nil {
					p.Pause()
					time.AfterFunc(hold, p.Resume)
				}
			})
		case 1:
			sched.Add(at, "cut signalling", func() {
				if p := signalDial.latest(); p != nil {
					p.Cut()
				}
			})
		case 2:
			sched.Add(at, "cut direct", func() {
				if p := directDial.latest(); p != nil {
					p.Cut()
				}
			})
		}
	}
	t.Logf("chaos: %d scheduled events:\n%s", sched.Len(), strings.Join(sched.Describe(), "\n"))
	stopSched := make(chan struct{})
	schedDone := make(chan struct{})
	go func() { defer close(schedDone); sched.Play(stopSched) }()
	var stopOnce sync.Once
	stopPlay := func() { stopOnce.Do(func() { close(stopSched) }); <-schedDone }
	defer stopPlay()

	inputs := make([]int, n)
	for i := range inputs {
		inputs[i] = i
	}
	in := make(chan int)
	go func() {
		defer close(in)
		for _, v := range inputs {
			in <- v
		}
	}()
	out, errc := p.Process(context.Background(), in)
	got := collectClosed(t, out, n, 90*time.Second, "rtc deployment", p.Diagnostics)
	if err := <-errc; err != nil {
		t.Fatalf("deployment failed: %v", err)
	}
	if err := chaos.CheckExact(got, n, want); err != nil {
		t.Errorf("output: %v", err)
	}
	t.Logf("chaos: roamer processed %d items across its lives; fired %d/%d events",
		vol.Processed(), len(sched.Fired()), sched.Len())

	// Teardown, then the relay must hold no stale registrations besides
	// nothing else leaking.
	cancel()
	<-reconDone
	p.Close()
	stopPlay()
	answerer.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		peers := server.Peers()
		if len(peers) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("stale signalling registrations after teardown: %v", peers)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	server.Close()
	signalLn.Close()
	directLn.Close()
	cf.cutAll()
	if err := guard.Check(10 * time.Second); err != nil {
		t.Errorf("leak check: %v", err)
	}
}

// TestChaosByzantine is the adversarial tier: a fleet whose minority
// actively LIES — fabricated results, freeloading echoes, and a
// coalition of quorum-1 colluders returning byte-identical wrong
// answers — driven against a WithVerification deployment. Crash-stop
// recovery is not enough here; only quorum voting on result digests,
// spot-check recomputation and the reputation ledger stand between the
// cheaters and the output. Every seed must end with: output
// byte-identical to an honest run, every emitted index sealed by the
// voting layer, every cheater quarantined, no honest worker expelled,
// and the usual lease/goroutine hygiene.
//
// The grouped scenario runs the same fleet with WithGroup(4): the unit of
// replication, voting and audit is then the group, whose digest covers
// the list encoding of its four results — one lie anywhere in a group
// must still lose the vote.
func TestChaosByzantine(t *testing.T) {
	for _, c := range chaosCases(t) {
		t.Run(c.name, func(t *testing.T) {
			runChaosByzantine(t, c.seed, 1)
		})
		t.Run("grouped/"+c.name, func(t *testing.T) {
			runChaosByzantine(t, c.seed, 4)
		})
	}
}

func runChaosByzantine(t *testing.T, seed int64, group int) {
	t.Logf("chaos: seed %d (reproduce: go test -run 'TestChaosByzantine' -chaos.seed=%d)", seed, seed)
	r := chaos.New(seed)
	guard := chaos.Guard()
	n := *chaosItems
	if n < 20 {
		n = 20
	}
	const k, quorum = 2, 2

	f := func(v int) (int, error) { return v*v + 3, nil }
	want := func(i int) int { return i*i + 3 }
	honest := pando.Handler(f)
	name := integName("chaos-byz")
	// This tier's crashes are pipe cuts, which fail reads at once; nothing
	// here needs a tight silence timeout, and the default 3x interval
	// (60ms) turns one scheduler stall under -race on a loaded machine into
	// the simultaneous loss of every honest volunteer — none of which
	// rejoin — wedging the vote below quorum.
	hb := pando.ChannelConfig{HeartbeatInterval: 20 * time.Millisecond, HeartbeatTimeout: 2 * time.Second}

	pool := pando.NewPool(pando.WithChannelConfig(hb), pando.WithRebalanceInterval(25*time.Millisecond))
	defer pool.Close()
	job := pando.Map(pool, name, f,
		pando.WithVerification(k, quorum),
		pando.WithSpotCheck(0.15),
		pando.WithTrustThreshold(0.9),
		pando.WithBatch(2*group),
		pando.WithGroup(group),
		pando.WithChannelConfig(hb),
		pando.WithoutRegistry())

	cf := &chaosFleet{}
	defer cf.cutAll()
	spawn := func(wname string, h worker.Handler, link netsim.Link, delay time.Duration) *netsim.Pipe {
		v := &worker.Volunteer{
			Name:       wname,
			Channel:    hb,
			Delay:      delay,
			CrashAfter: -1,
			Functions:  []string{"*"},
			Handler:    h,
		}
		pipe := netsim.NewPipe(link)
		cf.add(pipe)
		go func() { _ = v.JoinWS(pipe.A) }()
		go func() { _ = pool.Fleet().Admit(transport.NewWSock(pipe.B, hb)) }()
		return pipe
	}

	// --- Honest majority, derived from the seed. ---
	wr := r.Fork("workers")
	nHonest := 3 + wr.Intn(3)
	honestNames := make([]string, nHonest)
	honestPipes := make([]*netsim.Pipe, nHonest)
	honestLinks := make([]netsim.Link, nHonest)
	for i := 0; i < nHonest; i++ {
		link := netsim.Link{
			Latency: wr.Duration(0, 2*time.Millisecond),
			Jitter:  wr.Duration(0, time.Millisecond),
			Seed:    wr.Int63() | 1,
		}
		honestNames[i] = fmt.Sprintf("hw-%d", i+1)
		honestLinks[i] = link
		honestPipes[i] = spawn(honestNames[i], honest, link, wr.Duration(2*time.Millisecond, 8*time.Millisecond))
	}

	// --- The Byzantine minority: an intermittent fabricator, a
	// freeloading echo, and a coalition of quorum-1 colluders (the
	// strongest group quorum voting provably defeats). ---
	cheaters := []string{"cheat-wrong", "cheat-echo"}
	spawn("cheat-wrong", chaos.WrongResult(r.Fork("wrong"), honest, 0.85), netsim.Loopback,
		wr.Duration(time.Millisecond, 4*time.Millisecond))
	spawn("cheat-echo", chaos.LazyEcho(), netsim.Loopback, wr.Duration(0, 2*time.Millisecond))
	colluderGroup := r.Fork("collusion").Int63()
	for j := 0; j < quorum-1; j++ {
		cname := fmt.Sprintf("cheat-collude-%d", j+1)
		cheaters = append(cheaters, cname)
		spawn(cname, chaos.Colluder(colluderGroup, honest), netsim.Loopback,
			wr.Duration(0, 2*time.Millisecond))
	}

	// --- Light crash-stop churn on top of the lies: one honest worker
	// (never hw-1, the liveness anchor) crashes and rejoins. ---
	fr := r.Fork("faults")
	sched := &chaos.Schedule{}
	if nHonest > 1 {
		i := 1 + fr.Intn(nHonest-1)
		at := fr.Duration(20*time.Millisecond, 150*time.Millisecond)
		chaos.Cut(sched, honestNames[i], honestPipes[i], at)
		rejoin := at + fr.Duration(40*time.Millisecond, 120*time.Millisecond)
		link, delay := honestLinks[i], fr.Duration(2*time.Millisecond, 6*time.Millisecond)
		wname := honestNames[i]
		sched.Add(rejoin, fmt.Sprintf("rejoin %s", wname), func() { spawn(wname, honest, link, delay) })
	}
	t.Logf("chaos: %d honest workers, %d cheaters, %d scheduled events:\n%s",
		nHonest, len(cheaters), sched.Len(), strings.Join(sched.Describe(), "\n"))
	stopSched := make(chan struct{})
	schedDone := make(chan struct{})
	go func() { defer close(schedDone); sched.Play(stopSched) }()
	var stopOnce sync.Once
	stopPlay := func() { stopOnce.Do(func() { close(stopSched) }); <-schedDone }
	defer stopPlay()

	in := make(chan int)
	go func() {
		defer close(in)
		for i := 0; i < n; i++ {
			in <- i
		}
	}()
	out, errc := job.Process(context.Background(), in)
	got := collectClosed(t, out, n, 90*time.Second, "byzantine job", job.Diagnostics)
	if err := <-errc; err != nil {
		t.Fatalf("byzantine job failed: %v", err)
	}

	// Invariant 1: the output is byte-identical to an honest run —
	// exactly-once, in-order, every value correct despite the lies.
	if err := chaos.CheckExact(got, n, want); err != nil {
		t.Errorf("byzantine output: %v", err)
	}

	// Invariant 2: no unverified value reached the output — every index
	// (of a lending unit: a value, or a group) was sealed by a quorum of
	// distinct workers, the trusted fast path, or a spot-check
	// recomputation.
	// The lender hands each audit record to the ledger outside its lock, so
	// the last one can trail the output's end by a scheduling quantum.
	units := (n + group - 1) / group
	audit := job.VerifyAudit()
	for wait := time.Now().Add(2 * time.Second); len(audit) < units && time.Now().Before(wait); audit = job.VerifyAudit() {
		time.Sleep(time.Millisecond)
	}
	if err := chaos.CheckVerified(audit, units, quorum); err != nil {
		t.Errorf("acceptance audit: %v", err)
	}
	fastPath := 0
	for _, a := range audit {
		if a.FastPath {
			fastPath++
		}
	}

	// Invariant 3: every cheater's reputation collapsed below the
	// quarantine line and the fleet expelled it; no honest worker was.
	reps := job.Reputations()
	for _, c := range cheaters {
		rep, ok := reps[c]
		if !ok {
			// A cheater that never held a value never got to lie; with
			// values outnumbering workers this means it was refused or
			// severed before voting — still expelled from the run.
			t.Errorf("cheater %s never appeared in the reputation ledger", c)
			continue
		}
		if !rep.Quarantined {
			t.Errorf("cheater %s not quarantined: %+v", c, rep)
		}
		if rep.Disagreed == 0 {
			t.Errorf("cheater %s was never caught disagreeing: %+v", c, rep)
		}
	}
	for _, h := range honestNames {
		if rep, ok := reps[h]; ok && rep.Quarantined {
			t.Errorf("honest worker %s was quarantined: %+v", h, rep)
		}
	}
	t.Logf("chaos: %d/%d fast-path acceptances, reputations: %d rows", fastPath, units, len(reps))

	job.Close()

	// Invariant 4: no stale leases once the job closed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		stale := chaos.StaleLeases(pool.Workers(), func(string) bool { return false })
		if len(stale) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("stale leases after job closed: %v", stale)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Invariant 5: everything unwinds.
	stopPlay()
	pool.Close()
	cf.cutAll()
	if err := guard.Check(10 * time.Second); err != nil {
		t.Errorf("leak check: %v", err)
	}
}
