package pando_test

import (
	"encoding/binary"
	"math/rand/v2"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"testing"
	"time"

	"pando"
	"pando/internal/apps"
	"pando/internal/netsim"
	"pando/internal/race"
	"pando/internal/worker"
)

// budgets are the per-item counts TestBudget holds each shape to. Every
// row names the change that set it. A count fails outside ±budgetBand in
// either direction, so a change that improves one records the new figure
// here, in the same diff.
var budgets = []struct {
	shape       string
	setBy       string
	schedEvents float64 // /sched/latencies:seconds samples ×8, per item (collatz only)
	allocs      float64 // /gc/heap/allocs:objects, per item
	wire        int64   // bytes on the netsim links both ways, whole run, with a one-byte service stamp, held exactly (tiles only)
}{
	{shape: "collatz", setBy: "results appended into the frame that carries them", schedEvents: 8.51, allocs: 2.5},
	{shape: "tiles", setBy: "result frames without a digest", allocs: 9.93, wire: 5_151_106},
	{shape: "verified", setBy: "results held as bytes until emit", allocs: 23.0},
}

const budgetBand = 0.03

// TestBudget runs fixed in-process deployments at one P and holds their
// scheduler events, heap allocations and wire bytes per item to the
// budgets table. At one P these counts barely move between runs, where
// timings drift by tens of percent, so a goroutine hand-off or an
// allocation added to (or removed from) the per-item path shows here.
//
// The shapes:
//   - collatz: small collatz values, the JSON codec, two volunteers over
//     netsim loopback links, 60k items.
//   - tiles: 16 KiB raw tiles whose kind cycles compressible, repeated
//     (eight distinct tiles) and incompressible every 256 items, one
//     volunteer on a 2 ms link, the adaptive window, 1024 items. One
//     volunteer and no heartbeats make the wire bytes exact: which channel
//     sees a repeated tile first decides whether it travels in full.
func TestBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector adds allocations and scheduling of its own")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	t.Run("collatz", func(t *testing.T) {
		const n = 60_000
		b := budgets[0]
		p := pando.New("budget-collatz", apps.CollatzSteps, pando.WithoutRegistry())
		h := pando.CodecHandler(apps.CollatzSteps, pando.JSONCodec[string]{}, pando.JSONCodec[apps.CollatzResult]{})
		r := runBudget(t, p, "budget-collatz", h, 2, netsim.Loopback, pando.ChannelConfig{}, n, 6,
			func(i int) string { return strconv.Itoa(1_000_000 + i) })
		// Now and then an episode of 10k–40k items, more often beside
		// other processes, reads events a few percent low: frames batch,
		// several taken per wake-up. Batching only removes events, so the
		// count is the busiest window's, the unbatched cost that every
		// window pays once the per-item path changes. Allocations do not
		// batch; they are the median window's.
		slices.Sort(r.allocs)
		checkBudget(t, b.setBy, "scheduler events", slices.Max(r.events), b.schedEvents)
		checkBudget(t, b.setBy, "allocations", r.allocs[len(r.allocs)/2], b.allocs)
	})

	t.Run("tiles", func(t *testing.T) {
		const n = 1024
		b := budgets[1]
		cfg := pando.ChannelConfig{HeartbeatInterval: -1}
		p := pando.New("budget-tiles", tileSum, pando.WithoutRegistry(),
			pando.WithCodec[[]byte, []byte](pando.RawCodec{}, pando.RawCodec{}),
			pando.WithAdaptiveLimit(1, 16), pando.WithChannelConfig(cfg))
		tiles := make([][]byte, n)
		for i := range tiles {
			tiles[i] = budgetTile(i)
		}
		r := runBudget(t, p, "budget-tiles", pando.CodecHandler(tileSum, pando.RawCodec{}, pando.RawCodec{}), 1,
			netsim.Link{Latency: 2 * time.Millisecond, Bandwidth: 64 << 20}, cfg, n, 1,
			func(i int) []byte { return tiles[i] })
		checkBudget(t, b.setBy, "allocations", r.allocs[0], b.allocs)
		// The volunteer stamps its first result with f's time in µs, a
		// varint: one byte under 128 µs, more when that tile ran slow.
		stamp := len(binary.AppendUvarint(nil, uint64(r.service/time.Microsecond)))
		if want := b.wire + int64(stamp) - 1; r.wire != want {
			t.Errorf("wire: %d bytes, budget %d exactly with a %d-byte stamp (set by %q)", r.wire, want, stamp, b.setBy)
		}
	})

	t.Run("verified", func(t *testing.T) {
		const n = 20_000
		b := budgets[2]
		p := pando.New("budget-verified", apps.CollatzSteps, pando.WithoutRegistry(),
			pando.WithVerification(pando.Verification{K: 2, Quorum: 2}))
		h := pando.CodecHandler(apps.CollatzSteps, pando.JSONCodec[string]{}, pando.JSONCodec[apps.CollatzResult]{})
		r := runBudget(t, p, "budget-verified", h, 2, netsim.Loopback, pando.ChannelConfig{}, n, 5,
			func(i int) string { return strconv.Itoa(1_000_000 + i) })
		slices.Sort(r.allocs)
		checkBudget(t, b.setBy, "allocations", r.allocs[len(r.allocs)/2], b.allocs)
	})
}

// budgetRun is what one run of a shape read.
type budgetRun struct {
	events, allocs []float64     // per item, by window
	wire           int64         // both ways over the links, once everything closed
	service        time.Duration // the largest service stamp, read at the first output
}

// runBudget streams n inputs through p, the job name, served to vols
// volunteers running h over netsim links, reading the counts per item in
// each of windows equal windows.
func runBudget[I, O any](t *testing.T, p *pando.Pando[I, O], name string, h worker.Handler, vols int, link netsim.Link,
	cfg pando.ChannelConfig, n, windows int, input func(int) I) budgetRun {
	t.Helper()
	ln := netsim.NewListener(name, link)
	defer ln.Close()
	go func() { _ = p.ServeWS(ln) }()
	joined := make(chan error, vols)
	for k := 0; k < vols; k++ {
		conn, _, err := ln.Dial()
		if err != nil {
			t.Fatal(err)
		}
		v := &worker.Volunteer{
			Name:       "v" + strconv.Itoa(k),
			Channel:    cfg,
			Handler:    h,
			CrashAfter: -1,
			Functions:  []string{name},
		}
		go func() { joined <- v.JoinWS(conn) }()
	}
	for deadline := time.Now().Add(10 * time.Second); len(p.Stats()) < vols; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the %d volunteers were never admitted", vols)
		}
	}
	in := make(chan I)
	go func() {
		defer close(in)
		for i := 0; i < n; i++ {
			in <- input(i)
		}
	}()

	runtime.GC()
	out, errc := p.Process(t.Context(), in)
	marks := []budgetMetrics{readBudgetMetrics()}
	var r budgetRun
	got := 0
	for range out {
		if got++; got == 1 {
			for _, w := range p.Stats() {
				r.service = max(r.service, w.Service)
			}
		}
		if got%(n/windows) == 0 {
			marks = append(marks, readBudgetMetrics())
		}
	}
	if err := <-errc; err != nil || got != n {
		t.Fatalf("processed %d of %d items: %v", got, n, err)
	}
	for w := 1; w < len(marks); w++ {
		r.events = append(r.events, 8*float64(marks[w].schedEvents-marks[w-1].schedEvents)/float64(n/windows))
		r.allocs = append(r.allocs, float64(marks[w].allocs-marks[w-1].allocs)/float64(n/windows))
	}
	p.Close()
	for k := 0; k < vols; k++ {
		<-joined
	}
	toMaster, toVolunteers := ln.Bytes()
	r.wire = toMaster + toVolunteers
	t.Logf("scheduler events per item %.2f, allocations per item %.2f, by window; %d wire bytes (%.1f per item); service stamp %v",
		r.events, r.allocs, r.wire, float64(r.wire)/float64(n), r.service)
	return r
}

// checkBudget holds one count per item to its budget's band.
func checkBudget(t *testing.T, setBy, what string, got, want float64) {
	t.Helper()
	if got < want*(1-budgetBand) || got > want*(1+budgetBand) {
		t.Errorf("%s: %.2f per item, budget %.2f ±%.0f%% (set by %q): record the new figure if the change is meant",
			what, got, want, budgetBand*100, setBy)
	}
}

// budgetTile is tile i of the tiles shape: runs of 16–63 equal bytes
// (DEFLATE shrinks them roughly tenfold), one of eight random tiles, or a
// random tile of its own, by i's 256-item phase.
func budgetTile(i int) []byte {
	b := make([]byte, 16<<10)
	switch phase := i / 256 % 4; {
	case phase < 2:
		r := rand.New(rand.NewPCG(1, uint64(i)))
		for off := 0; off < len(b); {
			n, v := 16+r.IntN(48), byte(r.IntN(64))
			for ; n > 0 && off < len(b); n-- {
				b[off] = v
				off++
			}
		}
	case phase == 2:
		fillBudgetRandom(b, uint64(i%8))
	default:
		fillBudgetRandom(b, uint64(1000+i))
	}
	return b
}

func fillBudgetRandom(b []byte, seed uint64) {
	r := rand.New(rand.NewPCG(2, seed))
	for off := 0; off+8 <= len(b); off += 8 {
		binary.LittleEndian.PutUint64(b[off:], r.Uint64())
	}
}

// tileSum is the tiles shape's kernel: FNV-1a over the tile, big-endian.
func tileSum(tile []byte) ([]byte, error) {
	h := uint32(2166136261)
	for _, c := range tile {
		h ^= uint32(c)
		h *= 16777619
	}
	return binary.BigEndian.AppendUint32(nil, h), nil
}

type budgetMetrics struct{ schedEvents, allocs uint64 }

func readBudgetMetrics() budgetMetrics {
	s := []metrics.Sample{{Name: "/sched/latencies:seconds"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	var m budgetMetrics
	for _, c := range s[0].Value.Float64Histogram().Counts {
		m.schedEvents += c
	}
	m.allocs = s[1].Value.Uint64()
	return m
}
