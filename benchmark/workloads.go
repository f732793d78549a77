package main

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"path/filepath"
	"strconv"
	"time"

	pando "pando"
	"pando/internal/apps"
	"pando/internal/netsim"
	"pando/internal/raytracer"
)

// The four workloads. Names are fixed: later issues cite them, and the
// README records why each exists and what it is expected not to show.

// fleet describes the volunteers of one deployment.
type fleet struct {
	n        int                 // volunteers present before the first input
	link     netsim.Link         // each volunteer's own link to the master
	delay    time.Duration       // Volunteer.Delay, the simulated service time
	channel  pando.ChannelConfig // heartbeats, both ends; the zero value keeps the library defaults
	crashers int                 // the first `crashers` volunteers crash-stop mid-stream
	joiners  int                 // volunteers that join mid-stream, by output count
}

// Churn schedule of fleet-churn. Crashes and joins are triggered by item
// counts, never by wall-clock, so a slow host shifts them in time but
// not in the stream.
const (
	crashBase  = 100  // volunteer k crashes after crashBase + crashStep*k (+ seed jitter) items
	crashStep  = 40   //
	crashJit   = 30   // seed-derived jitter on each crash threshold, in items
	joinFirst  = 1000 // the first joiner arrives when this many outputs were emitted
	joinEvery  = 2000 // and one more every joinEvery outputs after that
	warmupFrac = 10   // a warm-up rep streams 1/warmupFrac of the items
)

// workload is one named input set with everything needed to deploy it.
// Inputs are generated lazily from (seed, index); the program under test
// only ever sees the generated values.
type workload[I, O any] struct {
	name   string
	items  int
	gen    func(seed uint64, i int) I
	kernel func(I) (O, error)
	// inKey and outKey map a value to a 64-bit content key. The
	// correctness gate compares outKey of every output with outKey of the
	// regenerated expectation; the tracing shims use both keys to tell
	// which item a typed value belongs to.
	inKey  func(I) uint64
	outKey func(O) uint64
	in     pando.Codec[I] // nil: JSON
	out    pando.Codec[O] // nil: JSON
	opts   func(dir string) []pando.Option
	fleet  fleet
	// repeats says that distinct items can carry identical inputs, so a
	// content key alone does not name the item a volunteer received.
	repeats bool
	// quiet marks a workload paced by timers, whose CPU time would
	// otherwise be set by how the runtime and the host treat an idle
	// process: it runs on one P, on one CPU, which a spinner keeps awake
	// (awake.go).
	quiet bool

	// expected[i] is outKey(kernel(gen(seed, i))), filled on first need
	// (after a rep's clocks have stopped) and reused by later reps.
	expSeed  uint64
	expected []uint64
	expHave  []bool
}

// runner is the type-erased view main drives.
type runner interface {
	Items() int
	Repeats() bool
	Quiet() bool
	rep(cfg repConfig) repResult
	analyzeTrace(t *tracer, r repResult, seed uint64, path string) *analysis
}

func (w *workload[I, O]) Name() string  { return w.name }
func (w *workload[I, O]) Items() int    { return w.items }
func (w *workload[I, O]) Repeats() bool { return w.repeats }
func (w *workload[I, O]) Quiet() bool   { return w.quiet }

var hashSeed = maphash.MakeSeed()

// mix is splitmix64: the one source of seed-derived randomness, so the
// same --seed gives the same inputs on every run.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// --- collatz-small ---

// collatzStart keeps every input a 7-digit decimal, the small shape of
// the ladder.
func collatzStart(seed uint64) uint64 { return 1_000_000 + mix(seed)%7_000_000 }

func collatzSmall() *workload[string, apps.CollatzResult] {
	return &workload[string, apps.CollatzResult]{
		name:  "collatz-small",
		items: 150_000,
		// The same decimal strings apps.CollatzInputs lists, produced one
		// at a time (workloads_test.go pins the equivalence).
		gen: func(seed uint64, i int) string {
			return strconv.FormatUint(collatzStart(seed)+uint64(i), 10)
		},
		kernel: apps.CollatzSteps,
		inKey:  func(n string) uint64 { return maphash.String(hashSeed, n) },
		outKey: func(r apps.CollatzResult) uint64 {
			return maphash.String(hashSeed, r.N) ^ mix(uint64(r.Steps)<<32|uint64(uint32(r.Ops)))
		},
		fleet: fleet{n: 2, link: netsim.Loopback},
	}
}

// --- tiles-16k ---

const (
	tileBytes = 16 << 10
	tilePhase = 256 // payload kind changes every tilePhase items
	tileReuse = 8   // distinct tiles in a repeated phase
)

// tileKind cycles compressible, compressible, repeated, incompressible.
func tileKind(i int) int { return (i / tilePhase) % 4 }

// fillRandom writes an xorshift64 stream: incompressible bytes.
func fillRandom(b []byte, state uint64) {
	if state == 0 {
		state = 1
	}
	for off := 0; off+8 <= len(b); off += 8 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		binary.LittleEndian.PutUint64(b[off:], state)
	}
}

// fillRuns writes runs of 16..63 equal bytes from a 64-symbol alphabet:
// distinct per state, and DEFLATE shrinks it roughly tenfold.
func fillRuns(b []byte, state uint64) {
	for off := 0; off < len(b); {
		state = mix(state)
		n := 16 + int(state>>8)%48
		v := byte(state) & 0x3f
		for ; n > 0 && off < len(b); n-- {
			b[off] = v
			off++
		}
	}
}

func tileGen(seed uint64, i int) []byte {
	b := make([]byte, tileBytes)
	switch tileKind(i) {
	case 0, 1:
		fillRuns(b, mix(seed)^uint64(i))
	case 2:
		fillRandom(b, mix(seed+1)^uint64(i%tileReuse+1))
	default:
		fillRandom(b, mix(seed+2)^uint64(i+1))
	}
	return b
}

// tileChecksum is the kernel of tiles-16k: FNV-1a over the tile, four
// bytes big-endian. The result is tiny on purpose, so bytes only matter
// on the way out.
func tileChecksum(tile []byte) ([]byte, error) {
	h := uint32(2166136261)
	for _, c := range tile {
		h ^= uint32(c)
		h *= 16777619
	}
	return binary.BigEndian.AppendUint32(nil, h), nil
}

func tiles16k() *workload[[]byte, []byte] {
	return &workload[[]byte, []byte]{
		name:   "tiles-16k",
		items:  3072,
		gen:    tileGen,
		kernel: tileChecksum,
		inKey:  func(b []byte) uint64 { return maphash.Bytes(hashSeed, b) },
		outKey: func(b []byte) uint64 { return maphash.Bytes(hashSeed, b) },
		in:     pando.RawCodec{},
		out:    pando.RawCodec{},
		opts: func(string) []pando.Option {
			return []pando.Option{pando.WithAdaptiveLimit(1, 16)}
		},
		fleet:   fleet{n: 2, link: netsim.Link{Latency: 2 * time.Millisecond, Bandwidth: 4 << 20}},
		repeats: true,
	}
}

// --- raytrace-compute ---

const frameW, frameH = 64, 48

func raytraceCompute() *workload[float64, string] {
	const items = 3000
	return &workload[float64, string]{
		name:  "raytrace-compute",
		items: items,
		// One orbit of the camera, every frame at its own angle, starting
		// from a seed-derived phase.
		gen: func(seed uint64, i int) float64 {
			phase := float64(mix(seed)%3600) / 3600
			return 2 * math.Pi * (phase + float64(i)/items)
		},
		kernel: func(angle float64) (string, error) { return raytracer.RenderFrame(angle, frameW, frameH) },
		inKey:  math.Float64bits,
		outKey: func(s string) uint64 { return maphash.String(hashSeed, s) },
		fleet:  fleet{n: 2, link: netsim.Loopback},
	}
}

// --- fleet-churn ---

// churnChannel is the heartbeat setting of fleet-churn, both ends. A
// volunteer crashes by closing its connection, which the master sees at
// once, so the timeout decides only how long a stall of the whole process
// (a virtual CPU taken away, a slow fsync) is tolerated before every
// volunteer and the master declare each other dead. With the default,
// three intervals, one run in about a hundred lost its whole fleet at once
// and waited for the watchdog; stopping the process for 300 ms does the
// same every time.
var churnChannel = pando.ChannelConfig{HeartbeatInterval: 50 * time.Millisecond, HeartbeatTimeout: 2 * time.Second}

func fleetChurn() *workload[int, int] {
	key := func(v int) uint64 { return uint64(v) }
	return &workload[int, int]{
		name:   "fleet-churn",
		items:  16_000,
		gen:    func(seed uint64, i int) int { return int(mix(seed)%1_000_000) + i },
		kernel: func(v int) (int, error) { return v * v, nil },
		inKey:  key,
		outKey: key,
		opts: func(dir string) []pando.Option {
			return []pando.Option{
				pando.WithAdaptiveLimit(1, 16),
				pando.WithChannelConfig(churnChannel),
				pando.WithCheckpoint(filepath.Join(dir, "churn.journal")),
				pando.WithFsyncInterval(100 * time.Millisecond),
			}
		},
		fleet: fleet{
			n:        32,
			link:     netsim.Link{Latency: 20 * time.Millisecond, Jitter: 5 * time.Millisecond},
			delay:    4 * time.Millisecond,
			channel:  churnChannel,
			crashers: 8,
			joiners:  8,
		},
		quiet: true,
	}
}

// crashAfter is volunteer k's crash threshold, -1 for a volunteer that
// never crashes. The zero value of Volunteer.CrashAfter would crash
// before the first item, so every volunteer gets an explicit value.
func (f fleet) crashAfter(seed uint64, k int) int {
	if k >= f.crashers {
		return -1
	}
	return crashBase + crashStep*k + int(mix(seed^uint64(k+1)<<20)%crashJit)
}

// joinsDue is how many mid-stream joiners should have arrived once
// `emitted` outputs were seen.
func (f fleet) joinsDue(emitted int) int {
	if f.joiners == 0 || emitted < joinFirst {
		return 0
	}
	due := 1 + (emitted-joinFirst)/joinEvery
	if due > f.joiners {
		due = f.joiners
	}
	return due
}

// workloadNames lists the workloads in report order.
var workloadNames = []string{"collatz-small", "tiles-16k", "raytrace-compute", "fleet-churn"}

func newRunner(name string) runner {
	switch name {
	case "collatz-small":
		return collatzSmall()
	case "tiles-16k":
		return tiles16k()
	case "raytrace-compute":
		return raytraceCompute()
	case "fleet-churn":
		return fleetChurn()
	}
	return nil
}
