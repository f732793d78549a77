package bench

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"time"

	"pando/internal/blob"
	"pando/internal/master"
	"pando/internal/netsim"
	"pando/internal/proto"
	"pando/internal/pullstream"
	"pando/internal/transport"
)

// This file measures what the bandwidth-aware data plane buys: the same
// fleet-scale workload pushed over the plain '/pando/2.1.0' wire and
// over '/pando/2.2.0' with adaptive frame compression and payload dedup.
// Three payload regimes bound the behaviour from both sides —
// compressible tiles show the DEFLATE layer's byte savings, a repeated
// payload shows dedup collapsing retransmissions into digest references,
// and unique random payloads pin the cost of the adaptive policy when
// neither optimization can help (the within-3% criterion). The fleet
// shares the master's modeled uplink (each volunteer pipe is paced at
// uplink/W, the model the shard experiment established), so under the
// plain wire payload bytes are the wall-clock bottleneck and saved bytes
// translate into saved time the way they do on the home connection the
// paper's master runs behind; netsim's byte counters report exactly what
// crossed the simulated wire.

// DefaultCompressUplink is the modeled master uplink the fleet shares: a
// commodity 32 Mbit/s link (the shard experiment's DefaultShardUplink),
// narrow enough that payload bytes dominate the per-item cost under the
// plain wire.
const DefaultCompressUplink = int64(4 << 20)

// Compression workloads, in the order their cells run.
const (
	// WorkloadCompressible streams distinct patterned tiles: every
	// payload is unique (dedup never hits) but highly compressible.
	WorkloadCompressible = iota
	// WorkloadRepeated streams one incompressible tile over and over:
	// DEFLATE cannot help, dedup turns every retransmission into a
	// digest reference.
	WorkloadRepeated
	// WorkloadIncompressible streams unique random tiles: neither layer
	// can help, so the cell measures pure adaptive-policy overhead.
	WorkloadIncompressible
)

// CompressWorkloadNames maps the workload constants to report labels.
var CompressWorkloadNames = []string{"compressible", "repeated", "incompressible"}

// CompressProfile is one workload's measured pair: the plain v2 wire
// against the bandwidth-aware v3 wire over the same fleet and stream.
type CompressProfile struct {
	Workload     string
	Workers      int
	Items        int
	PayloadBytes int
	// BaselineItemsPerSec / BaselineWireBytes are the '/pando/2.1.0'
	// cell; WireBytes counts master→worker bytes on the simulated links.
	BaselineItemsPerSec float64
	BaselineWireBytes   int64
	V3ItemsPerSec       float64
	V3WireBytes         int64
	// Speedup is V3 over baseline items/s; BytesSavedFraction is the
	// share of master→worker bytes the v3 wire did not send.
	Speedup            float64
	BytesSavedFraction float64
}

// CompressComparison is the whole experiment, persisted as
// BENCH_compress.json.
type CompressComparison struct {
	Workers           int
	ItemsPerWorker    int
	PayloadBytes      int
	UplinkBytesPerSec int64
	// Codec is the v3 steady-state allocation accounting with
	// compression engaged — the 0 allocs/op gate extended to the new
	// format.
	Codec    []HotpathCodecCost
	Profiles []CompressProfile
}

// xorshiftFill fills b with deterministic pseudo-random bytes — dense
// enough that DEFLATE cannot shrink them, seeded so every cell (and
// every child process) streams identical payloads.
func xorshiftFill(b []byte, seed uint64) {
	s := seed*2654435761 + 0x9E3779B97F4A7C15
	for i := 0; i+8 <= len(b); i += 8 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		binary.LittleEndian.PutUint64(b[i:], s)
	}
	for i := len(b) &^ 7; i < len(b); i++ {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		b[i] = byte(s)
	}
}

// compressPayload builds item i's payload for one workload.
func compressPayload(workload, payload, i int) []byte {
	b := make([]byte, payload)
	switch workload {
	case WorkloadCompressible:
		// Distinct per item (no dedup hit), strongly compressible: a
		// short period pattern phase-shifted by the item index.
		for j := range b {
			b[j] = byte(j*31 + 7 + i*13)
		}
	case WorkloadIncompressible:
		xorshiftFill(b, uint64(i)+1)
	}
	return b
}

// RunCompressProfile runs one cell: `workers` netsim volunteers whose
// pipes share the master's modeled uplink (each paced at uplink/W; 0
// leaves the links unconstrained for smoke tests), a master streaming
// `items` payloads of `payload` bytes under the selected workload,
// replies reduced to a one-byte checksum (the asymmetric
// request/response shape of the paper's volunteer workloads). v3 selects
// the bandwidth-aware wire; otherwise the cell runs the plain binary
// wire. It reports end-to-end items/sec and the master→worker bytes
// that crossed the simulated links. Heartbeats are off; the measurement
// is dispatch + payload transfer.
func RunCompressProfile(workload int, v3 bool, workers, items, payload int, uplink int64) (float64, int64, error) {
	if workload < 0 || workload >= len(CompressWorkloadNames) {
		return 0, 0, fmt.Errorf("bench: unknown compress workload %d", workload)
	}
	cfg := master.Config{
		FuncName: "checksum",
		Batch:    8,
		Ordered:  true,
		Channel:  transport.Config{HeartbeatInterval: -1},
	}
	raw := transport.RawCodec{}
	m := master.New[[]byte, []byte](cfg, raw, raw)
	defer m.Close()

	var perPipe int64
	if uplink > 0 {
		perPipe = uplink / int64(workers)
		if perPipe < 1 {
			perPipe = 1
		}
	}
	link := netsim.Link{Latency: 2 * time.Millisecond, Bandwidth: perPipe}
	checksum := func(b []byte) ([]byte, error) {
		var s byte
		for _, c := range b {
			s += c
		}
		return []byte{s}, nil
	}

	pipes := make([]*netsim.Pipe, 0, workers)
	defer func() {
		for _, p := range pipes {
			p.Cut()
		}
	}()
	for i := 0; i < workers; i++ {
		p := netsim.NewPipe(link)
		pipes = append(pipes, p)
		wch := transport.NewWSock(p.A, cfg.Channel)
		mch := transport.NewWSock(p.B, cfg.Channel)
		var workerCh transport.Channel = wch
		if v3 {
			// What negotiation would set up: a fresh per-channel policy
			// instance on each end, and the worker-side dedup half in
			// front of the serve loop (master-side wrapping happens in
			// Attach when it sees the v3 wire).
			wch.SetWire(proto.NewCompressedWire())
			mch.SetWire(proto.NewCompressedWire())
			workerCh = transport.DedupWorkerChannel(wch, blob.NewCache(0))
		} else {
			wch.SetWire(proto.V2)
			mch.SetWire(proto.V2)
		}
		go func() {
			_ = transport.WorkerServe[[]byte, []byte](workerCh, raw, raw, checksum, nil)
		}()
		m.Attach(fmt.Sprintf("w%d", i), mch)
	}

	var repeated []byte
	if workload == WorkloadRepeated {
		repeated = make([]byte, payload)
		xorshiftFill(repeated, 42)
	}
	src := pullstream.Take[[]byte](items)(pullstream.Infinite(func(i int) []byte {
		if workload == WorkloadRepeated {
			return repeated
		}
		return compressPayload(workload, payload, i)
	}))

	start := time.Now()
	got := 0
	err := pullstream.Drain(m.Bind(src), func(b []byte) error {
		if len(b) != 1 {
			return fmt.Errorf("bench: result %d is %d bytes, want 1", got, len(b))
		}
		got++
		return nil
	})
	elapsed := time.Since(start)
	if err != nil {
		return 0, 0, err
	}
	if got != items {
		return 0, 0, fmt.Errorf("bench: %d results, want %d", got, items)
	}
	var wireBytes int64
	for _, p := range pipes {
		_, bToA := p.Bytes() // master holds the B endpoints
		wireBytes += bToA
	}
	return float64(items) / elapsed.Seconds(), wireBytes, nil
}

// CompressRunner executes one cell and returns (items/sec, master→worker
// wire bytes). cmd/pando-bench supplies a fresh-process runner;
// RunCompress's settled in-process default serves tests.
type CompressRunner func(workload int, v3 bool, workers, items, payload int, uplink int64) (float64, int64, error)

// CompressReps is how many (baseline, v3) pairs each workload cell runs;
// the median-speedup pair is reported (a machine's load phase swings
// both halves of an adjacent pair together, so the within-pair ratio is
// stable where lone rates are not).
// It defaults to 1: the cells are bandwidth-paced, so their rates are
// timer-determined and vary far less between reps than CPU-bound cells.
var CompressReps = 1

// RunCompress runs the whole experiment in-process.
func RunCompress(workers, itemsPerWorker, payload int, uplink int64) (CompressComparison, error) {
	return RunCompressWith(workers, itemsPerWorker, payload, uplink, settledCompressRun)
}

// RunCompressWith is RunCompress with a pluggable per-cell runner
// (fresh-process isolation preferred; see FreshProcessRun).
func RunCompressWith(workers, itemsPerWorker, payload int, uplink int64, run CompressRunner) (CompressComparison, error) {
	cmp := CompressComparison{
		Workers:           workers,
		ItemsPerWorker:    itemsPerWorker,
		PayloadBytes:      payload,
		UplinkBytesPerSec: uplink,
	}
	// The alloc gate: the v3 codec must hold the pooled hot path's
	// 0 allocs/op steady state with compression engaged (the hotpath
	// payload is compressible, so the DEFLATE path is the one measured).
	cmp.Codec = MeasureHotpathCodec(proto.NewCompressedWire(), payload)

	items := workers * itemsPerWorker
	for wl, name := range CompressWorkloadNames {
		type pair struct {
			base, v3           float64
			baseBytes, v3Bytes int64
		}
		pairs := make([]pair, 0, CompressReps)
		for i := 0; i < CompressReps; i++ {
			base, baseBytes, err := run(wl, false, workers, items, payload, uplink)
			if err != nil {
				return cmp, fmt.Errorf("%s baseline: %w", name, err)
			}
			v3, v3Bytes, err := run(wl, true, workers, items, payload, uplink)
			if err != nil {
				return cmp, fmt.Errorf("%s v3: %w", name, err)
			}
			pairs = append(pairs, pair{base, v3, baseBytes, v3Bytes})
		}
		sort.Slice(pairs, func(i, j int) bool {
			return pairs[i].v3/pairs[i].base < pairs[j].v3/pairs[j].base
		})
		med := pairs[len(pairs)/2]
		p := CompressProfile{
			Workload:            name,
			Workers:             workers,
			Items:               items,
			PayloadBytes:        payload,
			BaselineItemsPerSec: med.base,
			BaselineWireBytes:   med.baseBytes,
			V3ItemsPerSec:       med.v3,
			V3WireBytes:         med.v3Bytes,
			Speedup:             med.v3 / med.base,
		}
		if med.baseBytes > 0 {
			p.BytesSavedFraction = 1 - float64(med.v3Bytes)/float64(med.baseBytes)
		}
		cmp.Profiles = append(cmp.Profiles, p)
	}
	return cmp, nil
}

func settledCompressRun(workload int, v3 bool, workers, items, payload int, uplink int64) (float64, int64, error) {
	settle()
	return RunCompressProfile(workload, v3, workers, items, payload, uplink)
}

// RenderCompress prints the comparison as a readable table.
func RenderCompress(w io.Writer, cmp CompressComparison) {
	fmt.Fprintf(w, "v3 codec steady state, compression engaged (payload bytes in parentheses):\n")
	for _, c := range cmp.Codec {
		fmt.Fprintf(w, "  %-28s %-5s  %3d allocs/op  %6d B/op  %8d ns/op  (%d)\n",
			c.Format, c.Op, c.AllocsPerOp, c.BytesPerOp, c.NsPerOp, c.PayloadBytes)
	}
	fmt.Fprintf(w, "bandwidth-aware data plane (%d workers, %d B payload, %.1f MB/s modeled uplinks, heartbeats off):\n",
		cmp.Workers, cmp.PayloadBytes, float64(cmp.UplinkBytesPerSec)/(1<<20))
	for _, p := range cmp.Profiles {
		fmt.Fprintf(w, "  %-15s %8d items  v2 %10.0f items/s %9.1f MB  v3 %10.0f items/s %9.1f MB  speedup %.2fx  bytes saved %5.1f%%\n",
			p.Workload, p.Items,
			p.BaselineItemsPerSec, float64(p.BaselineWireBytes)/(1<<20),
			p.V3ItemsPerSec, float64(p.V3WireBytes)/(1<<20),
			p.Speedup, 100*p.BytesSavedFraction)
	}
}
