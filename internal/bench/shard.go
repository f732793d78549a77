package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	"pando/internal/master"
	"pando/internal/netsim"
	"pando/internal/pullstream"
	"pando/internal/shard"
	"pando/internal/transport"
)

// This file measures what sharding the master buys: the single
// dispatcher's outbound capacity is the whole-deployment bottleneck the
// moment the volunteer fleet outgrows it, and partitioning the stream
// across N shard masters multiplies that capacity by N. The model is the
// paper's deployment shape taken seriously: a master serves its fleet
// through one uplink, so every volunteer pipe is paced at uplink/W —
// netsim's bandwidth pacing turns the contended link into timer waits,
// which parallelize honestly on any core count, while the aggregate rate
// stays far below the process's measured dispatch ceiling (~15k items/s
// at 10k sessions, BENCH_hotpath.json) so the scaling read is about the
// architecture, not the CPU.

// DefaultShardUplink is the modeled per-master uplink: a commodity
// 32 Mbit/s link carrying all of that master's volunteer traffic — the
// deployment the paper targets, where the master is an ordinary host,
// not a datacenter ingress. Narrow enough that pacing (the architecture)
// stays the bottleneck through 8 shards instead of this process's own
// dispatch ceiling.
const DefaultShardUplink = int64(4 << 20)

// ShardProfile is one throughput cell: the same identity workload pushed
// through `Shards` cooperating masters (0 = the plain unsharded master
// baseline), with the fleet split evenly among them.
type ShardProfile struct {
	// Shards is the shard-group width; 0 marks the single-master
	// baseline (no group, no segments, no merge layer).
	Shards       int
	Workers      int
	Items        int
	PayloadBytes int
	ItemsPerSec  float64
	// SpeedupVsBaseline is ItemsPerSec over the baseline cell's.
	SpeedupVsBaseline float64
	// LinearFraction is ItemsPerSec over Shards x the one-shard cell's
	// rate — 1.0 is perfectly linear scaling.
	LinearFraction float64
}

// ShardComparison is the whole experiment, persisted as BENCH_shard.json.
type ShardComparison struct {
	Workers           int
	ItemsPerWorker    int
	PayloadBytes      int
	UplinkBytesPerSec int64
	Profiles          []ShardProfile
}

// RunShardProfile runs one cell: `workers` netsim volunteers, each pipe
// paced at uplink/workersPerMaster, identity-mapping `items` payloads of
// `payload` bytes, and reports end-to-end items/sec of the globally
// ordered output. shards == 0 runs the plain single master; shards >= 1
// runs a shard group of that width with the fleet split evenly across
// the slots. Heartbeats are off; the measurement is dispatch + pacing.
func RunShardProfile(shards, workers, items, payload int, uplink int64) (float64, error) {
	cfg := master.Config{
		FuncName: "identity",
		Batch:    8,
		Ordered:  true,
		Channel:  transport.Config{HeartbeatInterval: -1},
	}
	raw := transport.RawCodec{}

	masters := shards
	if masters < 1 {
		masters = 1
	}
	perShard := workers / masters
	if perShard < 1 {
		return 0, fmt.Errorf("bench: %d workers cannot cover %d shards", workers, masters)
	}
	link := netsim.Link{
		Latency:   2 * time.Millisecond,
		Bandwidth: uplink / int64(perShard),
	}

	attach := func(slot int, name string, ch transport.Channel) {}
	var bind func(pullstream.Source[[]byte]) pullstream.Source[[]byte]
	if shards == 0 {
		m := master.New[[]byte, []byte](cfg, raw, raw)
		defer m.Close()
		attach = func(_ int, name string, ch transport.Channel) { m.Attach(name, ch) }
		bind = m.Bind
	} else {
		dir, err := os.MkdirTemp("", "bench-shard-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		g, err := shard.New[[]byte, []byte](nil, shard.Config{
			Shards: shards,
			Dir:    dir,
			Master: cfg,
		}, raw, raw)
		if err != nil {
			return 0, err
		}
		defer g.Close()
		attach = g.Attach
		bind = g.Bind
	}

	pipes := make([]*netsim.Pipe, 0, workers)
	defer func() {
		for _, p := range pipes {
			p.Cut()
		}
	}()
	identity := func(b []byte) ([]byte, error) { return b, nil }
	for i := 0; i < workers; i++ {
		p := netsim.NewPipe(link)
		pipes = append(pipes, p)
		wch := transport.NewWSock(p.A, cfg.Channel)
		mch := transport.NewWSock(p.B, cfg.Channel)
		go func() {
			_ = transport.WorkerServe[[]byte, []byte](wch, raw, raw, identity, nil)
		}()
		attach(i%masters, fmt.Sprintf("w%d", i), mch)
	}

	tile := hotpathPayload(payload)
	src := pullstream.Take[[]byte](items)(pullstream.Infinite(func(int) []byte { return tile }))

	start := time.Now()
	got := 0
	err := pullstream.Drain(bind(src), func(b []byte) error {
		if len(b) != payload {
			return fmt.Errorf("bench: result %d is %d bytes, want %d", got, len(b), payload)
		}
		got++
		return nil
	})
	elapsed := time.Since(start)
	if err != nil {
		return 0, err
	}
	if got != items {
		return 0, fmt.Errorf("bench: %d results, want %d", got, items)
	}
	return float64(items) / elapsed.Seconds(), nil
}

// ShardRunner executes one shard measurement and returns its items/sec.
// cmd/pando-bench supplies a runner that re-executes itself so every
// cell gets a fresh process; RunShard's in-process default serves tests.
type ShardRunner func(shards, workers, items, payload int, uplink int64) (float64, error)

// RunShard runs the whole experiment in-process: the single-master
// baseline, then each shard width, all over the same fleet size and
// stream length so the rates compare directly.
func RunShard(shardCounts []int, workers, itemsPerWorker, payload int, uplink int64) (ShardComparison, error) {
	return RunShardWith(shardCounts, workers, itemsPerWorker, payload, uplink, settledShardRun)
}

// RunShardWith is RunShard with a pluggable per-cell runner (see the
// cell-isolation note in harness.go for why fresh processes matter).
func RunShardWith(shardCounts []int, workers, itemsPerWorker, payload int, uplink int64, run ShardRunner) (ShardComparison, error) {
	cmp := ShardComparison{
		Workers:           workers,
		ItemsPerWorker:    itemsPerWorker,
		PayloadBytes:      payload,
		UplinkBytesPerSec: uplink,
	}
	items := workers * itemsPerWorker

	base, err := run(0, workers, items, payload, uplink)
	if err != nil {
		return cmp, fmt.Errorf("baseline: %w", err)
	}
	cmp.Profiles = append(cmp.Profiles, ShardProfile{
		Shards: 0, Workers: workers, Items: items, PayloadBytes: payload,
		ItemsPerSec: base, SpeedupVsBaseline: 1,
	})

	oneShard := base // until the shards=1 cell runs, linearity is vs baseline
	for _, s := range shardCounts {
		rate, err := run(s, workers, items, payload, uplink)
		if err != nil {
			return cmp, fmt.Errorf("%d shards: %w", s, err)
		}
		if s == 1 {
			oneShard = rate
		}
		cmp.Profiles = append(cmp.Profiles, ShardProfile{
			Shards: s, Workers: workers, Items: items, PayloadBytes: payload,
			ItemsPerSec:       rate,
			SpeedupVsBaseline: rate / base,
			LinearFraction:    rate / (float64(s) * oneShard),
		})
	}
	return cmp, nil
}

func settledShardRun(shards, workers, items, payload int, uplink int64) (float64, error) {
	settle()
	return RunShardProfile(shards, workers, items, payload, uplink)
}

// RenderShard prints the comparison as a readable table.
func RenderShard(w io.Writer, cmp ShardComparison) {
	fmt.Fprintf(w, "sharded masters (identity map, %d workers, %d B payload, %.1f MB/s modeled uplink per master):\n",
		cmp.Workers, cmp.PayloadBytes, float64(cmp.UplinkBytesPerSec)/(1<<20))
	for _, p := range cmp.Profiles {
		label := fmt.Sprintf("%d shards", p.Shards)
		if p.Shards == 0 {
			label = "baseline"
		}
		fmt.Fprintf(w, "  %-9s %8d items  %10.0f items/s  %5.2fx vs baseline  linear %.2f\n",
			label, p.Items, p.ItemsPerSec, p.SpeedupVsBaseline, p.LinearFraction)
	}
}
