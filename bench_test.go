package pando_test

// This file holds the benchmark harness that regenerates the paper's
// evaluation artifacts (run with `go test -bench=. -benchmem`):
//
//   BenchmarkTable2LAN / VPN / WAN    Table 2, one block each (§5.2-5.4)
//   BenchmarkBatchSweep*              §5.5 claim C1: batching hides latency
//   BenchmarkSpeedupVsSingleDevice    §1/§5 headline: speedup over 1 device
//   BenchmarkFigure4Deployment        Figure 4: join, crash, takeover
//
// plus micro-benchmarks of each substrate (pull-stream, StreamLender,
// Limiter, transport, and the application kernels). Absolute throughput
// is hardware- and timescale-dependent; custom metrics report the
// quantities the paper reports (units/s, shares).

import (
	"context"
	"fmt"
	"math/big"
	"testing"
	"time"

	pando "pando"
	"pando/internal/apps"
	"pando/internal/bench"
	"pando/internal/chain"
	"pando/internal/landsat"
	"pando/internal/lender"
	"pando/internal/netsim"
	"pando/internal/proto"
	"pando/internal/pullstream"
	"pando/internal/qlearn"
	"pando/internal/raytracer"
	"pando/internal/sched"
	"pando/internal/transport"
)

// --- Table 2 (one benchmark per scenario block) ---

func benchScenario(b *testing.B, s bench.Scenario, app bench.App) {
	b.Helper()
	opt := bench.Options{Items: 150, TimeScale: 0.005}
	var lastTotal float64
	for i := 0; i < b.N; i++ {
		cell, err := bench.RunCell(s, app, opt)
		if err != nil {
			b.Fatal(err)
		}
		lastTotal = cell.TotalMeasured
	}
	b.ReportMetric(lastTotal, bench.Unit[app]+"_measured")
	b.ReportMetric(s.Total(app), bench.Unit[app]+"_paper")
}

func BenchmarkTable2LAN(b *testing.B) { benchScenario(b, bench.LAN, bench.Collatz) }
func BenchmarkTable2VPN(b *testing.B) { benchScenario(b, bench.VPN, bench.Collatz) }
func BenchmarkTable2WAN(b *testing.B) { benchScenario(b, bench.WAN, bench.Collatz) }

// BenchmarkTable2LANRaytrace exercises the frames/s column, whose
// per-item compute times are the largest of the table.
func BenchmarkTable2LANRaytrace(b *testing.B) { benchScenario(b, bench.LAN, bench.Raytrace) }

// --- §5.5 claim C1: batching hides network latency ---

func benchBatch(b *testing.B, batch int) {
	b.Helper()
	var tput float64
	for i := 0; i < b.N; i++ {
		pts, err := bench.RunBatchSweep([]int{batch}, 10*time.Millisecond, 5*time.Millisecond, 3, 80)
		if err != nil {
			b.Fatal(err)
		}
		tput = pts[0].Throughput
	}
	b.ReportMetric(tput, "items/s")
}

func BenchmarkBatchSweep1(b *testing.B) { benchBatch(b, 1) }
func BenchmarkBatchSweep2(b *testing.B) { benchBatch(b, 2) }
func BenchmarkBatchSweep4(b *testing.B) { benchBatch(b, 4) }
func BenchmarkBatchSweep8(b *testing.B) { benchBatch(b, 8) }

// --- Headline speedup vs a single personal device ---

func BenchmarkSpeedupVsSingleDevice(b *testing.B) {
	opt := bench.Options{Items: 150, TimeScale: 0.005}
	var speedup float64
	for i := 0; i < b.N; i++ {
		r, err := bench.RunSpeedup(bench.Raytrace, "MBAir 2011", opt)
		if err != nil {
			b.Fatal(err)
		}
		speedup = r.Speedup
	}
	b.ReportMetric(speedup, "speedup_x")
}

// --- Figure 4: dynamic join, crash, takeover ---

func BenchmarkFigure4Deployment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := pando.New(fmt.Sprintf("bench-fig4-%d-%d", b.N, i),
			func(v int) (int, error) { return v * v, nil },
			pando.WithBatch(2),
			pando.WithChannelConfig(pando.ChannelConfig{HeartbeatInterval: 20 * time.Millisecond}),
			pando.WithoutRegistry(),
		)
		p.AddSimulatedWorkers(1, "tablet", netsim.LAN, 0, 3) // crashes
		p.AddSimulatedWorkers(1, "phone", netsim.LAN, 0, -1)
		inputs := make([]int, 30)
		for j := range inputs {
			inputs[j] = j
		}
		if _, err := p.ProcessSlice(context.Background(), inputs); err != nil {
			b.Fatal(err)
		}
		p.Close()
	}
}

// --- Substrate micro-benchmarks ---

func BenchmarkPullStreamCountDrain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := pullstream.Drain(pullstream.Count(1000), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPullStreamMapChain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		double := pullstream.Map(func(v int) int { return v * 2 })
		keep := pullstream.Filter(func(v int) bool { return v%3 != 0 })
		if _, err := pullstream.Collect(keep(double(pullstream.Count(1000)))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamLenderInProcess(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l := lender.New[int, int]()
		out := l.Bind(pullstream.Count(500))
		done := make(chan error, 1)
		go func() {
			_, err := pullstream.Collect(out)
			done <- err
		}()
		for w := 0; w < 4; w++ {
			_, d := l.LendStream()
			go func() {
				results := make(chan int, 16)
				go d.Sink(pullstream.FromChan(results, nil))
				for {
					type ans struct {
						end error
						v   int
					}
					ch := make(chan ans, 1)
					d.Source(nil, func(end error, v int) { ch <- ans{end, v} })
					a := <-ch
					if a.end != nil {
						close(results)
						return
					}
					results <- a.v
				}
			}()
		}
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLimiterThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pending := make(chan int, 1024)
		d := pullstream.Duplex[int, int]{
			Sink: func(src pullstream.Source[int]) {
				for {
					type ans struct {
						end error
						v   int
					}
					ch := make(chan ans, 1)
					src(nil, func(end error, v int) { ch <- ans{end, v} })
					a := <-ch
					if a.end != nil {
						close(pending)
						return
					}
					pending <- a.v
				}
			},
			Source: func(abort error, cb pullstream.Callback[int]) {
				if abort != nil {
					cb(abort, 0)
					return
				}
				v, ok := <-pending
				if !ok {
					cb(pullstream.ErrDone, 0)
					return
				}
				cb(nil, v)
			},
		}
		th := sched.Gate(sched.NewController(sched.Static(8)), d)
		if _, err := pullstream.Collect(th(pullstream.Count(500))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransportRoundTrip(b *testing.B) {
	p := netsim.NewPipe(netsim.Loopback)
	defer p.Cut()
	cfg := transport.Config{HeartbeatInterval: -1}
	a := transport.NewWSock(p.A, cfg)
	c := transport.NewWSock(p.B, cfg)
	go func() {
		for {
			m, err := c.Recv()
			if err != nil {
				return
			}
			if err := c.Send(m); err != nil {
				return
			}
		}
	}()
	msg := &proto.Message{Type: proto.TypeInput, Seq: 1, Data: []byte(`"payload"`)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send(msg); err != nil {
			b.Fatal(err)
		}
		if _, err := a.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Wire benchmarks ---

// benchWireDeployment runs a full deployment — master, channel, one local
// volunteer — over the given inputs, and reports items/s.
func benchWireDeployment[I, O any](b *testing.B, name string, f func(I) (O, error), inputs []I, opts ...pando.Option) {
	b.Helper()
	opts = append(opts, pando.WithoutRegistry(), pando.WithBatch(8))
	var processed int
	start := time.Now()
	for i := 0; i < b.N; i++ {
		p := pando.New(fmt.Sprintf("%s-%d", name, i), f, opts...)
		p.AddLocalWorkers(1)
		out, err := p.ProcessSlice(context.Background(), inputs)
		p.Close()
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != len(inputs) {
			b.Fatalf("got %d results, want %d", len(out), len(inputs))
		}
		processed += len(out)
	}
	if el := time.Since(start).Seconds(); el > 0 {
		b.ReportMetric(float64(processed)/el, "items/s")
	}
}

// BenchmarkWireSmallCollatz runs the wire end to end on the small-item
// workload: JSON-string inputs, envelope-dominated frames.
func BenchmarkWireSmallCollatz(b *testing.B) {
	inputs := apps.CollatzInputs(big.NewInt(1_000_000), 64)
	f := func(n string) (int, error) {
		r, err := apps.CollatzSteps(n)
		if err != nil {
			return 0, err
		}
		return r.Steps, nil
	}
	benchWireDeployment(b, "bench-collatz", f, inputs)
}

// BenchmarkWireLargeImgproc runs the wire end to end on the large-payload
// workload: 16 KiB raw tiles through RawCodec, shipped as raw bytes and
// compressed where the adaptive policy finds it pays.
func BenchmarkWireLargeImgproc(b *testing.B) {
	tiles := make([][]byte, 16) // 128x128 grayscale, distinct per tile
	for i := range tiles {
		tiles[i] = make([]byte, 128*128)
		for j := range tiles[i] {
			tiles[i][j] = byte(i*31 + j*7)
		}
	}
	f := func(tile []byte) ([]byte, error) { return tile, nil } // transfer-bound
	benchWireDeployment(b, "bench-imgproc", f, tiles,
		pando.WithCodec[[]byte, []byte](pando.RawCodec{}, pando.RawCodec{}))
}

// --- Application-kernel benchmarks (the compute the devices perform) ---

func BenchmarkKernelCollatz(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := apps.CollatzSteps("837799"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelRaytraceFrame(b *testing.B) {
	scene := raytracer.DefaultScene()
	cam := raytracer.OrbitCamera(1.0, 6, 2.2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = scene.Render(cam, 96, 72)
	}
	b.ReportMetric(float64(96*72), "pixels/op")
}

func BenchmarkKernelMine(b *testing.B) {
	tpl := chain.Block{Index: 1, Prev: "00aa", Data: "bench", Bits: 255}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := chain.Mine(chain.Attempt{Block: tpl, Start: 0, End: 1024})
		if r.Found {
			b.Fatal("found at difficulty 255?!")
		}
	}
	b.ReportMetric(1024, "hashes/op")
}

func BenchmarkKernelBoxBlur(b *testing.B) {
	tile := landsat.GenerateTile(1, landsat.DefaultSize, landsat.DefaultSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := landsat.BoxBlur(tile, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelQLearnTrain(b *testing.B) {
	p := qlearn.Params{
		Alpha: 0.5, Gamma: 0.95, Epsilon: 0.1,
		Episodes: 50, MaxSteps: 100, Seed: 3, GridSize: 6,
	}
	var steps int
	for i := 0; i < b.N; i++ {
		o, err := qlearn.Train(p)
		if err != nil {
			b.Fatal(err)
		}
		steps = o.Steps
	}
	b.ReportMetric(float64(steps), "sim_steps/op")
}

func BenchmarkKernelSLTest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := apps.RunRandomCheck(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if !rep.OK() {
			b.Fatalf("seed %d: %v", i, rep.Violations)
		}
	}
}
