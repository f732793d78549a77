package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pando/internal/apps"
	"pando/internal/blob"
	"pando/internal/core"
	"pando/internal/journal"
	"pando/internal/lender"
	"pando/internal/netsim"
	"pando/internal/proto"
	"pando/internal/pullstream"
	"pando/internal/raytracer"
	"pando/internal/shard"
	"pando/internal/transport"
	"pando/internal/verify"
)

// The ladder times each layer alone, through its public calls, on the
// two shapes the workloads use: a 7-byte decimal string (collatz-small)
// and a 16 KiB tile (tiles-16k). The cost of a rung is its number minus
// the rung below: core - lender is the scheduler gate, the end-to-end
// cpu_us_per_item minus everything here is what no rung explains.

const ladderWire = "/pando/2.2.0" // the format deployments negotiate by default

var (
	smallShape = []byte(`"1234567"`)
	tileShape  = tileGen(1, 0) // a compressible tile
)

// rungTime is how long testing.Benchmark measures one rung.
const rungTime = 150 * time.Millisecond

func initLadder() {
	testing.Init()
	_ = flag.Set("test.benchtime", rungTime.String())
}

type ladderResult map[string]float64

func perOp(r testing.BenchmarkResult, itemsPerOp int) (ns, allocs float64) {
	if r.N == 0 {
		return 0, 0
	}
	ops := float64(r.N) * float64(itemsPerOp)
	return float64(r.T.Nanoseconds()) / ops, float64(r.MemAllocs) / ops
}

// puller asks a source for one value at a time, reusing one channel and
// one callback so the harness adds no allocation per item.
type puller[T any] struct {
	src pullstream.Source[T]
	ch  chan pulled[T]
	cb  pullstream.Callback[T]
}

type pulled[T any] struct {
	end error
	v   T
}

func newPuller[T any](src pullstream.Source[T]) *puller[T] {
	p := &puller[T]{src: src, ch: make(chan pulled[T], 1)}
	p.cb = func(end error, v T) { p.ch <- pulled[T]{end, v} }
	return p
}

func (p *puller[T]) next() (T, error) {
	p.src(nil, p.cb)
	a := <-p.ch
	return a.v, a.end
}

// chanSource is a pull-stream source fed by a channel; closing the
// channel ends the stream with endErr (ErrDone when nil).
func chanSource[T any](ch <-chan T, endErr error) pullstream.Source[T] {
	if endErr == nil {
		endErr = pullstream.ErrDone
	}
	return func(abort error, cb pullstream.Callback[T]) {
		var zero T
		if abort != nil {
			cb(abort, zero)
			return
		}
		v, ok := <-ch
		if !ok {
			cb(endErr, zero)
			return
		}
		cb(nil, v)
	}
}

// serveSub plays a worker on one lending sub-stream: borrow a value,
// return its result.
func serveSub(d pullstream.Duplex[int, int]) {
	results := make(chan int, 16) // deep enough that the worker never waits for the lender to drain
	d.Sink(chanSource(results, nil))
	p := newPuller(d.Source)
	for {
		v, end := p.next()
		if end != nil {
			close(results)
			return
		}
		results <- v + 1
	}
}

// echoDuplex is an in-memory processor for core.Attach: inputs go into
// a queue, results come out of it.
func echoDuplex() pullstream.Duplex[int, int] {
	pending := make(chan int, 64) // wider than any credit window, so only the gate bounds the flow
	return pullstream.Duplex[int, int]{
		Sink: func(src pullstream.Source[int]) {
			p := newPuller(src)
			for {
				v, end := p.next()
				if end != nil {
					close(pending)
					return
				}
				pending <- v
			}
		},
		Source: chanSource(pending, nil),
	}
}

var errSubFailed = errors.New("benchmark: sub-stream failed on purpose")

func runLadder(outDir string) (ladderResult, error) {
	res := ladderResult{}
	var firstErr error
	fail := func(b *testing.B, err error) {
		if firstErr == nil {
			firstErr = err
		}
		b.SkipNow()
	}

	// Host drift: the same SHA-256 spin every result file is stamped with.
	res["bench.calib_ns"] = calibrate()

	// Kernels.
	res["apps.collatz_ns"], _ = perOp(testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := apps.CollatzSteps("1234567"); err != nil {
				fail(b, err)
			}
		}
	}), 1)
	res["apps.tile_checksum_ns"], _ = perOp(testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = tileChecksum(tileShape)
		}
	}), 1)
	frameNs, _ := perOp(testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := raytracer.RenderFrame(float64(i)*0.01, frameW, frameH); err != nil {
				fail(b, err)
			}
		}
	}), 1)
	res["raytracer.frame_us"] = frameNs / 1e3

	// proto: one frame out, one frame in.
	for _, shape := range []struct {
		name    string
		payload []byte
	}{{"small", smallShape}, {"tile", tileShape}} {
		wf, ok := proto.LookupFormat(ladderWire)
		if !ok {
			return nil, fmt.Errorf("ladder: wire format %s not supported", ladderWire)
		}
		msg := &proto.Message{Type: proto.TypeInput, Seq: 1, Data: shape.payload}
		var frame bytes.Buffer
		w := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				frame.Reset()
				if err := wf.WriteFrame(&frame, msg); err != nil {
					fail(b, err)
				}
			}
		})
		encoded := append([]byte(nil), frame.Bytes()...)
		rd := bytes.NewReader(encoded)
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rd.Reset(encoded)
				m, err := wf.ReadFrame(rd)
				if err != nil {
					fail(b, err)
				}
				proto.Release(m)
			}
		})
		wNs, wAllocs := perOp(w, 1)
		rNs, rAllocs := perOp(r, 1)
		res["proto.write_"+shape.name+"_ns"], res["proto.read_"+shape.name+"_ns"] = wNs, rNs
		if shape.name == "small" {
			res["proto.write_allocs"], res["proto.read_allocs"] = wAllocs, rAllocs
		}
	}
	// Wire bytes over payload bytes for one tile of each kind of the
	// tiles-16k cycle, written through a single channel's format instance.
	if wf, ok := proto.LookupFormat(ladderWire); ok {
		var raw, wire int
		for kind := 0; kind < 4; kind++ {
			tile := tileGen(1, kind*tilePhase)
			var frame bytes.Buffer
			if err := wf.WriteFrame(&frame, &proto.Message{Type: proto.TypeInput, Seq: uint64(kind + 1), Data: tile}); err != nil && firstErr == nil {
				firstErr = err
			}
			raw += len(tile)
			wire += frame.Len()
		}
		res["proto.tile_wire_ratio"] = float64(wire) / float64(raw)
	}

	// pullstream: Count -> Map -> Filter -> Collect.
	const chainItems = 1000
	res["pullstream.chain_ns_per_item"], res["pullstream.chain_allocs_per_item"] = perOp(testing.Benchmark(func(b *testing.B) {
		double := pullstream.Map(func(v int) int { return v * 2 })
		keep := pullstream.Filter(func(v int) bool { return v%3 != 0 })
		for i := 0; i < b.N; i++ {
			if _, err := pullstream.Collect(keep(double(pullstream.Count(chainItems)))); err != nil {
				fail(b, err)
			}
		}
	}), chainItems)

	// lender: two sub-streams, ordered output.
	const lendItems = 512
	res["lender.ns_per_item"], res["lender.allocs_per_item"] = perOp(testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l := lender.New[int, int]()
			out := l.Bind(pullstream.Count(lendItems))
			for s := 0; s < 2; s++ {
				_, d := l.LendStream()
				go serveSub(d)
			}
			if got, err := pullstream.Collect(out); err != nil || len(got) != lendItems {
				fail(b, fmt.Errorf("lender rung: %d results, %v", len(got), err))
			}
		}
	}), lendItems)

	// lender, re-lending: one sub-stream borrows a quarter of the stream,
	// answers nothing and fails; the other redoes those items.
	const held = lendItems / 4
	res["lender.relend_ns_per_item"], _ = perOp(testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l := lender.New[int, int]()
			out := l.Bind(pullstream.Count(lendItems))
			_, bad := l.LendStream()
			never := make(chan int)
			bad.Sink(chanSource(never, errSubFailed))
			p := newPuller(bad.Source)
			for k := 0; k < held; k++ {
				if _, end := p.next(); end != nil {
					break
				}
			}
			close(never)
			_, good := l.LendStream()
			go serveSub(good)
			if got, err := pullstream.Collect(out); err != nil || len(got) != lendItems {
				fail(b, fmt.Errorf("relend rung: %d results, %v", len(got), err))
			}
		}
	}), lendItems)

	// core: lender + scheduler gate + in-memory duplex, two processors.
	res["core.ns_per_item"], res["core.allocs_per_item"] = perOp(testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := core.New[int, int]()
			out := d.Bind(pullstream.Count(lendItems))
			for s := 0; s < 2; s++ {
				if err := d.Attach(fmt.Sprintf("p%d", s), echoDuplex()); err != nil {
					fail(b, err)
				}
			}
			if got, err := pullstream.Collect(out); err != nil || len(got) != lendItems {
				fail(b, fmt.Errorf("core rung: %d results, %v", len(got), err))
			}
			d.Close()
		}
	}), lendItems)

	// transport: WSock echo over a loopback pipe.
	{
		pipe := netsim.NewPipe(netsim.Loopback)
		cfg := transport.Config{HeartbeatInterval: -1}
		near, far := transport.NewWSock(pipe.A, cfg), transport.NewWSock(pipe.B, cfg)
		go func() {
			for {
				m, err := far.Recv()
				if err != nil {
					return
				}
				if err := far.Send(m); err != nil {
					return
				}
			}
		}()
		msg := &proto.Message{Type: proto.TypeInput, Seq: 1, Data: smallShape}
		ns, allocs := perOp(testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := near.Send(msg); err != nil {
					fail(b, err)
				}
				m, err := near.Recv()
				if err != nil {
					fail(b, err)
				}
				proto.Release(m)
			}
		}), 1)
		res["transport.roundtrip_us"], res["transport.roundtrip_allocs"] = ns/1e3, allocs
		pipe.Cut()
	}

	// netsim: one 1 KiB chunk through a loopback link's relay.
	{
		pipe := netsim.NewPipe(netsim.Loopback)
		go func() { _, _ = io.Copy(io.Discard, pipe.B) }()
		chunk := make([]byte, 1024)
		res["netsim.relay_ns_per_chunk"], _ = perOp(testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pipe.A.Write(chunk); err != nil {
					fail(b, err)
				}
			}
		}), 1)
		pipe.Cut()
	}

	// journal: buffered appends, then one append with its fsync.
	{
		dir, err := os.MkdirTemp(outDir, "ladder-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		j, err := journal.Open(filepath.Join(dir, "ladder.journal"), journal.Options{SyncInterval: time.Hour, SnapshotEvery: -1})
		if err != nil {
			return nil, err
		}
		idx := 0
		payload := []byte("1524155677489")
		res["journal.record_ns"], _ = perOp(testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				idx++
				if err := j.Record(idx, payload); err != nil {
					fail(b, err)
				}
			}
		}), 1)
		syncNs, _ := perOp(testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				idx++
				if err := j.Record(idx, payload); err != nil {
					fail(b, err)
				}
				if err := j.Sync(); err != nil {
					fail(b, err)
				}
			}
		}), 1)
		res["journal.sync_ms"] = syncNs / 1e6
		if err := j.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// blob: store a tile under its digest and resolve it.
	{
		cache := blob.NewCache(0)
		digest := sha256.Sum256(tileShape)
		res["blob.put_get_ns"], _ = perOp(testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := cache.Put(digest, tileShape); err != nil {
					fail(b, err)
				}
				if _, ok, err := cache.Get(digest); err != nil || !ok {
					fail(b, fmt.Errorf("blob rung: get ok=%v err=%v", ok, err))
				}
			}
		}), 1)
	}

	// verify: one index resolved by a quorum of two.
	{
		digest := verify.Digest(sha256.Sum256(smallShape))
		res["verify.vote_ns"], _ = perOp(testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v := verify.NewVoter(2)
				v.Add("a", digest)
				v.Add("b", digest)
			}
		}), 1)
	}

	// shard: ordered merge of two interleaved producers.
	const mergeItems = 1024
	res["shard.merge_ns_per_item"], _ = perOp(testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := shard.NewMerger[int](64)
			for s := 0; s < 2; s++ {
				go func() {
					for g := s; g < mergeItems; g += 2 {
						m.Insert(g, g)
					}
				}()
			}
			p := newPuller(m.Source())
			for g := 0; g < mergeItems; g++ {
				if v, end := p.next(); end != nil || v != g {
					fail(b, fmt.Errorf("merge rung: got %d (%v), want %d", v, end, g))
				}
			}
		}
	}), mergeItems)

	return res, firstErr
}
