package bench

import (
	"context"
	"fmt"
	"slices"
	"time"

	pando "pando"
	"pando/internal/netsim"
	"pando/internal/proto"
	"pando/internal/transport"
	"pando/internal/worker"
)

// This file holds ablations of the design choices DESIGN.md calls out:
// how fast the heartbeat mechanism detects crashes (the fault-tolerance
// design of §2.4.1), what ordered output costs relative to the unordered
// variant (§4.2), and why the Limiter's bound matters for adaptivity and
// not just memory (§2.4.3).

// DetectionPoint is one measurement of crash-detection latency.
type DetectionPoint struct {
	HeartbeatInterval time.Duration
	Timeout           time.Duration
	Detection         time.Duration
}

// RunFailureDetection measures, for each heartbeat interval, how long a
// *silent* crash takes to be detected: the peer keeps the connection open
// but stops answering (a frozen browser tab, a half-open TCP connection),
// so only the heartbeat timeout can expose it. The paper's
// partial-synchrony assumption (§2.3) makes this the recovery-latency
// floor: values held by a crashed device cannot be re-lent before the
// crash is suspected. An abrupt connection reset is detected immediately
// by comparison.
func RunFailureDetection(intervals []time.Duration) ([]DetectionPoint, error) {
	var out []DetectionPoint
	for _, iv := range intervals {
		cfg := transport.Config{HeartbeatInterval: iv}
		p := netsim.NewPipe(netsim.LAN)
		a := transport.NewWSock(p.A, cfg)

		// The peer answers pings by hand until told to go silent; it
		// keeps draining afterwards so backpressure does not interfere.
		silent := make(chan struct{})
		go func() {
			for {
				m, err := proto.ReadFrame(p.B)
				if err != nil {
					return
				}
				isPing := m.Type == proto.TypePing
				proto.Release(m)
				select {
				case <-silent:
					continue // frozen: reads but never answers
				default:
				}
				if isPing {
					if err := proto.WriteFrame(p.B, &proto.Message{Type: proto.TypePong}); err != nil {
						return
					}
				}
			}
		}()

		// Let heartbeats establish, then freeze the peer.
		time.Sleep(3 * iv)
		start := time.Now()
		close(silent)
		m, err := a.Recv()
		detection := time.Since(start)
		if err == nil {
			proto.Release(m)
			p.Cut()
			return nil, fmt.Errorf("bench: silent crash not detected at interval %v", iv)
		}
		a.Close()
		p.Cut()
		out = append(out, DetectionPoint{
			HeartbeatInterval: iv,
			Timeout:           cfg.HeartbeatTimeout,
			Detection:         detection,
		})
	}
	return out, nil
}

// OrderingPoint compares ordered and unordered output on one workload.
type OrderingPoint struct {
	Workers         int
	JitterPerItem   time.Duration
	OrderedItems    float64 // items/s
	UnorderedItems  float64 // items/s
	OrderedFirstOut time.Duration
}

var ablSeq int

func runOrdering(unordered bool, workers, items int, baseDelay, spread time.Duration) (float64, time.Duration, error) {
	ablSeq++
	opts := []pando.Option{
		pando.WithBatch(2),
		pando.WithoutRegistry(),
		pando.WithChannelConfig(transport.Config{HeartbeatInterval: 50 * time.Millisecond}),
	}
	if unordered {
		opts = append(opts, pando.WithUnordered())
	}
	p := pando.New(fmt.Sprintf("abl-order-%d", ablSeq),
		func(w WorkItem) (Ack, error) { return Ack{Seq: w.Seq}, nil }, opts...)
	defer p.Close()
	for w := 0; w < workers; w++ {
		delay := baseDelay + time.Duration(w)*spread
		p.AddWorker(fmt.Sprintf("w%d", w), netsim.LAN, delay, -1)
	}
	in := make(chan WorkItem)
	go func() {
		defer close(in)
		for i := 0; i < items; i++ {
			in <- WorkItem{Seq: i}
		}
	}()
	start := time.Now()
	outc, errc := p.Process(context.Background(), in)
	var firstOut time.Duration
	n := 0
	for range outc {
		if n == 0 {
			firstOut = time.Since(start)
		}
		n++
	}
	if err := <-errc; err != nil {
		return 0, 0, err
	}
	elapsed := time.Since(start)
	return float64(n) / elapsed.Seconds(), firstOut, nil
}

// RunOrderingAblation compares the default ordered mode to the unordered
// variant on a heterogeneous worker set. The declarative-concurrency
// design predicts nearly identical throughput (ordering only buffers at
// the merge point); what ordering costs is time-to-first-output when a
// slow device holds the head of the stream.
func RunOrderingAblation(workers, items int, spread time.Duration) (OrderingPoint, error) {
	ordered, firstOut, err := runOrdering(false, workers, items, time.Millisecond, spread)
	if err != nil {
		return OrderingPoint{}, err
	}
	unordered, _, err := runOrdering(true, workers, items, time.Millisecond, spread)
	if err != nil {
		return OrderingPoint{}, err
	}
	return OrderingPoint{
		Workers:         workers,
		JitterPerItem:   spread,
		OrderedItems:    ordered,
		UnorderedItems:  unordered,
		OrderedFirstOut: firstOut,
	}, nil
}

// AdaptivityPoint measures load balance under one batch size.
type AdaptivityPoint struct {
	Batch       int
	Elapsed     time.Duration
	FastItems   int
	SlowItems   int
	IdealShare  float64 // fast device's fair share given the speed ratio
	ActualShare float64
}

// RunBatchAdaptivity shows the other side of the Limiter trade-off: the
// batch must be large enough to hide latency (claim C1) but a very large
// bound lets a slow device hoard prefetched inputs, hurting adaptivity
// and completion time on heterogeneous devices. Two workers with a 10x
// speed difference process a fixed workload under several bounds.
func RunBatchAdaptivity(batches []int, items int) ([]AdaptivityPoint, error) {
	var out []AdaptivityPoint
	fast, slow := time.Millisecond, 10*time.Millisecond
	for _, b := range batches {
		ablSeq++
		p := pando.New(fmt.Sprintf("abl-adapt-%d", ablSeq),
			func(w WorkItem) (Ack, error) { return Ack{Seq: w.Seq}, nil },
			pando.WithBatch(b),
			pando.WithoutRegistry(),
			pando.WithChannelConfig(transport.Config{HeartbeatInterval: 50 * time.Millisecond}),
		)
		p.AddWorker("fast", netsim.LAN, fast, -1)
		p.AddWorker("slow", netsim.LAN, slow, -1)
		inputs := make([]WorkItem, items)
		for i := range inputs {
			inputs[i] = WorkItem{Seq: i}
		}
		start := time.Now()
		if _, err := p.ProcessSlice(context.Background(), inputs); err != nil {
			p.Close()
			return nil, err
		}
		elapsed := time.Since(start)
		var fastN, slowN int
		for _, w := range p.Stats() {
			switch w.Name {
			case "fast":
				fastN = w.Items
			case "slow":
				slowN = w.Items
			}
		}
		p.Close()
		ratio := float64(slow) / float64(fast)
		point := AdaptivityPoint{
			Batch:      b,
			Elapsed:    elapsed,
			FastItems:  fastN,
			SlowItems:  slowN,
			IdealShare: ratio / (ratio + 1),
		}
		if fastN+slowN > 0 {
			point.ActualShare = float64(fastN) / float64(fastN+slowN)
		}
		out = append(out, point)
	}
	return out, nil
}

// GroupingPoint is one group size of the grouping ablation.
type GroupingPoint struct {
	Group      int
	Window     int // values in flight per device, the same for every point
	Latency    time.Duration
	Throughput float64 // items/s
	// WireBytesPerItem counts both directions over every device's link.
	WireBytesPerItem float64
}

// RunGroupingComparison measures what sending several inputs per frame
// (the "batching inputs for distribution" of §1) buys for very small
// items over a high-latency link. The credit window is the same number of
// values for every group size — four of the largest group — so group size
// is the only variable: what moves is bytes on the wire per item (one
// envelope, Seq and digest per group instead of per value), while
// throughput at an equal window stays within noise, since the one data
// plane already coalesces frames into vectored writes.
func RunGroupingComparison(groups []int, latency time.Duration, nWorkers, items int) ([]GroupingPoint, error) {
	window := 4 * slices.Max(groups)
	f := func(w WorkItem) (Ack, error) { return Ack{Seq: w.Seq}, nil }
	hb := transport.Config{HeartbeatInterval: 100 * time.Millisecond}
	link := netsim.Link{Latency: latency, Jitter: latency / 20, Bandwidth: 4 << 20}
	inputs := make([]WorkItem, items)
	for i := range inputs {
		inputs[i] = WorkItem{Seq: i}
	}
	var out []GroupingPoint
	for _, g := range groups {
		ablSeq++
		name := fmt.Sprintf("abl-group-%d", ablSeq)
		// The links are built here rather than by AddWorker so their byte
		// counters can be read back.
		pool := pando.NewPool(pando.WithChannelConfig(hb))
		p := pando.Map(pool, name, f, pando.WithBatch(window), pando.WithGroup(g),
			pando.WithoutRegistry(), pando.WithChannelConfig(hb))
		pipes := make([]*netsim.Pipe, nWorkers)
		for w := range pipes {
			v := &worker.Volunteer{Name: fmt.Sprintf("w%d", w), Handler: pando.Handler(f), Channel: hb,
				Delay: 100 * time.Microsecond, CrashAfter: -1, Functions: []string{name}}
			pipe := netsim.NewPipe(link)
			pipes[w] = pipe
			go func() { _ = v.JoinWS(pipe.A) }()
			go func() { _ = pool.Fleet().Admit(transport.NewWSock(pipe.B, hb)) }()
		}
		start := time.Now()
		_, err := p.ProcessSlice(context.Background(), inputs)
		elapsed := time.Since(start)
		var wire int64
		for _, pipe := range pipes {
			ab, ba := pipe.Bytes()
			wire += ab + ba
			pipe.Cut()
		}
		p.Close()
		pool.Close()
		if err != nil {
			return nil, err
		}
		out = append(out, GroupingPoint{Group: g, Window: window, Latency: latency,
			Throughput:       float64(items) / elapsed.Seconds(),
			WireBytesPerItem: float64(wire) / float64(items)})
	}
	return out, nil
}
