package pando

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pando/internal/chaos"
	"pando/internal/netsim"
)

var nameSeq atomic.Int64

func uniqueName(prefix string) string {
	return fmt.Sprintf("%s-%d", prefix, nameSeq.Add(1))
}

func TestProcessSliceLocalWorkers(t *testing.T) {
	p := New(uniqueName("square"), func(v int) (int, error) { return v * v, nil })
	defer p.Close()
	p.AddLocalWorkers(4)

	inputs := make([]int, 50)
	for i := range inputs {
		inputs[i] = i + 1
	}
	got, err := p.ProcessSlice(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("got %d results, want 50", len(got))
	}
	for i, v := range got {
		if v != (i+1)*(i+1) {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestProcessChannelsStreaming(t *testing.T) {
	p := New(uniqueName("upper"), func(s string) (string, error) {
		return strings.ToUpper(s), nil
	})
	defer p.Close()
	p.AddLocalWorkers(2)

	in := make(chan string)
	outc, errc := p.Process(context.Background(), in)
	go func() {
		defer close(in)
		for _, s := range []string{"a", "b", "c"} {
			in <- s
		}
	}()
	var got []string
	for v := range outc {
		got = append(got, v)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != "A" || got[2] != "C" {
		t.Fatalf("got %v", got)
	}
}

func TestProcessContextCancellation(t *testing.T) {
	p := New(uniqueName("slow"), func(v int) (int, error) {
		time.Sleep(5 * time.Millisecond)
		return v, nil
	})
	defer p.Close()
	p.AddLocalWorkers(1)

	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan int)
	go func() {
		// Deliberately never closes in: cancellation must be what ends
		// the stream.
		i := 0
		for {
			select {
			case in <- i:
				i++
			case <-ctx.Done():
				return
			}
		}
	}()
	outc, errc := p.Process(ctx, in)
	<-outc // at least one result
	cancel()
	for range outc {
	}
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestProcessSliceCancelLeaksNoGoroutine: cancelling ProcessSlice
// mid-stream behind a slow worker ends every goroutine the call started.
// The input feeder is the one at risk: once the stream has ended, nobody
// takes its next send, so only its select on ctx.Done() lets it return.
func TestProcessSliceCancelLeaksNoGoroutine(t *testing.T) {
	guard := settledGuard()
	for i := 0; i < 5; i++ {
		p := New(uniqueName("cancel"), func(v int) (int, error) {
			time.Sleep(2 * time.Millisecond)
			return v, nil
		})
		p.AddLocalWorkers(1)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		// Whichever side sees the cancellation first — the feeder, which
		// closes the input, or the stream's watcher — a cut-short result
		// must come with the context's error.
		out, err := p.ProcessSlice(ctx, make([]int, 1000))
		if len(out) == 1000 {
			t.Fatal("the stream finished before the cancellation")
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("ProcessSlice returned %d of 1000 results with error %v, want context.DeadlineExceeded", len(out), err)
		}
		cancel()
		p.Close()
	}
	if err := guard.Check(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestCloseEndsOutstandingStream: closing the engine while results are
// still outstanding ends the bound output with an error, instead of
// leaving it open for values no volunteer will return. Both Process and
// ProcessSlice return within a second of Close.
func TestCloseEndsOutstandingStream(t *testing.T) {
	start := func() *Pando[int, int] {
		p := New(uniqueName("close"), func(v int) (int, error) { return v, nil })
		p.AddWorker("slow", netsim.Loopback, 5*time.Second, -1)
		return p
	}

	p := start()
	in := make(chan int, 4)
	for i := 0; i < 4; i++ {
		in <- i
	}
	close(in)
	out, errc := p.Process(context.Background(), in)
	time.Sleep(300 * time.Millisecond)
	p.Close()
	deadline := time.After(time.Second)
	for open := true; open; {
		select {
		case _, open = <-out:
		case <-deadline:
			t.Fatal("Process output still open 1 s after Close")
		}
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("Close ended an incomplete stream without an error")
		}
	case <-deadline:
		t.Fatal("no error 1 s after Close")
	}

	p = start()
	go func() {
		time.Sleep(300 * time.Millisecond)
		p.Close()
	}()
	res := make(chan error, 1)
	go func() {
		_, err := p.ProcessSlice(context.Background(), []int{1, 2, 3, 4})
		res <- err
	}()
	select {
	case err := <-res:
		if err == nil {
			t.Fatal("ProcessSlice returned no error for a stream cut by Close")
		}
	case <-time.After(1300 * time.Millisecond):
		t.Fatal("ProcessSlice still running 1 s after Close")
	}
}

// TestCloseAfterCompletedStreamChangesNothing: Close after every result is
// in, before the consumer has read them, leaves the stream to drain and
// end without error.
func TestCloseAfterCompletedStreamChangesNothing(t *testing.T) {
	p := New(uniqueName("close-done"), func(v int) (int, error) { return v * 2, nil })
	p.AddLocalWorkers(1)
	in := make(chan int, 4)
	for i := 0; i < 4; i++ {
		in <- i
	}
	close(in)
	out, errc := p.Process(context.Background(), in)
	for p.job.Demand() > 0 { // until the input ended and every value is answered
		time.Sleep(time.Millisecond)
	}
	p.Close()
	var got []int
	for v := range out {
		got = append(got, v)
	}
	if err := <-errc; err != nil || fmt.Sprint(got) != "[0 2 4 6]" {
		t.Fatalf("after Close: results %v, error %v; want [0 2 4 6] and none", got, err)
	}
}

// settledGuard waits for the goroutine count to hold still before it
// takes chaos.Guard's baseline: goroutines of earlier tests may still be
// winding down, and each one that exits after the baseline would hide
// one leaked by the test.
func settledGuard() *chaos.LeakGuard {
	for prev, deadline := -1, time.Now().Add(2*time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		n := runtime.NumGoroutine()
		if n == prev {
			break
		}
		prev = n
	}
	return chaos.Guard()
}

// TestProcessAbandonedOutputLeaksNoGoroutine: a caller that cancels the
// context and stops reading Process's output strands no goroutine. The
// output pump is the one at risk: with nobody reading, only its select
// on ctx.Done() lets it return, close the output and report the
// context's error.
func TestProcessAbandonedOutputLeaksNoGoroutine(t *testing.T) {
	guard := settledGuard()
	p := New(uniqueName("abandon"), func(v int) (int, error) { return v, nil })
	p.AddLocalWorkers(1)
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan int)
	go func() {
		defer close(in)
		for i := 0; ; i++ {
			select {
			case in <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	out, errc := p.Process(ctx, in)
	<-out
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no error 5s after the cancellation: the output pump is stuck sending to nobody")
	}
	if _, ok := <-out; ok {
		t.Fatal("the output delivered a value after the cancellation")
	}
	p.Close()
	if err := guard.Check(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestStructuredValues(t *testing.T) {
	type frame struct {
		Index  int     `json:"index"`
		Angle  float64 `json:"angle"`
		Pixels string  `json:"pixels,omitempty"`
	}
	p := New(uniqueName("render"), func(f frame) (frame, error) {
		f.Pixels = fmt.Sprintf("rendered@%.2f", f.Angle)
		return f, nil
	})
	defer p.Close()
	p.AddLocalWorkers(3)

	var inputs []frame
	for i := 0; i < 12; i++ {
		inputs = append(inputs, frame{Index: i, Angle: float64(i) * 0.52})
	}
	got, err := p.ProcessSlice(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range got {
		if f.Index != i || f.Pixels == "" {
			t.Fatalf("got[%d] = %+v", i, f)
		}
	}
}

func TestUnorderedOption(t *testing.T) {
	p := New(uniqueName("id"), func(v int) (int, error) { return v, nil }, WithUnordered())
	defer p.Close()
	p.AddLocalWorkers(3)
	got, err := p.ProcessSlice(context.Background(), []int{1, 2, 3, 4, 5, 6, 7, 8})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, v := range got {
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Fatalf("got %v, want all of 1..8 exactly once", got)
	}
}

func TestSimulatedWorkersCrashRecovery(t *testing.T) {
	p := New(uniqueName("inc"), func(v int) (int, error) { return v + 1, nil },
		WithBatch(2),
		WithChannelConfig(ChannelConfig{HeartbeatInterval: 20 * time.Millisecond}))
	defer p.Close()
	p.AddSimulatedWorkers(2, "crashy", netsim.LAN, time.Millisecond, 4)
	p.AddSimulatedWorkers(1, "steady", netsim.LAN, 0, -1)

	inputs := make([]int, 60)
	for i := range inputs {
		inputs[i] = i
	}
	got, err := p.ProcessSlice(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 60 {
		t.Fatalf("got %d results, want 60", len(got))
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	p := New(uniqueName("acct"), func(v int) (int, error) { return v, nil })
	defer p.Close()
	p.AddLocalWorkers(2)
	if _, err := p.ProcessSlice(context.Background(), []int{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	if p.TotalItems() != 5 {
		t.Fatalf("TotalItems = %d, want 5", p.TotalItems())
	}
	total := 0
	for _, w := range p.Stats() {
		total += w.Items
	}
	if total != 5 {
		t.Fatalf("stats total = %d, want 5", total)
	}
}

// TestStatsDeviceAliveWhileOneSessionServes: a device contributing two
// cores under one name stays alive in Stats after one of its sessions
// crashes, while the other keeps serving the open stream.
func TestStatsDeviceAliveWhileOneSessionServes(t *testing.T) {
	p := New(uniqueName("duo"), func(v int) (int, error) { return v, nil })
	defer p.Close()
	p.AddWorker("duo", netsim.Loopback, 0, 5)
	p.AddWorker("duo", netsim.Loopback, time.Millisecond, -1)

	in := make(chan int) // held open: the stream is mid-flight when Stats is read
	defer close(in)
	out, _ := p.Process(context.Background(), in)
	go func() {
		for i := 0; i < 40; i++ {
			in <- i
		}
	}()
	for i := 0; i < 40; i++ {
		select {
		case <-out:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of 40 results after 10 s\n%s", i, p.Diagnostics())
		}
	}
	// The crashed session's sub-stream ends after its detach is observed.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if _, _, _, ended := p.m.LenderStats(); ended >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the crashing session never ended\n%s", p.Diagnostics())
		}
	}
	rows := p.Stats()
	if len(rows) != 1 || rows[0].Name != "duo" || !rows[0].Alive || rows[0].Items != 40 {
		t.Fatalf("Stats = %+v, want one alive row duo with 40 items", rows)
	}
}

func TestEmptyInputCompletes(t *testing.T) {
	p := New(uniqueName("empty"), func(v int) (int, error) { return v, nil })
	defer p.Close()
	p.AddLocalWorkers(1)
	got, err := p.ProcessSlice(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %v, want empty", got)
	}
}

func TestHandlerAdapterErrors(t *testing.T) {
	h := Handler(func(v int) (int, error) {
		if v < 0 {
			return 0, errors.New("negative")
		}
		return v, nil
	})
	if _, err := h(nil, []byte("not-json")); err == nil {
		t.Fatal("expected decode error")
	}
	if _, err := h(nil, []byte("-3")); err == nil {
		t.Fatal("expected application error")
	}
	out, err := h(nil, []byte("7"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "7" {
		t.Fatalf("out = %s", out)
	}
}

func TestInfiniteStreamWithEarlyStop(t *testing.T) {
	// Laziness makes infinite input streams usable: consume a few results
	// then cancel.
	p := New(uniqueName("inf"), func(v int) (int, error) { return v * 10, nil })
	defer p.Close()
	p.AddLocalWorkers(2)

	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan int)
	go func() {
		for i := 0; ; i++ {
			select {
			case in <- i:
			case <-ctx.Done():
				close(in)
				return
			}
		}
	}()
	outc, errc := p.Process(ctx, in)
	for i := 0; i < 10; i++ {
		if _, ok := <-outc; !ok {
			t.Fatal("stream ended early")
		}
	}
	cancel()
	for range outc {
	}
	<-errc
}

func TestWithGroupEndToEnd(t *testing.T) {
	p := New(uniqueName("grouped"), func(v int) (int, error) { return v * 3, nil },
		WithBatch(8), WithGroup(4))
	defer p.Close()
	p.AddLocalWorkers(2)
	inputs := make([]int, 50)
	for i := range inputs {
		inputs[i] = i
	}
	got, err := p.ProcessSlice(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("got %d results", len(got))
	}
	for i, v := range got {
		if v != i*3 {
			t.Fatalf("got[%d] = %d (ordered through grouped frames)", i, v)
		}
	}
	// §5.1's cross-check counts values, not groups: twelve groups of four
	// and a last group of two.
	items := 0
	for _, w := range p.Stats() {
		items += w.Items
	}
	if items != 50 || p.TotalItems() != 50 {
		t.Fatalf("devices report %d items and TotalItems %d, want 50 (the values, not the groups)", items, p.TotalItems())
	}
}

func TestWithGroupCrashRecovery(t *testing.T) {
	p := New(uniqueName("grouped-crash"), func(v int) (int, error) { return v, nil },
		WithBatch(8), WithGroup(4),
		WithChannelConfig(ChannelConfig{HeartbeatInterval: 20 * time.Millisecond}))
	defer p.Close()
	p.AddSimulatedWorkers(1, "crashy", netsim.LAN, time.Millisecond, 5)
	p.AddSimulatedWorkers(1, "steady", netsim.LAN, 0, -1)
	inputs := make([]int, 60)
	for i := range inputs {
		inputs[i] = i
	}
	got, err := p.ProcessSlice(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 60 {
		t.Fatalf("got %d results", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

// TestWithGroupAndVerification: the pairing the two engines used to
// reject. Groups are the unit of replication and voting, so two distinct
// devices must agree on each group, and the audit holds one record per
// group.
func TestWithGroupAndVerification(t *testing.T) {
	p := New(uniqueName("grouped-verified"), func(v int) (int, error) { return v + 7, nil },
		WithBatch(8), WithGroup(4), WithVerification(Verification{K: 2, Quorum: 2}))
	defer p.Close()
	p.AddSimulatedWorkers(3, "dev", netsim.Loopback, 0, -1)
	inputs := make([]int, 50)
	for i := range inputs {
		inputs[i] = i
	}
	got, err := p.ProcessSlice(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("got %d results", len(got))
	}
	for i, v := range got {
		if v != i+7 {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
	audit := p.VerifyAudit()
	for wait := time.Now().Add(2 * time.Second); len(audit) < 13 && time.Now().Before(wait); audit = p.VerifyAudit() {
		time.Sleep(time.Millisecond) // records are handed over outside the lender's lock
	}
	if len(audit) != 13 {
		t.Fatalf("audit holds %d records, want 13 (50 items in groups of 4)", len(audit))
	}
	for _, a := range audit {
		if a.Votes < 2 {
			t.Fatalf("group %d accepted with %d votes, want a quorum of 2", a.Idx, a.Votes)
		}
	}
}

func TestMemoryBoundWithSpill(t *testing.T) {
	// Bounded-memory streaming end to end: a tiny window plus a spill
	// segment, fast local workers, a consumer that reads one result at a
	// time. The output must be the exact ordered stream an unbounded run
	// would produce, and the transient spill file must be gone after
	// Close.
	spillPath := filepath.Join(t.TempDir(), "job.spill")
	p := New(uniqueName("bounded"), func(v int) (int, error) { return v * 2, nil },
		WithMemoryBound(4, spillPath))
	p.AddLocalWorkers(4)

	const n = 500
	inputs := make([]int, n)
	for i := range inputs {
		inputs[i] = i
	}
	got, err := p.ProcessSlice(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("got %d results, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i*2 {
			t.Fatalf("got[%d] = %d, want %d", i, v, i*2)
		}
	}
	p.Close()
	if _, err := os.Stat(spillPath); !os.IsNotExist(err) {
		t.Fatalf("spill file still exists after Close: %v", err)
	}
}

func TestMemoryBoundBackpressureOnly(t *testing.T) {
	// The bound without a store: backpressure alone must still deliver
	// the full ordered stream, just more slowly when the consumer lags.
	p := New(uniqueName("gated"), func(v int) (int, error) { return v + 7, nil },
		WithMemoryBound(3, ""))
	defer p.Close()
	p.AddLocalWorkers(3)

	in := make(chan int)
	go func() {
		for i := 0; i < 200; i++ {
			in <- i
		}
		close(in)
	}()
	outc, errc := p.Process(context.Background(), in)
	i := 0
	for v := range outc {
		if v != i+7 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i+7)
		}
		i++
		if i%10 == 0 {
			time.Sleep(time.Millisecond) // lagging consumer
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if i != 200 {
		t.Fatalf("got %d results, want 200", i)
	}
}
