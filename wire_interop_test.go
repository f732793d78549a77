package pando_test

// End-to-end tests of the '/pando/2.2.0' wire: the plain and grouped data
// planes and raw []byte payloads round-trip through a whole deployment.

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	pando "pando"
)

// TestWireV3PlainEndToEnd: the plain data plane round-trips over the
// '/pando/2.2.0' wire.
func TestWireV3PlainEndToEnd(t *testing.T) {
	p := pando.New("wire2-square", func(v int) (int, error) { return v * v, nil },
		pando.WithoutRegistry())
	defer p.Close()
	p.AddLocalWorkers(2)

	inputs := make([]int, 30)
	for i := range inputs {
		inputs[i] = i
	}
	out, err := p.ProcessSlice(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestWireV3GroupedEndToEnd: the grouped data plane (several values per
// frame) round-trips over binary batches.
func TestWireV3GroupedEndToEnd(t *testing.T) {
	p := pando.New("wire2-grouped", func(v int) (int, error) { return v + 1, nil },
		pando.WithoutRegistry(), pando.WithGroup(4), pando.WithBatch(8))
	defer p.Close()
	p.AddLocalWorkers(2)

	inputs := make([]int, 41) // not a multiple of the group size
	for i := range inputs {
		inputs[i] = i
	}
	out, err := p.ProcessSlice(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(inputs) {
		t.Fatalf("got %d results, want %d", len(out), len(inputs))
	}
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i+1)
		}
	}
}

// TestWireRawCodecEndToEnd: WithCodec(RawCodec) moves []byte values
// through the deployment without any payload serialization.
func TestWireRawCodecEndToEnd(t *testing.T) {
	reverse := func(b []byte) ([]byte, error) {
		out := make([]byte, len(b))
		for i, c := range b {
			out[len(b)-1-i] = c
		}
		return out, nil
	}
	p := pando.New("wire2-reverse", reverse,
		pando.WithoutRegistry(),
		pando.WithCodec[[]byte, []byte](pando.RawCodec{}, pando.RawCodec{}))
	defer p.Close()
	p.AddLocalWorkers(2)

	inputs := [][]byte{[]byte("pando"), {0x00, 0xB2, 0xFF}, bytes.Repeat([]byte{7}, 1024)}
	out, err := p.ProcessSlice(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(inputs) {
		t.Fatalf("got %d results", len(out))
	}
	for i, got := range out {
		want, _ := reverse(inputs[i])
		if !bytes.Equal(got, want) {
			t.Fatalf("out[%d] = %x, want %x", i, got, want)
		}
	}
}

// TestWithCodecMismatchPanics: a codec for the wrong value type is a
// programming error surfaced at construction, not at first encode.
func TestWithCodecMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched codec did not panic")
		}
	}()
	pando.New("wire-mismatch", func(v int) (int, error) { return v, nil },
		pando.WithoutRegistry(),
		pando.WithCodec[string, string](pando.JSONCodec[string]{}, pando.JSONCodec[string]{}))
}

// TestProcessReleasesContextWatcher: the cancellation watcher goroutine
// must exit when the stream completes before the context is cancelled
// (the pando.go goroutine leak of ISSUE 1).
func TestProcessReleasesContextWatcher(t *testing.T) {
	var cancels []context.CancelFunc
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()

	before := runtime.NumGoroutine()
	const rounds = 20
	for i := 0; i < rounds; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancels = append(cancels, cancel) // deliberately not cancelled yet
		p := pando.New(fmt.Sprintf("leak-%d", i), func(v int) (int, error) { return v, nil },
			pando.WithoutRegistry())
		p.AddLocalWorkers(1)
		if _, err := p.ProcessSlice(ctx, []int{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		p.Close()
	}

	// Transport goroutines wind down asynchronously after Close; the
	// watcher goroutines of the fixed code exit with them. The leaked
	// watchers of the old code would keep the count elevated by ~rounds
	// until the deferred cancels run.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+rounds/2 {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("goroutine count stayed at %d (started at %d): context watchers leaked",
		runtime.NumGoroutine(), before)
}
