package transport

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"pando/internal/netsim"
	"pando/internal/proto"
	"pando/internal/pullstream"
)

// TestDuplexReleasesEveryFrame is the arena's release gate at the duplex:
// once MasterDuplex and WorkerServe have both returned, every result frame
// the master received and every input frame the worker received must have
// gone back to the arena. A frame that never does is still safe (the GC
// collects it, pool.go) but costs the data path its zero-alloc steady
// state, and neither the codec's nor the socket's alloc gates see the
// duplex. It runs the aliasing RawCodec, whose result frames are detached
// before release, and the copying JSONCodec.
func TestDuplexReleasesEveryFrame(t *testing.T) {
	t.Run("v2.2-raw", func(t *testing.T) {
		releaseGate(t, RawCodec{}, func(s string) []byte { return []byte(s) })
	})
	t.Run("v2.2-json", func(t *testing.T) {
		releaseGate(t, JSONCodec[string]{}, func(s string) string { return s })
	})
}

// releaseGate sends n values through a duplex/serve pair and counts the
// released frames that carry this subtest's marker, so stragglers of
// other tests never count.
func releaseGate[T any](t *testing.T, c Codec[T], value func(string) T) {
	const n = 64
	marker := "gate " + t.Name()
	var results, inputs atomic.Int64
	prev := proto.SetReleaseObserver(func(m *proto.Message) {
		if !bytes.Contains(m.Data, []byte(marker)) {
			return
		}
		switch m.Type {
		case proto.TypeResult:
			results.Add(1)
		case proto.TypeInput:
			inputs.Add(1)
		}
	})
	defer proto.SetReleaseObserver(prev)

	p := netsim.NewPipe(netsim.Loopback)
	defer p.Cut()
	cfg := Config{HeartbeatInterval: -1}
	masterCh, workerCh := NewWSock(p.A, cfg), NewWSock(p.B, cfg)

	served := make(chan error, 1)
	go func() {
		served <- WorkerServe[T, T](workerCh, c, c, func(v T) (T, error) { return v, nil }, nil)
	}()
	values := make([]T, n)
	for i := range values {
		values[i] = value(fmt.Sprintf("%s %03d", marker, i))
	}
	d := MasterDuplex[T, T](masterCh, c, c, nil)
	sunk := make(chan struct{})
	go func() { d.Sink(pullstream.Values(values...)); close(sunk) }()
	got, err := pullstream.Collect(d.Source)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("got %d results, want %d", len(got), n)
	}
	if err := <-served; err != nil {
		t.Fatalf("worker loop: %v", err)
	}
	<-sunk
	if r, i := results.Load(), inputs.Load(); r != n || i != n {
		t.Fatalf("released %d result frames on the master and %d input frames on the worker, want %d each", r, i, n)
	}
}
