package transport

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"pando/internal/blob"
	"pando/internal/netsim"
	"pando/internal/proto"
	"pando/internal/pullstream"
)

// TestDuplexReleasesEveryFrame is the arena's release gate at the duplex:
// once MasterDuplex and WorkerServe have both returned, every frame each
// side received and every frame each side sent must have gone back to the
// arena — the master's results and inputs, the worker's inputs and
// results. A frame that never does is still safe (the GC collects it,
// pool.go) but costs the data path its zero-alloc steady state, and
// neither the codec's nor the socket's alloc gates see the duplex. It runs
// the aliasing RawCodec, whose result frames are detached before release,
// and the copying JSONCodec, whose inputs are encoded into pooled buffers.
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
// other tests never count. A frame that was written has a wire length and
// a received one has none, which tells the two apart.
func releaseGate[T any](t *testing.T, c Codec[T], value func(string) T) {
	const n = 64
	marker := "gate " + t.Name()
	var results, inputs [2]atomic.Int64 // [0] received, [1] sent
	prev := proto.SetReleaseObserver(func(m *proto.Message) {
		if !bytes.Contains(m.Data, []byte(marker)) {
			return
		}
		sent := 0
		if m.WireLen() > 0 {
			sent = 1
		}
		switch m.Type {
		case proto.TypeResult:
			results[sent].Add(1)
		case proto.TypeInput:
			inputs[sent].Add(1)
		}
	})
	defer proto.SetReleaseObserver(prev)

	values := make([]T, n)
	for i := range values {
		values[i] = value(fmt.Sprintf("%s %03d", marker, i))
	}
	p := netsim.NewPipe(netsim.Loopback)
	defer p.Cut()
	cfg := Config{HeartbeatInterval: -1}
	if got := serveThrough(t, NewWSock(p.A, cfg), NewWSock(p.B, cfg), c, values); len(got) != n {
		t.Fatalf("got %d results, want %d", len(got), n)
	}
	if r, i := results[0].Load(), inputs[0].Load(); r != n || i != n {
		t.Errorf("released %d received result frames on the master and %d received input frames on the worker, want %d each", r, i, n)
	}
	if i, r := inputs[1].Load(), results[1].Load(); i != n || r != n {
		t.Errorf("released %d sent input frames on the master and %d sent result frames on the worker, want %d each", i, r, n)
	}
}

// serveThrough sends values through MasterDuplex on masterCh to an
// identity WorkerServe on workerCh and returns the results once both
// ends, and the master's send queue, are done.
func serveThrough[T any](t *testing.T, masterCh, workerCh Channel, c Codec[T], values []T) []T {
	t.Helper()
	served := make(chan error, 1)
	go func() {
		served <- WorkerServe[T, T](workerCh, c, c, func(v T) (T, error) { return v, nil }, nil)
	}()
	d := MasterDuplex[T, T](masterCh, c, c, nil)
	sunk := make(chan struct{})
	go func() { d.Sink(pullstream.Values(values...)); close(sunk) }()
	got, err := pullstream.Collect(d.Source)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("worker loop: %v", err)
	}
	<-sunk
	return got
}

// TestDuplexPoisonCanary runs a duplex/serve pair with the arena's poison
// canary on: every buffer returned to the arena is scribbled over first,
// so a frame whose buffer is reused after its write, or recycled before
// it, comes back as a corrupted result. It runs JSONCodec, whose inputs
// are encoded into pooled buffers, the zero-copy RawCodec, whose replies
// alias their input frames, and JSON behind both dedup wrappers with
// payloads of 1 KiB and more repeating, so that interning, references and
// cache hits all happen.
func TestDuplexPoisonCanary(t *testing.T) {
	defer proto.SetPoisonPut(proto.SetPoisonPut(true))
	const n = 200
	pair := func(t *testing.T) (Channel, Channel) {
		p := netsim.NewPipe(netsim.Loopback)
		t.Cleanup(p.Cut)
		cfg := Config{HeartbeatInterval: -1}
		return NewWSock(p.A, cfg), NewWSock(p.B, cfg)
	}
	check := func(t *testing.T, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatal("results differ from their inputs")
		}
	}
	t.Run("json", func(t *testing.T) {
		values := make([]string, n)
		for i := range values {
			values[i] = fmt.Sprintf("canary %03d %s", i, strings.Repeat("j", i))
		}
		masterCh, workerCh := pair(t)
		check(t, serveThrough(t, masterCh, workerCh, JSONCodec[string]{}, values), values)
	})
	t.Run("raw", func(t *testing.T) {
		values := make([][]byte, n)
		for i := range values {
			values[i] = dedupPayload(byte(i), 64+i)
		}
		masterCh, workerCh := pair(t)
		check(t, serveThrough(t, masterCh, workerCh, RawCodec{}, values), values)
	})
	t.Run("dedup", func(t *testing.T) {
		values := make([]string, n)
		for i := range values {
			values[i] = fmt.Sprintf("canary %d %s", i%5, strings.Repeat("d", 1024+i%5))
		}
		masterCh, workerCh := pair(t)
		stats := &blob.FlowStats{}
		masterCh = DedupMasterChannel(masterCh, blob.NewIntern(0), stats)
		workerCh = DedupWorkerChannel(workerCh, blob.NewCache(0))
		check(t, serveThrough(t, masterCh, workerCh, JSONCodec[string]{}, values), values)
		if stats.Hits.Load() == 0 {
			t.Fatal("no payload travelled as a reference")
		}
	})
}
