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
// other tests never count.
func releaseGate[T any](t *testing.T, c Codec[T], value func(string) T) {
	const n = 64
	marker := "gate " + t.Name()
	released := countReleases(t, marker)
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
	if r, i := released.results[0].Load(), released.inputs[0].Load(); r != n || i != n {
		t.Errorf("released %d received result frames on the master and %d received input frames on the worker, want %d each", r, i, n)
	}
	if i, r := released.inputs[1].Load(), released.results[1].Load(); i != n || r != n {
		t.Errorf("released %d sent input frames on the master and %d sent result frames on the worker, want %d each", i, r, n)
	}
}

// releases counts released input and result frames: [0] received, [1]
// sent.
type releases struct{ results, inputs [2]atomic.Int64 }

// countReleases counts, until the test ends, the released frames whose
// payload or error carries marker. A frame that was written has a wire
// length and a received one has none, which tells the two apart.
func countReleases(t *testing.T, marker string) *releases {
	r := &releases{}
	prev := proto.SetReleaseObserver(func(m *proto.Message) {
		if !bytes.Contains(m.Data, []byte(marker)) && !strings.Contains(m.Err, marker) {
			return
		}
		sent := 0
		if m.WireLen() > 0 {
			sent = 1
		}
		switch m.Type {
		case proto.TypeResult:
			r.results[sent].Add(1)
		case proto.TypeInput:
			r.inputs[sent].Add(1)
		}
	})
	t.Cleanup(func() { proto.SetReleaseObserver(prev) })
	return r
}

// TestWorkerServeResultOwnership holds the serve loop's ownership rule
// with the arena's poison canary on: a result frame owns the buffer its
// handler appended to only when the result lies in it, and otherwise the
// buffer goes back to the arena at once while the result stays the
// handler's; each buffer holds at least the result before it. Five handlers: one appends to dst, one outgrows it on every
// other input, one returns its input, one returns slices of its own that
// it hands out again for repeated inputs, and one fails. Every result
// must be exact and every frame released once: a frame that owned memory
// it did not have, or gave up memory its result still used, comes back
// scribbled over.
func TestWorkerServeResultOwnership(t *testing.T) {
	defer proto.SetPoisonPut(proto.SetPoisonPut(true))
	const n = 64
	long := func(in []byte) bool { return in[len(in)-1]%2 == 1 } // odd inputs
	outgrow := func(dst, in []byte) []byte {
		r := append(dst, in...)
		for long(in) && len(r) <= 4<<10 { // past the arena's smallest class
			r = append(r, in...)
		}
		return r
	}
	own := map[string][]byte{} // the fourth handler's results, kept
	prev, short := 0, 0        // the last result's length; dst smaller than it
	for _, tc := range []struct {
		name string
		f    func(dst, in []byte) ([]byte, error)
		want func(in []byte) string // the result, or the error after "error: "
	}{
		{"appends", func(dst, in []byte) ([]byte, error) { return append(append(dst, in...), '!'), nil },
			func(in []byte) string { return string(in) + "!" }},
		{"outgrows", func(dst, in []byte) ([]byte, error) {
			if cap(dst) < prev {
				short++
			}
			r := outgrow(dst, in)
			prev = len(r)
			return r, nil
		}, func(in []byte) string { return string(outgrow(nil, in)) }},
		{"returns its input", func(_, in []byte) ([]byte, error) { return in, nil },
			func(in []byte) string { return string(in) }},
		{"returns its own", func(_, in []byte) ([]byte, error) {
			r, ok := own[string(in)]
			if !ok {
				r = append([]byte("own "), in...)
				own[string(in)] = r
			}
			return r, nil
		}, func(in []byte) string { return "own " + string(in) }},
		{"fails", func(dst, in []byte) ([]byte, error) { return append(dst, in...), fmt.Errorf("refused %s", in) },
			func(in []byte) string { return "error: refused " + string(in) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			marker := "owner " + t.Name()
			released := countReleases(t, marker)
			master, worker, _ := wsockPair(t, netsim.Loopback, Config{HeartbeatInterval: -1})
			served := make(chan error, 1)
			go func() { served <- WorkerServe(worker, tc.f, nil) }()
			inputs := make([][]byte, n)
			for i := range inputs {
				inputs[i] = []byte(fmt.Sprintf("%s %d", marker, i%8)) // each input eight times
			}
			go func() {
				for i, in := range inputs {
					_ = master.Send(&proto.Message{Type: proto.TypeInput, Seq: uint64(i + 1), Data: in})
				}
				_ = master.Send(&proto.Message{Type: proto.TypeGoodbye})
			}()
			for i := 0; i <= n; i++ {
				m, err := master.Recv()
				if err != nil {
					t.Fatal(err)
				}
				got := string(m.Data)
				if m.Err != "" {
					got = "error: " + m.Err
				}
				typ, seq := m.Type, m.Seq
				proto.Release(m)
				if i == n {
					if typ != proto.TypeGoodbye {
						t.Fatalf("got a %s frame after the last result, want the goodbye", typ)
					}
					break
				}
				if want := tc.want(inputs[i]); typ != proto.TypeResult || seq != uint64(i+1) || got != want {
					t.Fatalf("frame %d: %s %d %.40q, want result %d %.40q", i, typ, seq, got, i+1, want)
				}
			}
			if err := <-served; err != nil {
				t.Fatalf("worker loop: %v", err)
			}
			if i, r := released.inputs[0].Load(), released.results[1].Load(); i != n || r != n {
				t.Errorf("the worker released %d received input frames and %d sent result frames, want %d each", i, r, n)
			}
		})
	}
	if short > 0 {
		t.Errorf("%d handler calls got a dst smaller than the result before them", short)
	}
}

// serveThrough sends values through MasterDuplex on masterCh to an
// identity WorkerServe on workerCh and returns the results once both
// ends, and the master's send queue, are done.
func serveThrough[T any](t *testing.T, masterCh, workerCh Channel, c Codec[T], values []T) []T {
	t.Helper()
	served := make(chan error, 1)
	go func() {
		served <- serveTyped(workerCh, c, c, func(v T) (T, error) { return v, nil }, nil)
	}()
	d := typedDuplex[T, T](masterCh, c, c, nil)
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
