package transport

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"pando/internal/netsim"
	"pando/internal/proto"
	"pando/internal/pullstream"
)

// TestSendBatchDeliversInOrder packs many frames into one vectored write
// and checks the peer reads them back individually, in order: once with
// every body small enough to stay raw, and once with raw and compressed
// bodies mixed, as the adaptive writer produces them.
func TestSendBatchDeliversInOrder(t *testing.T) {
	small := func(i int) string { return fmt.Sprintf(`"payload-%d"`, i) }
	for _, tc := range []struct {
		name    string
		payload func(i int) string
	}{
		{"raw", small},
		{"mixed", func(i int) string {
			if i%5 == 0 { // large and compressible: goes out deflated
				return strings.Repeat(small(i), 100)
			}
			return small(i)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{HeartbeatInterval: -1}
			p := netsim.NewPipe(netsim.Loopback)
			defer p.Cut()
			a := NewWSock(p.A, cfg)
			b := NewWSock(p.B, cfg)

			const n = 50
			ms := make([]*proto.Message, 0, n)
			for i := 1; i <= n; i++ {
				ms = append(ms, &proto.Message{Type: proto.TypeInput, Seq: uint64(i), Data: []byte(tc.payload(i))})
			}
			if err := a.SendBatch(ms); err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= n; i++ {
				m, err := b.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if m.Seq != uint64(i) {
					t.Fatalf("frame %d: seq %d", i, m.Seq)
				}
				if want := tc.payload(i); string(m.Data) != want {
					t.Fatalf("frame %d: data %q, want %q", i, m.Data, want)
				}
				proto.Release(m)
			}
		})
	}
}

// TestSendBatchConcurrentWithSend checks batches stay atomic against
// interleaved single sends: every frame must arrive intact, never torn.
func TestSendBatchConcurrentWithSend(t *testing.T) {
	cfg := Config{HeartbeatInterval: -1}
	p := netsim.NewPipe(netsim.Loopback)
	defer p.Cut()
	a := NewWSock(p.A, cfg)
	b := NewWSock(p.B, cfg)

	const senders, per = 4, 25
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			if s%2 == 0 {
				ms := make([]*proto.Message, 0, per)
				for i := 0; i < per; i++ {
					ms = append(ms, &proto.Message{Type: proto.TypeInput, Seq: 1, Data: []byte("batched")})
				}
				if err := a.SendBatch(ms); err != nil {
					t.Error(err)
				}
			} else {
				for i := 0; i < per; i++ {
					if err := a.Send(&proto.Message{Type: proto.TypeInput, Seq: 1, Data: []byte("singled")}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
	for i := 0; i < senders*per; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if s := string(m.Data); s != "batched" && s != "singled" {
			t.Fatalf("frame %d corrupted: %q", i, s)
		}
		proto.Release(m)
	}
}

// TestMasterDuplexRawCodec pushes []byte payloads through the duplex
// with the aliasing codec on both ends, the pooled worst case: results
// must come back intact even though every frame buffer recycles through
// the arena.
func TestMasterDuplexRawCodec(t *testing.T) {
	cfg := Config{HeartbeatInterval: -1}
	p := netsim.NewPipe(netsim.Loopback)
	defer p.Cut()
	masterCh := NewWSock(p.A, cfg)
	workerCh := NewWSock(p.B, cfg)

	go WorkerServe(workerCh, func(_, v []byte) ([]byte, error) {
		return v, nil // identity: threads the input buffer through to the reply
	}, nil)

	const n = 200
	inputs := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		inputs = append(inputs, []byte(fmt.Sprintf("tile-%04d", i)))
	}
	d := typedDuplex[[]byte, []byte](masterCh, RawCodec{}, RawCodec{}, nil)
	go d.Sink(pullstream.Values(inputs...))
	got, err := pullstream.Collect(d.Source)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("got %d results, want %d", len(got), n)
	}
	for i, v := range got {
		if want := fmt.Sprintf("tile-%04d", i); string(v) != want {
			t.Fatalf("got[%d] = %q, want %q", i, v, want)
		}
	}
}
