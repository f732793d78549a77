package transport

import (
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"pando/internal/blob"
	"pando/internal/netsim"
	"pando/internal/proto"
	"pando/internal/pullstream"
)

// TestWorkerServeStampsFirstResults: the first result of a session and
// the first after a reassign carry how long f took on their input; no
// other result does. So for result batches, and with both dedup halves
// between the master and the serve loop.
func TestWorkerServeStampsFirstResults(t *testing.T) {
	for _, tc := range []struct {
		name  string
		batch bool
		dedup bool
	}{
		{"plain", false, false},
		{"batch", true, false},
		{"plain behind dedup", false, true},
		{"batch behind dedup", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b, _ := wsockPair(t, netsim.Loopback, Config{HeartbeatInterval: -1})
			var master, worker Channel = a, b
			if tc.dedup {
				master = DedupMasterChannel(a, blob.NewIntern(0), &blob.FlowStats{})
				worker = DedupWorkerChannel(b, blob.NewCache(0))
			}
			in := routeInbox(t, master)
			slow := func(v int) (int, error) {
				time.Sleep(2 * time.Millisecond)
				return v * v, nil
			}
			served := make(chan error, 1)
			go func() {
				served <- serveTyped(worker, JSONCodec[int]{}, JSONCodec[int]{}, slow,
					func(string) (func(int) (int, error), error) { return slow, nil })
			}()

			input := func(seq uint64) *proto.Message {
				if !tc.batch {
					return &proto.Message{Type: proto.TypeInput, Seq: seq, Data: []byte(strconv.FormatUint(seq, 10))}
				}
				items := []proto.BatchItem{{D: []byte("1")}, {D: []byte("2")}}
				return &proto.Message{Type: proto.TypeInputBatch, Seq: seq, Data: proto.EncodeBatch(items)}
			}
			frames := []*proto.Message{input(1), input(2), input(3), {Type: proto.TypeReassign, Func: "next"}, input(4), input(5), {Type: proto.TypeGoodbye}}
			for _, m := range frames {
				if err := master.Send(m); err != nil {
					t.Fatal(err)
				}
			}
			var stamped []uint64 // the Seqs of stamped results
			for {
				m, err := in.Recv()
				if err != nil {
					t.Fatal(err)
				}
				typ, seq, service := m.Type, m.Seq, m.Service
				proto.Release(m)
				if typ == proto.TypeGoodbye {
					break
				}
				if typ != proto.TypeResult && typ != proto.TypeResultBatch {
					if service != 0 {
						t.Errorf("%s frame stamped %d µs", typ, service)
					}
					continue
				}
				if service == 0 {
					continue
				}
				stamped = append(stamped, seq)
				slept := uint64(2000) // µs, per value
				if tc.batch {
					slept *= 2
				}
				if service < slept {
					t.Errorf("result %d stamped %d µs, want at least the %d µs f slept", seq, service, slept)
				}
			}
			if !slices.Equal(stamped, []uint64{1, 4}) {
				t.Fatalf("stamped results %v, want [1 4]: the session's first and the first after the reassign", stamped)
			}
			if err := <-served; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// serviceMeter records what a MasterDuplex tells its meter.
type serviceMeter struct {
	mu     sync.Mutex
	served []time.Duration
}

func (m *serviceMeter) Charge(uint64, int, bool) {}

func (m *serviceMeter) Served(d time.Duration) {
	m.mu.Lock()
	m.served = append(m.served, d)
	m.mu.Unlock()
}

// TestMasterDuplexHandsStampsToMeter: every stamped result's service time
// reaches the meter once, as a duration; unstamped results tell it
// nothing; and a duplex with no meter takes stamped results as well.
func TestMasterDuplexHandsStampsToMeter(t *testing.T) {
	stamps := map[uint64]uint64{1: 1500, 3: 7} // Seq -> µs
	for _, meter := range []*serviceMeter{{}, nil} {
		master, workerCh, _ := wsockPair(t, netsim.Loopback, Config{HeartbeatInterval: -1})
		var d pullstream.Duplex[int, int]
		if meter != nil {
			d = typedDuplex(master, JSONCodec[int]{}, JSONCodec[int]{}, Meter(meter))
		} else {
			d = typedDuplex(master, JSONCodec[int]{}, JSONCodec[int]{}, nil)
		}
		go d.Sink(pullstream.Values(1, 2, 3))
		go func() {
			for {
				m, err := workerCh.Recv()
				if err != nil || m.Type != proto.TypeInput {
					return
				}
				reply := handReply(m, string(m.Data))
				reply.Service = stamps[m.Seq]
				proto.Release(m)
				if workerCh.Send(reply) != nil {
					return
				}
			}
		}()
		for want := 1; want <= 3; want++ {
			if v, err := pump(d.Source); err != nil || v != want {
				t.Fatalf("result %d: %d, %v", want, v, err)
			}
		}
		if meter == nil {
			continue
		}
		meter.mu.Lock()
		got := meter.served
		meter.mu.Unlock()
		if want := []time.Duration{1500 * time.Microsecond, 7 * time.Microsecond}; !slices.Equal(got, want) {
			t.Fatalf("meter served %v, want %v", got, want)
		}
	}
}
