package fleet

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"pando/internal/netsim"
	"pando/internal/proto"
	"pando/internal/transport"
)

// fakeJob records leases and lets tests control demand.
type fakeJob struct {
	name string

	mu      sync.Mutex
	demand  int
	refuse  error // returned by Lease, as by a job closing concurrently
	leases  []*inbox
	workers []string
	leaseC  chan *inbox
}

func newFakeJob(name string, demand int) *fakeJob {
	return &fakeJob{name: name, demand: demand, leaseC: make(chan *inbox, 8)}
}

func (j *fakeJob) Name() string { return j.name }
func (j *fakeJob) Demand() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.demand
}
func (j *fakeJob) setDemand(d int) {
	j.mu.Lock()
	j.demand = d
	j.mu.Unlock()
}
func (j *fakeJob) Lease(worker string, ch transport.Channel) error {
	j.mu.Lock()
	if j.refuse != nil {
		j.mu.Unlock()
		return j.refuse
	}
	in := newInbox(ch)
	j.leases = append(j.leases, in)
	j.workers = append(j.workers, worker)
	j.mu.Unlock()
	j.leaseC <- in
	return nil
}

// inbox stands in for a job's handler on a lease: it queues what the
// lease routes, for the test to read back frame by frame.
type inbox struct {
	transport.Channel
	q chan routed
}

type routed struct {
	m   *proto.Message
	err error
}

func newInbox(ch transport.Channel) *inbox {
	in := &inbox{Channel: ch, q: make(chan routed, 1024)}
	ch.Route(func(m *proto.Message, err error) { in.q <- routed{m, err} })
	return in
}

// Recv returns the next routed frame; once the end came, the end again.
func (in *inbox) Recv() (*proto.Message, error) {
	r := <-in.q
	if r.m == nil {
		in.q <- r
	}
	return r.m, r.err
}

// receiver is what the tests read frames from: a raw volunteer's WSock or
// a lease's inbox.
type receiver interface {
	Recv() (*proto.Message, error)
}

func (j *fakeJob) waitLease(t *testing.T) *inbox {
	t.Helper()
	select {
	case ch := <-j.leaseC:
		return ch
	case <-time.After(5 * time.Second):
		t.Fatalf("job %s never received a lease", j.name)
		return nil
	}
}

// rawVolunteer opens a channel to the pool and performs the hello half.
func rawVolunteer(t *testing.T, p *Pool, hello *proto.Message) *transport.WSock {
	t.Helper()
	pipe := netsim.NewPipe(netsim.Loopback)
	cfg := transport.Config{HeartbeatInterval: -1}
	go func() { _ = p.Admit(transport.NewWSock(pipe.B, cfg)) }()
	ch := transport.NewWSock(pipe.A, cfg)
	hello.Type = proto.TypeHello
	hello.Version = proto.Version
	if err := ch.Send(hello); err != nil {
		t.Fatal(err)
	}
	return ch
}

func recvType(t *testing.T, ch receiver, want proto.Type) *proto.Message {
	t.Helper()
	m, err := ch.Recv()
	if err != nil {
		t.Fatalf("recv awaiting %q: %v", want, err)
	}
	if m.Type != want {
		t.Fatalf("recv = %+v, want type %q", m, want)
	}
	return m
}

// TestPoolRoutesByFunctions: the welcome names a job the volunteer's
// advertised list can serve, and incompatible volunteers are refused.
func TestPoolRoutesByFunctions(t *testing.T) {
	p := NewPool(Config{Rebalance: -1})
	defer p.Close()
	jobA := newFakeJob("job-a", 1)
	jobB := newFakeJob("job-b", 1)
	if err := p.Register(jobA); err != nil {
		t.Fatal(err)
	}
	if err := p.Register(jobB); err != nil {
		t.Fatal(err)
	}

	ch := rawVolunteer(t, p, &proto.Message{Peer: "only-b", Functions: []string{"job-b"}})
	w := recvType(t, ch, proto.TypeWelcome)
	if w.Func != "job-b" {
		t.Fatalf("welcome routed to %q, want job-b", w.Func)
	}
	jobB.waitLease(t)

	// A volunteer that serves nothing registered is refused.
	ch2 := rawVolunteer(t, p, &proto.Message{Peer: "misfit", Functions: []string{"job-zzz"}})
	if m, err := ch2.Recv(); err == nil && m.Type != proto.TypeError {
		t.Fatalf("misfit got %+v, want error refusal", m)
	}
}

// TestPoolReassignBarrier walks the whole handover protocol on the wire:
// job A's goodbye is intercepted, the worker sees a reassign naming job
// B, its echo completes the barrier, and the same connection starts
// serving job B — while job A's lease ends with a synthesized goodbye.
func TestPoolReassignBarrier(t *testing.T) {
	p := NewPool(Config{Rebalance: -1})
	defer p.Close()
	jobA := newFakeJob("job-a", 1)
	jobB := newFakeJob("job-b", 0) // closed for routing until A completes
	if err := p.Register(jobA); err != nil {
		t.Fatal(err)
	}
	if err := p.Register(jobB); err != nil {
		t.Fatal(err)
	}

	ch := rawVolunteer(t, p, &proto.Message{Peer: "dev", Functions: []string{"job-a", "job-b"}})
	w := recvType(t, ch, proto.TypeWelcome)
	if w.Func != "job-a" {
		t.Fatalf("first welcome = %q, want job-a (the only open job)", w.Func)
	}
	leaseA := jobA.waitLease(t)

	// The job computes: one input crosses, one result returns.
	if err := leaseA.Send(&proto.Message{Type: proto.TypeInput, Seq: 1, Data: []byte(`1`)}); err != nil {
		t.Fatal(err)
	}
	in := recvType(t, ch, proto.TypeInput)
	if err := ch.Send(&proto.Message{Type: proto.TypeResult, Seq: in.Seq, Data: []byte(`2`)}); err != nil {
		t.Fatal(err)
	}
	res := recvTypeCh(t, leaseA, proto.TypeResult)
	if string(res.Data) != `2` {
		t.Fatalf("result = %s", res.Data)
	}

	// Job A completes for this worker; job B is open now.
	jobA.setDemand(0)
	jobB.setDemand(1)
	if err := leaseA.Send(&proto.Message{Type: proto.TypeGoodbye}); err != nil {
		t.Fatal(err)
	}
	// Worker side: reassign names job B...
	re := recvType(t, ch, proto.TypeReassign)
	if re.Func != "job-b" {
		t.Fatalf("reassign = %+v, want job-b", re)
	}
	// ...while job A's lease ends with a synthesized goodbye.
	recvTypeCh(t, leaseA, proto.TypeGoodbye)
	if _, err := leaseA.Recv(); err == nil {
		t.Fatal("lease A still readable after its goodbye")
	}
	// Sends on the dead lease must not reach the worker.
	if err := leaseA.Send(&proto.Message{Type: proto.TypeInput, Seq: 9}); err == nil {
		t.Fatal("send on a released lease succeeded")
	}

	// The echo completes the barrier; job B gets the same connection.
	if err := ch.Send(&proto.Message{Type: proto.TypeReassign, Func: re.Func}); err != nil {
		t.Fatal(err)
	}
	leaseB := jobB.waitLease(t)
	if err := leaseB.Send(&proto.Message{Type: proto.TypeInput, Seq: 1, Data: []byte(`10`)}); err != nil {
		t.Fatal(err)
	}
	in2 := recvType(t, ch, proto.TypeInput)
	if string(in2.Data) != `10` {
		t.Fatalf("job B input = %s", in2.Data)
	}
	if err := ch.Send(&proto.Message{Type: proto.TypeResult, Seq: in2.Seq, Data: []byte(`20`)}); err != nil {
		t.Fatal(err)
	}
	res2 := recvTypeCh(t, leaseB, proto.TypeResult)
	if string(res2.Data) != `20` {
		t.Fatalf("job B result = %s", res2.Data)
	}

	// Worker-set accounting shows the device leased to job B.
	var leased *WorkerInfo
	for _, wi := range p.Workers() {
		wi := wi
		if wi.Name == "dev" {
			leased = &wi
		}
	}
	if leased == nil || leased.Job != "job-b" || leased.State != "leased" {
		t.Fatalf("worker set = %+v, want dev leased to job-b", p.Workers())
	}
}

// recvTypeCh is recvType for a lease (pool-side channel).
func recvTypeCh(t *testing.T, ch receiver, want proto.Type) *proto.Message {
	t.Helper()
	m, err := ch.Recv()
	if err != nil {
		t.Fatalf("lease recv awaiting %q: %v", want, err)
	}
	if m.Type != want {
		t.Fatalf("lease recv = %+v, want type %q", m, want)
	}
	return m
}

// TestPoolDismissesWhenNoNextJob: with no other job the volunteer
// serves, the pool forwards the goodbye for real and the volunteer leaves
// — the old single-master end-of-stream behavior. A volunteer that
// advertised no functions serves only the job its first successful lease
// went to: neither a release nor the fair-share scan moves it to another
// open job, and a job that refuses its lease does not pin it.
func TestPoolDismissesWhenNoNextJob(t *testing.T) {
	for _, tc := range []struct {
		name      string
		functions []string
		jobs      []string // open jobs, in registration order
		refuse    string   // job refusing leases, as a closing job does
		leased    string   // job the volunteer is leased to
	}{
		{"advertised list, one job", []string{"job-a"}, []string{"job-a"}, "", "job-a"},
		{"empty list, two open jobs", nil, []string{"job-a", "job-b"}, "", "job-a"},
		{"empty list, first job refuses", nil, []string{"job-a", "job-b"}, "job-a", "job-b"},
		{"wildcard, first job refuses", []string{"*"}, []string{"job-a", "job-b"}, "job-a", "job-b"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPool(Config{Rebalance: -1})
			defer p.Close()
			jobs := make(map[string]*fakeJob)
			for _, name := range tc.jobs {
				jobs[name] = newFakeJob(name, 1)
				if name == tc.refuse {
					jobs[name].refuse = errors.New("job closing")
				}
				if err := p.Register(jobs[name]); err != nil {
					t.Fatal(err)
				}
			}
			ch := rawVolunteer(t, p, &proto.Message{Peer: "dev", Functions: tc.functions})
			recvType(t, ch, proto.TypeWelcome)
			if tc.refuse != "" {
				// The welcome named the job that refused: the next one
				// arrives in a reassign frame, before any input, and is
				// leased on the echo.
				got := make(chan *proto.Message, 1)
				go func() {
					m, _ := ch.Recv()
					got <- m
				}()
				select {
				case m := <-got:
					if m == nil || m.Type != proto.TypeReassign || m.Func != tc.leased {
						t.Fatalf("after the welcome: %+v, want a reassign to %s", m, tc.leased)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("no reassign to %s after the welcome named %s", tc.leased, tc.refuse)
				}
				if err := ch.Send(&proto.Message{Type: proto.TypeReassign, Func: tc.leased}); err != nil {
					t.Fatal(err)
				}
			}
			held := jobs[tc.leased]
			lease := held.waitLease(t)
			if refusing := jobs[tc.refuse]; refusing != nil && slices.Contains(tc.functions, "*") {
				// A closing job has nothing left to lend; with demand the
				// scan would move a "*" volunteer back to it. The pinned
				// empty-list volunteer keeps it as the scan's receiver.
				refusing.setDemand(0)
			}

			// A lease-less open job is the scan's receiver; the volunteer
			// must not be the donor's victim.
			p.rebalanceOnce()
			held.setDemand(0)
			if err := lease.Send(&proto.Message{Type: proto.TypeGoodbye}); err != nil {
				t.Fatal(err)
			}
			recvType(t, ch, proto.TypeGoodbye)
			// The worker replies goodbye and hangs up, like a real serve loop.
			_ = ch.Send(&proto.Message{Type: proto.TypeGoodbye})
			ch.Close()

			waitWorkers(t, p, func(ws []WorkerInfo) bool { return len(ws) == 0 })
			for name, j := range jobs {
				j.mu.Lock()
				n := len(j.leases)
				j.mu.Unlock()
				want := 0
				if j == held {
					want = 1
				}
				if n != want {
					t.Fatalf("%s holds %d leases, want %d", name, n, want)
				}
			}
		})
	}
}

// TestPoolSeversPreviousIncarnation: a rejoin hello (Seq > 0, same
// instance token) closes the departed incarnation's session immediately.
func TestPoolSeversPreviousIncarnation(t *testing.T) {
	p := NewPool(Config{Rebalance: -1})
	defer p.Close()
	job := newFakeJob("job-a", 1)
	if err := p.Register(job); err != nil {
		t.Fatal(err)
	}

	ch1 := rawVolunteer(t, p, &proto.Message{Peer: "w", Token: "inst-1", Seq: 0, Functions: []string{"job-a"}})
	recvType(t, ch1, proto.TypeWelcome)
	job.waitLease(t)

	ch2 := rawVolunteer(t, p, &proto.Message{Peer: "w", Token: "inst-1", Seq: 1, Functions: []string{"job-a"}})
	recvType(t, ch2, proto.TypeWelcome)
	job.waitLease(t)

	// The first incarnation's channel fails promptly (severed), without
	// any heartbeat machinery running.
	done := make(chan struct{})
	go func() {
		for {
			if _, err := ch1.Recv(); err != nil {
				close(done)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("previous incarnation was not severed on rejoin")
	}

	// An unrelated device with its own token is untouched: its channel
	// must still be alive after the rejoin severing settled.
	ch3 := rawVolunteer(t, p, &proto.Message{Peer: "w2", Token: "inst-2", Seq: 0, Functions: []string{"job-a"}})
	recvType(t, ch3, proto.TypeWelcome)
	job.waitLease(t)
	severed := make(chan error, 1)
	go func() {
		_, err := ch3.Recv()
		severed <- err
	}()
	select {
	case err := <-severed:
		t.Fatalf("unrelated session severed: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestPoolParkedVolunteerLeasedOnRegister: volunteers admitted before
// any job park pre-welcome and lease as soon as a job registers, whether
// they advertise a list or none; the router sees a parked volunteer hang
// up and prunes it from the worker set.
func TestPoolParkedVolunteerLeasedOnRegister(t *testing.T) {
	for _, tc := range []struct {
		name      string
		functions []string
	}{
		{"wildcard", []string{"*"}},
		{"empty list", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPool(Config{Rebalance: -1})
			defer p.Close()

			ch := rawVolunteer(t, p, &proto.Message{Peer: "early", Functions: tc.functions})
			quitter := rawVolunteer(t, p, &proto.Message{Peer: "quitter", Functions: tc.functions})
			waitWorkers(t, p, func(ws []WorkerInfo) bool {
				return len(ws) == 2 && ws[0].State == "parked" && ws[1].State == "parked"
			})
			quitter.Close()
			waitWorkers(t, p, func(ws []WorkerInfo) bool {
				return len(ws) == 1 && ws[0].Name == "early" && ws[0].State == "parked"
			})

			job := newFakeJob("late-job", 1)
			if err := p.Register(job); err != nil {
				t.Fatal(err)
			}
			w := recvType(t, ch, proto.TypeWelcome)
			if w.Func != "late-job" {
				t.Fatalf("welcome = %+v", w)
			}
			job.waitLease(t)
			if job.workers[0] != "early" || len(job.leaseC) != 0 {
				t.Fatalf("leased workers = %v, want only early", job.workers)
			}
		})
	}
}

// waitWorkers polls the worker set until ok accepts it.
func waitWorkers(t *testing.T, p *Pool, ok func([]WorkerInfo) bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for ws := p.Workers(); !ok(ws); ws = p.Workers() {
		if time.Now().After(deadline) {
			t.Fatalf("worker set = %+v", ws)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPoolQuarantine: quarantining a name severs its live sessions
// (crash-stop, so the job re-lends whatever the cheater held) and bans
// the name from re-admission — rejoining under the same accounting name
// is refused at the hello.
func TestPoolQuarantine(t *testing.T) {
	p := NewPool(Config{Rebalance: -1})
	defer p.Close()
	job := newFakeJob("job-a", 1)
	if err := p.Register(job); err != nil {
		t.Fatal(err)
	}

	ch := rawVolunteer(t, p, &proto.Message{Peer: "cheat", Functions: []string{"job-a"}})
	recvType(t, ch, proto.TypeWelcome)
	job.waitLease(t)

	p.Quarantine("cheat")
	if !p.Quarantined("cheat") {
		t.Fatal("name not recorded as quarantined")
	}
	// The live session's channel was closed: the volunteer side observes
	// the failure (possibly after draining in-flight control frames).
	deadline := time.After(5 * time.Second)
	for {
		if _, err := ch.Recv(); err != nil {
			break
		}
		select {
		case <-deadline:
			t.Fatal("quarantined session's channel never failed")
		default:
		}
	}

	// Rejoining under the banned name is refused with an error frame.
	ch2 := rawVolunteer(t, p, &proto.Message{Peer: "cheat", Functions: []string{"job-a"}})
	m, err := ch2.Recv()
	if err == nil && m.Type != proto.TypeError {
		t.Fatalf("banned rejoin got %+v, want error refusal", m)
	}

	// An honest name is unaffected.
	ch3 := rawVolunteer(t, p, &proto.Message{Peer: "honest", Functions: []string{"job-a"}})
	recvType(t, ch3, proto.TypeWelcome)
}

// closingJob ends each lease from inside its handler at the first frame,
// as MasterDuplex's result source does on a frame it rejects.
type closingJob struct {
	*fakeJob
	got chan routed
}

func (j *closingJob) Lease(_ string, ch transport.Channel) error {
	ch.Route(func(m *proto.Message, err error) {
		j.got <- routed{m, err}
		if m != nil {
			ch.Close()
		}
	})
	return nil
}

// TestLeaseHandlerMayEndLease: the lease runs its job's handler holding
// no lock, so a handler that ends the lease gets its end after the frame
// instead of deadlocking the read loop.
func TestLeaseHandlerMayEndLease(t *testing.T) {
	p := NewPool(Config{Rebalance: -1})
	defer p.Close()
	job := &closingJob{fakeJob: newFakeJob("job", 1), got: make(chan routed, 4)}
	if err := p.Register(job); err != nil {
		t.Fatal(err)
	}
	ch := rawVolunteer(t, p, &proto.Message{Peer: "dev", Functions: []string{"job"}})
	recvType(t, ch, proto.TypeWelcome)
	if err := ch.Send(&proto.Message{Type: proto.TypeResult, Seq: 1, Data: []byte(`1`)}); err != nil {
		t.Fatal(err)
	}
	for i, want := range []proto.Type{proto.TypeResult, ""} {
		select {
		case r := <-job.got:
			if (want == "") != (r.m == nil) || (r.m != nil && r.m.Type != want) {
				t.Fatalf("handler call %d got %+v (err %v), want the result, then the end", i, r.m, r.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("handler call %d never came: the lease deadlocked ending itself", i)
		}
	}
}
