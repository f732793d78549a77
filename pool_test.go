package pando_test

// Shared-fleet acceptance tests: many concurrent typed jobs on one pool
// of volunteers, with demand-weighted leasing and re-assignment of
// workers when a job completes.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	pando "pando"
	"pando/internal/netsim"
	"pando/internal/proto"
)

// solo runs a dedicated single-job deployment and returns its outputs.
func solo[I, O any](t *testing.T, name string, f func(I) (O, error), inputs []I) []O {
	t.Helper()
	p := pando.New(name, f,
		pando.WithChannelConfig(pando.ChannelConfig{HeartbeatInterval: 20 * time.Millisecond}),
		pando.WithoutRegistry())
	defer p.Close()
	p.AddLocalWorkers(2)
	out, err := p.ProcessSlice(context.Background(), inputs)
	if err != nil {
		t.Fatalf("solo %s: %v", name, err)
	}
	return out
}

// TestPoolSharedFleetTwoJobs is the acceptance scenario: two jobs with
// different value types run concurrently on one pool with a shared
// volunteer fleet; both outputs are byte-identical to solo runs, and
// when the first job finishes its workers are re-leased to the second,
// observable in per-job Stats.
func TestPoolSharedFleetTwoJobs(t *testing.T) {
	const nInts = 60
	const nStrs = 400
	square := func(v int) (int, error) { return v * v, nil }
	shout := func(s string) (string, error) {
		time.Sleep(200 * time.Microsecond) // keep job B alive past job A
		return strings.ToUpper(s) + "!", nil
	}

	intIn := make([]int, nInts)
	for i := range intIn {
		intIn[i] = i
	}
	strIn := make([]string, nStrs)
	for i := range strIn {
		strIn[i] = fmt.Sprintf("item-%d", i)
	}

	wantInts := solo(t, integName("pool-square"), square, intIn)
	wantStrs := solo(t, integName("pool-shout"), shout, strIn)

	pool := pando.NewPool(
		pando.WithChannelConfig(pando.ChannelConfig{HeartbeatInterval: 20 * time.Millisecond}),
		pando.WithRebalanceInterval(25*time.Millisecond),
	)
	defer pool.Close()
	jobA := pando.Map(pool, integName("pool-square"), square, pando.WithoutRegistry())
	jobB := pando.Map(pool, integName("pool-shout"), shout, pando.WithoutRegistry())
	defer jobA.Close()
	defer jobB.Close()

	const fleetSize = 4
	for i := 0; i < fleetSize; i++ {
		pool.AddWorker(fmt.Sprintf("device-%d", i+1), netsim.LAN, 0, -1)
	}

	var wg sync.WaitGroup
	var gotInts []int
	var gotStrs []string
	var errA, errB error
	wg.Add(2)
	go func() {
		defer wg.Done()
		gotInts, errA = jobA.ProcessSlice(context.Background(), intIn)
	}()
	go func() {
		defer wg.Done()
		gotStrs, errB = jobB.ProcessSlice(context.Background(), strIn)
	}()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("pool run failed: jobA=%v jobB=%v", errA, errB)
	}

	if len(gotInts) != len(wantInts) {
		t.Fatalf("jobA emitted %d outputs, want %d", len(gotInts), len(wantInts))
	}
	for i := range wantInts {
		if gotInts[i] != wantInts[i] {
			t.Fatalf("jobA out[%d] = %d, want %d (must match the solo run exactly)", i, gotInts[i], wantInts[i])
		}
	}
	if len(gotStrs) != len(wantStrs) {
		t.Fatalf("jobB emitted %d outputs, want %d", len(gotStrs), len(wantStrs))
	}
	for i := range wantStrs {
		if gotStrs[i] != wantStrs[i] {
			t.Fatalf("jobB out[%d] = %q, want %q (must match the solo run exactly)", i, gotStrs[i], wantStrs[i])
		}
	}

	// Re-leasing: job A (short) finished while job B (long) was still
	// running; A's workers moved over, so job B's accounting must show
	// the whole fleet participating.
	statsB := jobB.Stats()
	active := 0
	for _, w := range statsB {
		if strings.HasPrefix(w.Name, "device-") && w.Items > 0 {
			active++
		}
	}
	if active < fleetSize {
		t.Fatalf("only %d of %d shared devices processed for job B; workers were not re-leased when job A completed\nstats: %+v",
			active, fleetSize, statsB)
	}
	// Accounting cross-check: each job's devices account exactly its
	// stream (no cross-job bleed).
	if total := jobA.TotalItems(); total != nInts {
		t.Fatalf("jobA accounted %d items, want %d", total, nInts)
	}
	if total := jobB.TotalItems(); total != nStrs {
		t.Fatalf("jobB accounted %d items, want %d", total, nStrs)
	}
}

// TestPoolParksVolunteersUntilFirstJob: a fleet can be assembled before
// any job exists; volunteers park (welcome delayed) and are leased the
// moment the first Map'd job binds work.
func TestPoolParksVolunteersUntilFirstJob(t *testing.T) {
	pool := pando.NewPool(
		pando.WithChannelConfig(pando.ChannelConfig{HeartbeatInterval: 20 * time.Millisecond}))
	defer pool.Close()

	pool.AddWorker("early-bird", netsim.Loopback, 0, -1)
	time.Sleep(50 * time.Millisecond) // volunteer parks; no job yet

	workers := pool.Workers()
	if len(workers) != 1 || workers[0].State != "parked" {
		t.Fatalf("expected one parked worker before any job, got %+v", workers)
	}

	job := pando.Map(pool, integName("parked"), func(v int) (int, error) { return v + 1, nil },
		pando.WithoutRegistry())
	defer job.Close()
	got, err := job.ProcessSlice(context.Background(), []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Fatalf("got %v", got)
	}
}

// TestPoolMapOnClosedPoolErrors: mapping a job onto a closed pool must
// surface an error on Process instead of hanging with no workers.
func TestPoolMapOnClosedPoolErrors(t *testing.T) {
	pool := pando.NewPool()
	pool.Close()
	job := pando.Map(pool, integName("closed-pool"), func(v int) (int, error) { return v, nil },
		pando.WithoutRegistry())
	defer job.Close()
	_, err := job.ProcessSlice(context.Background(), []int{1})
	if err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("err = %v, want a pool-closed failure", err)
	}
}

// TestPoolHTTPStatsPerJob: the pool's /stats JSON carries the live
// worker set and one per-device block per job.
func TestPoolHTTPStatsPerJob(t *testing.T) {
	pool := pando.NewPool(
		pando.WithChannelConfig(pando.ChannelConfig{HeartbeatInterval: 20 * time.Millisecond}))
	defer pool.Close()
	nameA, nameB := integName("http-a"), integName("http-b")
	jobA := pando.Map(pool, nameA, func(v int) (int, error) { return v, nil }, pando.WithoutRegistry())
	jobB := pando.Map(pool, nameB, func(s string) (string, error) { return s, nil }, pando.WithoutRegistry())
	defer jobA.Close()
	defer jobB.Close()
	pool.AddLocalWorkers(2)

	// Job B stays live (input held open) so the worker set is populated
	// when /stats is queried; job A runs to completion first.
	bIn := make(chan string)
	bOutC, bErrC := jobB.Process(context.Background(), bIn)
	bDone := make(chan struct{})
	go func() {
		for range bOutC {
		}
		<-bErrC
		close(bDone)
	}()
	bIn <- "x" // at least one value through job B

	if _, err := jobA.ProcessSlice(context.Background(), []int{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}

	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := pool.ServeHTTPInfo(httpLn, pando.Invitation{Transport: "ws", DataAddr: "nowhere:1"})
	defer srv.Close()

	resp, err := http.Get("http://" + httpLn.Addr().String() + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Workers []map[string]any            `json:"workers"`
		Jobs    map[string][]map[string]any `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if _, ok := stats.Jobs[nameA]; !ok {
		t.Fatalf("/stats lacks job %q: %+v", nameA, stats.Jobs)
	}
	if _, ok := stats.Jobs[nameB]; !ok {
		t.Fatalf("/stats lacks job %q: %+v", nameB, stats.Jobs)
	}
	items := 0.0
	for _, row := range stats.Jobs[nameA] {
		if v, ok := row["Items"].(float64); ok {
			items += v
		}
	}
	if items != 4 {
		t.Fatalf("job %q accounts %v items in /stats, want 4", nameA, items)
	}
	if len(stats.Workers) == 0 {
		t.Fatal("/stats lacks the live worker set")
	}
	close(bIn)
	<-bDone
}

// TestHTTPInfoStatsEndpoint: the pool's invitation carries the function
// and transport it was given and the protocol version, and nothing a
// volunteer does not read (no batch); /stats answers.
func TestHTTPInfoStatsEndpoint(t *testing.T) {
	pool := pando.NewPool()
	defer pool.Close()
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := pool.ServeHTTPInfo(httpLn, pando.Invitation{Func: "square", Transport: "ws", DataAddr: "nowhere:1"})
	defer srv.Close()

	url := "http://" + httpLn.Addr().String()
	inv, err := proto.FetchInvitation(url + "/")
	if err != nil {
		t.Fatal(err)
	}
	if inv.Func != "square" || inv.Transport != "ws" || inv.DataAddr != "nowhere:1" {
		t.Fatalf("invitation = %+v", inv)
	}
	resp, err := http.Get(url + "/")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	err = json.NewDecoder(resp.Body).Decode(&raw)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["batch"]; ok {
		t.Fatalf("invitation carries a batch no volunteer reads: %v", raw)
	}
	resp, err = http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %s", resp.Status)
	}
}

// TestHTTPStatsCarriesFlowFields: the /stats JSON must include the
// flow-control fields so operators can watch the controller remotely.
func TestHTTPStatsCarriesFlowFields(t *testing.T) {
	pool := pando.NewPool(
		pando.WithChannelConfig(pando.ChannelConfig{HeartbeatInterval: 25 * time.Millisecond}))
	defer pool.Close()
	name := integName("flow-http")
	p := pando.Map(pool, name, func(v int) (int, error) { return v * v, nil },
		pando.WithBatch(3), pando.WithoutRegistry())
	defer p.Close()
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := pool.ServeHTTPInfo(httpLn, pando.Invitation{Func: name, Transport: "ws", DataAddr: "nowhere:1"})
	defer srv.Close()

	pool.AddWorker("dev", netsim.Loopback, 0, -1)
	inputs := make([]int, 20)
	if _, err := p.ProcessSlice(context.Background(), inputs); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + httpLn.Addr().String() + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Jobs map[string][]map[string]any `json:"jobs"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("stats JSON: %v\n%s", err, body)
	}
	rows := stats.Jobs[name]
	if len(rows) == 0 {
		t.Fatal("no stats rows")
	}
	for _, key := range []string{"InFlight", "Credits", "EWMARate", "Speculated", "rtt_ns", "base_rtt_ns", "queued", "service_ns"} {
		if _, ok := rows[0][key]; !ok {
			t.Fatalf("stats JSON lacks %q: %s", key, body)
		}
	}
}

// TestPoolFairShareRebalance: with two long-running jobs and four
// workers, the fair-share scan spreads leases across both jobs instead
// of leaving either starved.
func TestPoolFairShareRebalance(t *testing.T) {
	pool := pando.NewPool(
		pando.WithChannelConfig(pando.ChannelConfig{HeartbeatInterval: 20 * time.Millisecond}),
		pando.WithRebalanceInterval(10*time.Millisecond),
	)
	defer pool.Close()
	slow := func(v int) (int, error) {
		time.Sleep(time.Millisecond)
		return v, nil
	}
	jobA := pando.Map(pool, integName("fair-a"), slow, pando.WithoutRegistry())
	jobB := pando.Map(pool, integName("fair-b"), slow, pando.WithoutRegistry())
	defer jobA.Close()
	defer jobB.Close()

	inputs := make([]int, 300)
	for i := range inputs {
		inputs[i] = i
	}
	var wg sync.WaitGroup
	wg.Add(2)
	var errA, errB error
	go func() { defer wg.Done(); _, errA = jobA.ProcessSlice(context.Background(), inputs) }()
	go func() { defer wg.Done(); _, errB = jobB.ProcessSlice(context.Background(), inputs) }()

	for i := 0; i < 4; i++ {
		pool.AddWorker(fmt.Sprintf("fair-dev-%d", i+1), netsim.Loopback, 0, -1)
	}
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("jobA=%v jobB=%v", errA, errB)
	}
	if a, b := jobA.TotalItems(), jobB.TotalItems(); a != 300 || b != 300 {
		t.Fatalf("items: jobA=%d jobB=%d, want 300 each", a, b)
	}
	// Both jobs actually held workers: every stream completed and both
	// accounted full streams, which is only possible if leases reached
	// both sides (a starved job would deadlock the WaitGroup).
}
