package apps

import (
	"bytes"
	"context"
	"fmt"
	"math/big"
	"sync/atomic"
	"testing"

	pando "pando"
	"pando/internal/chain"
	"pando/internal/landsat"
	"pando/internal/pullstream"
	"pando/internal/worker"
)

var appNameSeq atomic.Int64

func deployment[I, O any](t *testing.T, f func(I) (O, error), opts ...pando.Option) *pando.Pando[I, O] {
	t.Helper()
	name := fmt.Sprintf("apps-test-%d", appNameSeq.Add(1))
	p := pando.New(name, f, opts...)
	t.Cleanup(p.Close)
	return p
}

// --- Collatz (pipeline, Figure 10) ---

func TestCollatzStepsKnownValues(t *testing.T) {
	cases := map[string]int{
		"1":  0,
		"2":  1,
		"3":  7, // 3 10 5 16 8 4 2 1
		"6":  8,
		"27": 111,
	}
	for n, want := range cases {
		r, err := CollatzSteps(n)
		if err != nil {
			t.Fatal(err)
		}
		if r.Steps != want {
			t.Fatalf("CollatzSteps(%s) = %d, want %d", n, r.Steps, want)
		}
		if r.Ops == 0 && n != "1" {
			t.Fatalf("CollatzSteps(%s) counted no ops", n)
		}
	}
}

func TestCollatzBigNumbers(t *testing.T) {
	// Beyond uint64: the BigNumber requirement of the paper's port.
	huge := new(big.Int).Lsh(big.NewInt(1), 70) // 2^70: exactly 70 halvings
	r, err := CollatzSteps(huge.String())
	if err != nil {
		t.Fatal(err)
	}
	if r.Steps != 70 {
		t.Fatalf("steps(2^70) = %d, want 70", r.Steps)
	}
}

func TestCollatzRejectsBadInput(t *testing.T) {
	if _, err := CollatzSteps("banana"); err == nil {
		t.Fatal("non-integer accepted")
	}
	if _, err := CollatzSteps("-5"); err == nil {
		t.Fatal("negative accepted")
	}
	if _, err := CollatzSteps("0"); err == nil {
		t.Fatal("zero accepted")
	}
}

func TestCollatzPipelineEndToEnd(t *testing.T) {
	p := deployment(t, CollatzSteps)
	p.AddLocalWorkers(3)
	inputs := CollatzInputs(big.NewInt(1), 30)
	results, err := p.ProcessSlice(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 30 {
		t.Fatalf("got %d results", len(results))
	}
	// Ordered output: result i corresponds to input i.
	for i, r := range results {
		if r.N != inputs[i] {
			t.Fatalf("results[%d].N = %s, want %s (ordered)", i, r.N, inputs[i])
		}
	}
	best, ok := MaxCollatz(results)
	if !ok {
		t.Fatal("no max")
	}
	if best.N != "27" { // longest trajectory among 1..30
		t.Fatalf("max steps at N=%s (%d steps), want 27", best.N, best.Steps)
	}
}

// --- Raytrace (pipeline; §2.1 usage example) ---

func TestRenderFrameParsesAndRenders(t *testing.T) {
	enc, err := RenderFrame("1.5707")
	if err != nil {
		t.Fatal(err)
	}
	if enc == "" {
		t.Fatal("empty frame")
	}
	if _, err := RenderFrame("not-a-float"); err == nil {
		t.Fatal("bad camera position accepted")
	}
}

func TestGenerateAngles(t *testing.T) {
	angles := GenerateAngles(8)
	if len(angles) != 8 {
		t.Fatalf("len = %d", len(angles))
	}
	if angles[0] != "0.000000" {
		t.Fatalf("angles[0] = %s", angles[0])
	}
}

func TestRaytracePipelineEndToEnd(t *testing.T) {
	// The full Figure 3 pipeline: generate-angles | pando render | gif-encoder.
	p := deployment(t, RenderFrame)
	p.AddLocalWorkers(4)
	frames, err := p.ProcessSlice(context.Background(), GenerateAngles(6))
	if err != nil {
		t.Fatal(err)
	}
	var gifBuf bytes.Buffer
	if err := EncodeAnimation(&gifBuf, frames); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(gifBuf.Bytes(), []byte("GIF8")) {
		t.Fatal("pipeline did not produce a GIF")
	}
}

// --- Arxiv (crowd processing) ---

func TestTagPaperHeuristic(t *testing.T) {
	tag, err := TagPaper(Paper{ID: 1, Title: "WebRTC for volunteers", Abstract: ""})
	if err != nil {
		t.Fatal(err)
	}
	if !tag.Interesting {
		t.Fatal("WebRTC paper should be interesting")
	}
	tag, err = TagPaper(Paper{ID: 2, Title: "Soil acidity", Abstract: "pH levels"})
	if err != nil {
		t.Fatal(err)
	}
	if tag.Interesting {
		t.Fatal("soil paper should be boring")
	}
}

func TestArxivEndToEnd(t *testing.T) {
	p := deployment(t, TagPaper)
	p.AddLocalWorkers(2)
	tags, err := p.ProcessSlice(context.Background(), SamplePapers())
	if err != nil {
		t.Fatal(err)
	}
	interesting := 0
	for _, tg := range tags {
		if tg.Interesting {
			interesting++
		}
	}
	if interesting == 0 || interesting == len(tags) {
		t.Fatalf("%d/%d interesting; the sample mixes both", interesting, len(tags))
	}
}

// --- StreamLender test (random protocol checking) ---

func TestRunRandomCheckCleanSeeds(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 15
	}
	for seed := int64(0); seed < int64(n); seed++ {
		rep, err := RunRandomCheck(seed)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("seed %d found violations: %v", seed, rep.Violations)
		}
		if rep.Executions == 0 {
			t.Fatalf("seed %d exercised nothing", seed)
		}
	}
}

func TestSLTestEndToEnd(t *testing.T) {
	// The paper's self-test: Pando distributes random executions of its
	// own coordination abstraction.
	p := deployment(t, RunRandomCheck)
	p.AddLocalWorkers(3)
	reports, err := p.ProcessSlice(context.Background(), SLTestSeeds(100, 24))
	if err != nil {
		t.Fatal(err)
	}
	if bad := MonitorFailures(reports); len(bad) != 0 {
		t.Fatalf("violations found: %+v", bad)
	}
}

// --- ML agent (hyperparameter search) ---

func TestMLAgentSweepEndToEnd(t *testing.T) {
	p := deployment(t, TrainAgent)
	p.AddLocalWorkers(4)
	outcomes, err := p.ProcessSlice(context.Background(), AgentInputs())
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != len(DefaultAlphaSweep()) {
		t.Fatalf("got %d outcomes", len(outcomes))
	}
	best, ok := BestAgent(outcomes)
	if !ok {
		t.Fatal("no best")
	}
	// A healthy learning rate must win over the pathological extremes.
	if best.Params.Alpha < 0.05 {
		t.Fatalf("best alpha = %v; search failed", best.Params.Alpha)
	}
	if best.SuccessRate == 0 {
		t.Fatal("winning agent never reached the goal")
	}
}

// --- Image processing, http variant (pipeline) ---

func TestImgProcHTTPEndToEnd(t *testing.T) {
	srv := landsat.NewServer(32, 32)
	base, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	p := deployment(t, BlurTileHTTP)
	p.AddLocalWorkers(3)
	jobs := ImgProcJobs(12, base, 32, 32, 2)
	done, err := p.ProcessSlice(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 12 {
		t.Fatalf("got %d acks", len(done))
	}
	// Synchronous guarantee: every acked result is already on the server.
	for _, d := range done {
		if _, ok := srv.Result(d.ID); !ok {
			t.Fatalf("tile %d acked but result missing on server", d.ID)
		}
	}
	if srv.ResultCount() != 12 {
		t.Fatalf("server holds %d results", srv.ResultCount())
	}
}

// --- Image processing, p2p variants (stubborn, Figure 12) ---

// mapErr applies fn to each value; fn's first error fails the stream.
func mapErr[I, O any](fn func(I) (O, error)) pullstream.Through[I, O] {
	return func(src pullstream.Source[I]) pullstream.Source[O] {
		return func(abort error, cb pullstream.Callback[O]) {
			src(abort, func(end error, v I) {
				var zero O
				if end != nil {
					cb(end, zero)
					return
				}
				o, err := fn(v)
				if err != nil {
					cb(err, zero)
					return
				}
				cb(nil, o)
			})
		}
	}
}

func TestStubbornImageProcessing(t *testing.T) {
	store := landsat.NewP2PStore(0.4, 0, 99) // 60% of shares silently fail
	blur := NewP2PBlur(store)

	// Local (sequential) distributed-map stand-in for this unit test; the
	// full Pando integration is exercised in the integration suite.
	mapTh := func(src pullstream.Source[TileJob]) pullstream.Source[TileDone] {
		return mapErr(blur)(src)
	}
	jobOf := func(id int) TileJob { return TileJob{ID: id, Width: 16, Height: 16, Radius: 2} }
	th := StubbornP2P(mapTh, store, jobOf)

	var jobs []TileJob
	for i := 0; i < 20; i++ {
		jobs = append(jobs, jobOf(i))
	}
	got, err := pullstream.Collect(th(pullstream.Values(jobs...)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("got %d outputs, want 20", len(got))
	}
	seen := map[int]int{}
	for _, d := range got {
		seen[d.ID]++
	}
	for i := 0; i < 20; i++ {
		if seen[i] != 1 {
			t.Fatalf("tile %d output %d times, want exactly once", i, seen[i])
		}
		// The guarantee: an output implies the data is downloadable.
		if _, err := store.Download(i); err != nil {
			t.Fatalf("tile %d output but not downloadable: %v", i, err)
		}
	}
}

// --- Crypto-currency mining (synchronous parallel search, Figure 11) ---

func TestMiningFeedbackLoop(t *testing.T) {
	c := chain.NewChain(10)
	m := chain.NewMonitor(c, 2048, 4, nil)
	p := deployment(t, MineAttempt, pando.WithUnordered())
	p.AddLocalWorkers(3)

	sum, err := RunMining(context.Background(), p, c, m)
	if err != nil {
		t.Fatal(err)
	}
	if sum.BlocksMined != 3 {
		t.Fatalf("mined %d blocks, want 3 (target height 4 incl. genesis)", sum.BlocksMined)
	}
	if sum.Hashes == 0 || sum.Attempts == 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestMiningSingleWorker(t *testing.T) {
	c := chain.NewChain(8)
	m := chain.NewMonitor(c, 4096, 2, nil)
	p := deployment(t, MineAttempt, pando.WithUnordered())
	p.AddLocalWorkers(1)
	sum, err := RunMining(context.Background(), p, c, m)
	if err != nil {
		t.Fatal(err)
	}
	if sum.BlocksMined != 1 {
		t.Fatalf("mined %d, want 1", sum.BlocksMined)
	}
}

func TestRegisterAllIdempotent(t *testing.T) {
	RegisterAll()
	RegisterAll() // must not panic
}

func workerLookup(name string) (worker.Handler, bool) { return worker.Lookup(name) }

func TestFlexibleHandlerBothEncodings(t *testing.T) {
	RegisterAll()
	h, ok := workerLookup(SLTestFunc)
	if !ok {
		t.Fatal("sl-test not registered")
	}
	// Direct JSON encoding (typed library master).
	out, err := h(nil, []byte(`7`))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out, []byte(`"seed":7`)) {
		t.Fatalf("out = %s", out)
	}
	// String-wrapped encoding (the CLI's line-based input).
	out, err = h(nil, []byte(`"7"`))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out, []byte(`"seed":7`)) {
		t.Fatalf("out = %s", out)
	}
	// Garbage still fails loudly.
	if _, err := h(nil, []byte(`"not-a-seed"`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestStubbornDATVariant(t *testing.T) {
	// The DAT variant (§4.3): results stay staged until the simulated
	// user confirms; the stubborn loop resubmits until each tile's data
	// is actually downloadable.
	dat := landsat.NewDATStore()
	jobOf := func(id int) TileJob { return TileJob{ID: id, Width: 8, Height: 8, Radius: 1} }
	blur := func(job TileJob) (TileDone, error) {
		tile := landsat.GenerateTile(job.ID, job.Width, job.Height)
		blurred, err := landsat.BoxBlur(tile, job.Radius)
		if err != nil {
			return TileDone{}, err
		}
		dat.Share(blurred) // staged, not yet confirmed
		return TileDone{ID: job.ID, OK: true}, nil
	}
	mapTh := func(src pullstream.Source[TileJob]) pullstream.Source[TileDone] {
		return mapErr(blur)(src)
	}
	// The "user" confirms on the retry path: the classify function checks
	// downloadability and confirms staged tiles before resubmitting, so
	// the second attempt finds the data present.
	th := stubbornDAT(mapTh, dat, jobOf)

	var jobs []TileJob
	for i := 0; i < 8; i++ {
		jobs = append(jobs, jobOf(i))
	}
	got, err := pullstream.Collect(th(pullstream.Values(jobs...)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("got %d outputs", len(got))
	}
	for i := 0; i < 8; i++ {
		if _, err := dat.Download(i); err != nil {
			t.Fatalf("tile %d output but not downloadable: %v", i, err)
		}
	}
}

func TestStubbornWebTorrentVariant(t *testing.T) {
	// Connections succeed only 30% of the time; the stubborn loop keeps
	// retrying until the swarm is joined and every tile downloadable.
	wt := landsat.NewWebTorrentStore(0, 0.3, 11)
	blur := NewWebTorrentBlur(wt)
	jobOf := func(id int) TileJob { return TileJob{ID: id, Width: 8, Height: 8, Radius: 1} }
	mapTh := func(src pullstream.Source[TileJob]) pullstream.Source[TileDone] {
		return mapErr(blur)(src)
	}
	th := StubbornWebTorrent(mapTh, wt, jobOf)

	var jobs []TileJob
	for i := 0; i < 10; i++ {
		jobs = append(jobs, jobOf(i))
	}
	got, err := pullstream.Collect(th(pullstream.Values(jobs...)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("got %d outputs", len(got))
	}
	for i := 0; i < 10; i++ {
		if _, err := wt.Download(i); err != nil {
			t.Fatalf("tile %d not downloadable: %v", i, err)
		}
	}
}
