package lender

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pando/internal/pullstream"
)

// This file is the Go rendering of the paper's "StreamLender test"
// application (§4.1): random executions of StreamLender searching for
// violations of the pull-stream protocol invariants and of the
// programming-model properties. The paper reports this strategy found
// three corner-case bugs that manually written tests missed.

// randomExecution runs one randomized StreamLender execution derived from
// seed and validates all observable invariants. It returns a descriptive
// error when an invariant is violated. On odd seeds a speculator also
// duplicates values of random live sub-streams while the stream runs.
func randomExecution(seed int64) error {
	rng := rand.New(rand.NewSource(seed))

	nInputs := rng.Intn(60)
	nWorkers := 1 + rng.Intn(6)
	ordered := rng.Intn(2) == 0

	var opts []Option
	if !ordered {
		opts = append(opts, Unordered())
	}
	l := New[int, int](opts...)

	check := pullstream.NewChecker[int]()
	out := l.Bind(check.Wrap(pullstream.Count(nInputs)))

	outCheck := pullstream.NewChecker[int]()
	outc := make(chan []int, 1)
	errc := make(chan error, 1)
	go func() {
		vs, err := pullstream.Collect(outCheck.Wrap(out))
		outc <- vs
		errc <- err
	}()

	var mu sync.Mutex
	processed := make(map[int]int)
	crashed := 0
	live := make(map[*SubStream[int]]bool) // sub-streams whose worker runs
	duplicated := 0                        // duplicates Speculate reported

	stopSpec, specDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(specDone)
		if seed%2 == 0 {
			return
		}
		srng := rand.New(rand.NewSource(seed ^ 0x5bec))
		for {
			select {
			case <-stopSpec:
				return
			case <-time.After(time.Duration(srng.Intn(300)) * time.Microsecond):
			}
			mu.Lock()
			var subs []*SubStream[int]
			for s := range live {
				subs = append(subs, s)
			}
			mu.Unlock()
			if len(subs) == 0 {
				continue
			}
			n := l.Speculate(subs[srng.Intn(len(subs))], 1+srng.Intn(3))
			mu.Lock()
			duplicated += n
			mu.Unlock()
		}
	}()

	var wg sync.WaitGroup
	reliable := rng.Intn(nWorkers) // index of the worker that never crashes
	for w := 0; w < nWorkers; w++ {
		w := w
		crashAfter := -1
		if w != reliable && rng.Intn(2) == 0 {
			crashAfter = rng.Intn(8)
			crashed++
		}
		jitter := time.Duration(rng.Intn(200)) * time.Microsecond
		workerSeed := rng.Int63()
		wg.Add(1)
		go func() {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(workerSeed))
			sub, d := l.LendStream()
			mu.Lock()
			live[sub] = true
			mu.Unlock()
			defer func() {
				mu.Lock()
				delete(live, sub)
				mu.Unlock()
			}()
			results := make(chan int)
			crashErr := make(chan error, 1)
			var sinkWG sync.WaitGroup
			sinkWG.Add(1)
			go func() {
				defer sinkWG.Done()
				d.Sink(pullstream.FromChan(results, crashErr))
			}()
			count := 0
			for {
				type ans struct {
					end error
					v   int
				}
				ch := make(chan ans, 1)
				d.Source(nil, func(end error, v int) { ch <- ans{end, v} })
				a := <-ch
				if a.end != nil {
					close(results)
					sinkWG.Wait()
					return
				}
				if crashAfter >= 0 && count >= crashAfter {
					d.Source(errors.New("crash"), func(error, int) {})
					crashErr <- errors.New("crash")
					sinkWG.Wait()
					return
				}
				if jitter > 0 && wrng.Intn(4) == 0 {
					time.Sleep(jitter)
				}
				mu.Lock()
				processed[a.v]++
				mu.Unlock()
				results <- a.v * 3
				count++
			}
		}()
	}

	got := <-outc
	err := <-errc
	close(stopSpec)
	<-specDone
	if err != nil {
		return errors.New("output failed: " + err.Error())
	}
	wg.Wait()

	// Invariant: every input answered exactly once on the output.
	if len(got) != nInputs {
		return errors.New("output count mismatch")
	}
	if ordered {
		for i, v := range got {
			if v != (i+1)*3 {
				return errors.New("ordered output out of order")
			}
		}
	} else {
		seen := make(map[int]bool)
		for _, v := range got {
			if seen[v] {
				return errors.New("duplicate result in unordered output")
			}
			seen[v] = true
		}
		if len(seen) != nInputs {
			return errors.New("unordered output missing results")
		}
	}

	// Invariant: conservative lending — a value is submitted to one worker
	// at a time. A worker may crash after computing a result but before
	// that result is recorded, in which case the value is legitimately
	// re-lent, so a value can be processed up to 1 + crashed times — but
	// never more, and every value is processed at least once. Each
	// duplicate Speculate reported may add one more.
	mu.Lock()
	defer mu.Unlock()
	for v := 1; v <= nInputs; v++ {
		n := processed[v]
		if n < 1 {
			return errors.New("value never processed")
		}
		if n > 1+crashed+duplicated {
			return errors.New("value processed more times than crashes allow")
		}
	}
	for v := range processed {
		if v < 1 || v > nInputs {
			return errors.New("processed a value outside the input range")
		}
	}

	// Invariant: the input side respected the pull-stream protocol.
	if vs := check.Violations(); len(vs) > 0 {
		return errors.New("input protocol violation: " + vs[0].String())
	}
	if vs := outCheck.Violations(); len(vs) > 0 {
		return errors.New("output protocol violation: " + vs[0].String())
	}
	return nil
}

func TestStreamLenderRandomExecutions(t *testing.T) {
	n := 150
	if testing.Short() {
		n = 30
	}
	for seed := int64(0); seed < int64(n); seed++ {
		if err := randomExecution(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestStreamLenderRandomExecutionsParallel(t *testing.T) {
	// The paper scaled this testing strategy up through Pando itself; here
	// we at least parallelize across goroutines.
	if testing.Short() {
		t.Skip("short mode")
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for seed := int64(1000); seed < 1064; seed++ {
		seed := seed
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := randomExecution(seed); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
