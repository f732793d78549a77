package lender

import (
	"errors"
	"strconv"
	"sync"
	"testing"
	"time"

	"pando/internal/pullstream"
	"pando/internal/verify"
)

func intDigest(v int) verify.Digest {
	return verify.DigestOf([]byte(strconv.Itoa(v)))
}

// verdictLog collects OnVerdict/OnAccept callbacks thread-safely.
type verdictLog struct {
	mu          sync.Mutex
	verdicts    map[string][]bool // worker -> agreed sequence
	acceptances []verify.Acceptance
}

func newVerdictLog() *verdictLog {
	return &verdictLog{verdicts: make(map[string][]bool)}
}

func (vl *verdictLog) verdict(worker string, idx int, agreed bool) {
	vl.mu.Lock()
	vl.verdicts[worker] = append(vl.verdicts[worker], agreed)
	vl.mu.Unlock()
}

func (vl *verdictLog) accept(a verify.Acceptance) {
	vl.mu.Lock()
	vl.acceptances = append(vl.acceptances, a)
	vl.mu.Unlock()
}

func (vl *verdictLog) snapshot() (map[string][]bool, []verify.Acceptance) {
	vl.mu.Lock()
	defer vl.mu.Unlock()
	v := make(map[string][]bool, len(vl.verdicts))
	for k, s := range vl.verdicts {
		v[k] = append([]bool(nil), s...)
	}
	return v, append([]verify.Acceptance(nil), vl.acceptances...)
}

// expectNoEmission asserts nothing arrives on ch within a grace window —
// the "not yet emitted" half of vote-gated completion.
func expectNoEmission(t *testing.T, ch <-chan int, why string) {
	t.Helper()
	select {
	case v := <-ch:
		t.Fatalf("premature emission of %d: %s", v, why)
	case <-time.After(50 * time.Millisecond):
	}
}

func expectEmission(t *testing.T, ch <-chan int, want int) {
	t.Helper()
	select {
	case v := <-ch:
		if v != want {
			t.Fatalf("emitted %d, want %d", v, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("emission of %d never happened", want)
	}
}

// TestVerifyQuorumGatesEmission: with k=2/quorum=2 a fresh value fans
// out one replica, and neither the output nor the OnResult (journal)
// hook sees the result until both distinct workers returned
// byte-identical values.
func TestVerifyQuorumGatesEmission(t *testing.T) {
	l := New[int, int]()
	vl := newVerdictLog()
	l.SetVerify(&VerifyConfig[int, int]{
		K: 2, Quorum: 2,
		Digest:    intDigest,
		OnVerdict: vl.verdict,
		OnAccept:  vl.accept,
	})
	emitted := make(chan int, 4)
	l.OnResult(func(idx, v int) { emitted <- v })
	out := l.Bind(pullstream.Values(10))
	outc, errc := collectAsync(out)

	subA, dA := l.LendStreamNamed("wA")
	resultsA := make(chan int)
	dA.Sink(pullstream.FromChan(resultsA, nil))
	if v, err := ask(t, dA.Source); err != nil || v != 10 {
		t.Fatalf("wA value = %d, %v", v, err)
	}
	_ = subA

	// The replica fan-out queued a second copy; a distinct worker takes it.
	_, dB := l.LendStreamNamed("wB")
	resultsB := make(chan int)
	dB.Sink(pullstream.FromChan(resultsB, nil))
	if v, err := ask(t, dB.Source); err != nil || v != 10 {
		t.Fatalf("wB replica = %d, %v", v, err)
	}

	resultsA <- 100
	expectNoEmission(t, emitted, "one vote is not a quorum")
	resultsB <- 100
	expectEmission(t, emitted, 100)

	// One more ask discovers the input's end (reads are lazy) and is
	// answered done once every value is verified.
	if _, err := ask(t, dB.Source); !errors.Is(err, pullstream.ErrDone) {
		t.Fatalf("end ask = %v, want ErrDone", err)
	}
	close(resultsA)
	close(resultsB)
	got := <-outc
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 100 {
		t.Fatalf("output = %v, want [100]", got)
	}
	verdicts, accs := vl.snapshot()
	if len(verdicts["wA"]) != 1 || !verdicts["wA"][0] || len(verdicts["wB"]) != 1 || !verdicts["wB"][0] {
		t.Fatalf("verdicts = %v, want one agreement each", verdicts)
	}
	if len(accs) != 1 || accs[0].Votes != 2 || accs[0].FastPath ||
		len(accs[0].Workers) != 2 || accs[0].Workers[0] != "wA" || accs[0].Workers[1] != "wB" {
		t.Fatalf("acceptance = %+v, want 2 votes from [wA wB]", accs)
	}
}

// TestVerifyReplicaDeathAndSameNameDedup is the PR 2 speculation
// regression plus replica death mid-vote, in one scenario:
//
//  1. wB dies holding the replica — its copy must be re-queued.
//  2. A second sub-stream named wA (same device, another core) asks and
//     must NOT receive the copy: wA already voted, and a speculative or
//     re-lent duplicate on the same name can never count as an
//     independent vote.
//  3. A genuinely distinct worker wC takes it and completes the quorum.
func TestVerifyReplicaDeathAndSameNameDedup(t *testing.T) {
	l := New[int, int]()
	vl := newVerdictLog()
	l.SetVerify(&VerifyConfig[int, int]{
		K: 2, Quorum: 2,
		Digest:    intDigest,
		OnVerdict: vl.verdict,
		OnAccept:  vl.accept,
	})
	emitted := make(chan int, 4)
	l.OnResult(func(idx, v int) { emitted <- v })
	out := l.Bind(pullstream.Values(10))
	outc, errc := collectAsync(out)

	_, dA := l.LendStreamNamed("wA")
	resultsA := make(chan int)
	dA.Sink(pullstream.FromChan(resultsA, nil))
	if v, err := ask(t, dA.Source); err != nil || v != 10 {
		t.Fatalf("wA value = %d, %v", v, err)
	}

	_, dB := l.LendStreamNamed("wB")
	resultsB := make(chan int)
	errB := make(chan error, 1)
	dB.Sink(pullstream.FromChan(resultsB, errB))
	if v, err := ask(t, dB.Source); err != nil || v != 10 {
		t.Fatalf("wB replica = %d, %v", v, err)
	}
	// Replica death mid-vote: the copy goes back to the failed queue.
	errB <- pullstream.ErrAborted

	// wA answers; one ballot is in. The re-queued copy must not resolve
	// the vote even though wA's "other core" is asking for work.
	resultsA <- 100
	_, dA2 := l.LendStreamNamed("wA")
	resultsA2 := make(chan int)
	dA2.Sink(pullstream.FromChan(resultsA2, nil))
	askEndA2 := make(chan error, 1)
	dA2.Source(nil, func(end error, v int) { askEndA2 <- end })
	expectNoEmission(t, emitted, "same-name duplicate must not complete the quorum")
	select {
	case end := <-askEndA2:
		t.Fatalf("same-name sub-stream was answered (%v); the copy must wait for a distinct worker", end)
	case <-time.After(50 * time.Millisecond):
	}

	// A distinct worker takes the copy and completes the quorum.
	_, dC := l.LendStreamNamed("wC")
	resultsC := make(chan int)
	dC.Sink(pullstream.FromChan(resultsC, nil))
	if v, err := ask(t, dC.Source); err != nil || v != 10 {
		t.Fatalf("wC re-lent copy = %d, %v", v, err)
	}
	resultsC <- 100
	expectEmission(t, emitted, 100)

	// Completion releases the parked same-name ask with done.
	if end := <-askEndA2; !errors.Is(end, pullstream.ErrDone) {
		t.Fatalf("parked ask end = %v, want ErrDone", end)
	}
	close(resultsA)
	close(resultsA2)
	close(resultsC)
	got := <-outc
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 100 {
		t.Fatalf("output = %v, want [100]", got)
	}
	_, accs := vl.snapshot()
	if len(accs) != 1 || accs[0].Votes != 2 ||
		len(accs[0].Workers) != 2 || accs[0].Workers[0] != "wA" || accs[0].Workers[1] != "wC" {
		t.Fatalf("acceptance = %+v, want 2 votes from [wA wC]", accs)
	}
}

// TestVerifySpeculateQueuesReplicaOnce: under verification Speculate
// adds at most one extra queued copy per unresolved value — never a
// second while one is queued, and never any once resolved.
func TestVerifySpeculateQueuesReplicaOnce(t *testing.T) {
	l := New[int, int]()
	l.SetVerify(&VerifyConfig[int, int]{K: 2, Quorum: 2, Digest: intDigest})
	l.Bind(pullstream.Values(10))

	subA, dA := l.LendStreamNamed("wA")
	resultsA := make(chan int)
	dA.Sink(pullstream.FromChan(resultsA, nil))
	if v, err := ask(t, dA.Source); err != nil || v != 10 {
		t.Fatalf("wA value = %d, %v", v, err)
	}
	// The fan-out replica is still queued: speculation adds nothing.
	if n := l.Speculate(subA, 10); n != 0 {
		t.Fatalf("Speculate with queued replica = %d, want 0", n)
	}
	// A second worker drains the queued replica...
	_, dB := l.LendStreamNamed("wB")
	resultsB := make(chan int)
	dB.Sink(pullstream.FromChan(resultsB, nil))
	if v, err := ask(t, dB.Source); err != nil || v != 10 {
		t.Fatalf("wB replica = %d, %v", v, err)
	}
	// ...now speculation may queue exactly one more copy.
	if n := l.Speculate(subA, 10); n != 1 {
		t.Fatalf("Speculate = %d, want 1", n)
	}
	if n := l.Speculate(subA, 10); n != 0 {
		t.Fatalf("second Speculate = %d, want 0", n)
	}
	close(resultsA)
	close(resultsB)
}

// TestVerifyTrustedFastPath: a worker above the trust threshold gets
// replication-free lending and its single result is accepted on
// arrival, flagged as the fast-path in the audit record.
func TestVerifyTrustedFastPath(t *testing.T) {
	l := New[int, int]()
	vl := newVerdictLog()
	l.SetVerify(&VerifyConfig[int, int]{
		K: 2, Quorum: 2,
		Digest:    intDigest,
		Trusted:   func(name string) bool { return name == "vet" },
		OnVerdict: vl.verdict,
		OnAccept:  vl.accept,
	})
	out := l.Bind(pullstream.Values(10, 20))
	outc, errc := collectAsync(out)

	_, d := l.LendStreamNamed("vet")
	results := make(chan int)
	d.Sink(pullstream.FromChan(results, nil))
	if v, err := ask(t, d.Source); err != nil || v != 10 {
		t.Fatalf("value = %d, %v", v, err)
	}
	// No replica was fanned out: the next ask reads fresh input.
	if v, err := ask(t, d.Source); err != nil || v != 20 {
		t.Fatalf("second value = %d, %v (a replica would have come first)", v, err)
	}
	results <- 100
	results <- 400
	askEnd := make(chan error, 1)
	d.Source(nil, func(end error, v int) { askEnd <- end })
	if end := <-askEnd; !errors.Is(end, pullstream.ErrDone) {
		t.Fatalf("end = %v, want ErrDone", end)
	}
	close(results)
	got := <-outc
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 100 || got[1] != 400 {
		t.Fatalf("output = %v, want [100 400]", got)
	}
	verdicts, accs := vl.snapshot()
	if len(verdicts["vet"]) != 2 || !verdicts["vet"][0] || !verdicts["vet"][1] {
		t.Fatalf("verdicts = %v, want two agreements for vet", verdicts)
	}
	if len(accs) != 2 || !accs[0].FastPath || !accs[1].FastPath || accs[0].Votes != 1 {
		t.Fatalf("acceptances = %+v, want two fast-path records", accs)
	}
}

// TestVerifySplitVoteResolvedByThirdWorker: a wrong result splits the
// vote; the liveness rule queues one more copy, a third worker breaks
// the tie, and the cheater is graded disagreed.
func TestVerifySplitVoteResolvedByThirdWorker(t *testing.T) {
	l := New[int, int]()
	vl := newVerdictLog()
	l.SetVerify(&VerifyConfig[int, int]{
		K: 2, Quorum: 2,
		Digest:    intDigest,
		OnVerdict: vl.verdict,
		OnAccept:  vl.accept,
	})
	emitted := make(chan int, 4)
	l.OnResult(func(idx, v int) { emitted <- v })
	out := l.Bind(pullstream.Values(10))
	outc, errc := collectAsync(out)

	feed := func(name string) (chan<- int, pullstream.Source[int]) {
		_, d := l.LendStreamNamed(name)
		results := make(chan int)
		d.Sink(pullstream.FromChan(results, nil))
		if v, err := ask(t, d.Source); err != nil || v != 10 {
			t.Fatalf("%s value = %d, %v", name, v, err)
		}
		return results, d.Source
	}
	honest, _ := feed("honest")
	cheat, _ := feed("cheat")
	honest <- 100
	cheat <- 666 // plausible-but-wrong
	expectNoEmission(t, emitted, "split vote must not emit")

	tiebreak, tiebreakSrc := feed("tiebreak")
	tiebreak <- 100
	expectEmission(t, emitted, 100)

	if _, err := ask(t, tiebreakSrc); !errors.Is(err, pullstream.ErrDone) {
		t.Fatalf("end ask = %v, want ErrDone", err)
	}
	close(honest)
	close(cheat)
	close(tiebreak)
	got := <-outc
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 100 {
		t.Fatalf("output = %v, want [100] (the honest majority value)", got)
	}
	verdicts, accs := vl.snapshot()
	if len(verdicts["cheat"]) != 1 || verdicts["cheat"][0] {
		t.Fatalf("cheat verdicts = %v, want one disagreement", verdicts["cheat"])
	}
	if !verdicts["honest"][0] || !verdicts["tiebreak"][0] {
		t.Fatalf("honest verdicts = %v, want agreements", verdicts)
	}
	if len(accs) != 1 || accs[0].Votes != 2 {
		t.Fatalf("acceptance = %+v, want quorum of 2", accs)
	}
}

// TestVerifySpotCheckOverridesQuorum: even a full quorum of colluders
// cannot push a wrong value past a spot-check — the master's local
// recomputation replaces the result and every colluder is graded
// disagreed.
func TestVerifySpotCheckOverridesQuorum(t *testing.T) {
	l := New[int, int]()
	vl := newVerdictLog()
	l.SetVerify(&VerifyConfig[int, int]{
		K: 2, Quorum: 2,
		Digest:    intDigest,
		Spot:      func(idx int) bool { return true },
		Recompute: func(v int) (int, error) { return v * 10, nil },
		OnVerdict: vl.verdict,
		OnAccept:  vl.accept,
	})
	out := l.Bind(pullstream.Values(10))
	outc, errc := collectAsync(out)

	feed := func(name string) (chan<- int, pullstream.Source[int]) {
		_, d := l.LendStreamNamed(name)
		results := make(chan int)
		d.Sink(pullstream.FromChan(results, nil))
		if v, err := ask(t, d.Source); err != nil || v != 10 {
			t.Fatalf("%s value = %d, %v", name, v, err)
		}
		return results, d.Source
	}
	col1, _ := feed("col1")
	col2, col2Src := feed("col2")
	col1 <- 666 // coordinated identical wrong answers
	col2 <- 666

	if _, err := ask(t, col2Src); !errors.Is(err, pullstream.ErrDone) {
		t.Fatalf("end ask = %v, want ErrDone", err)
	}
	close(col1)
	close(col2)
	got := <-outc
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 100 {
		t.Fatalf("output = %v, want [100] (the recomputed truth)", got)
	}
	verdicts, accs := vl.snapshot()
	if verdicts["col1"][0] || verdicts["col2"][0] {
		t.Fatalf("verdicts = %v, want both colluders disagreed", verdicts)
	}
	if len(accs) != 1 || !accs[0].SpotChecked || !accs[0].SpotFailed {
		t.Fatalf("acceptance = %+v, want a failed spot-check", accs)
	}
}
