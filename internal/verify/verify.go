// Package verify implements Byzantine-tolerant result verification for
// open volunteer fleets: k-replicated execution with quorum voting on
// SHA-256 result digests, probabilistic spot-checking, and a per-worker
// reputation ledger whose score feeds the scheduler's credit window.
//
// The design follows BOINC-style redundant execution (Anderson & Fedak):
// the master cannot recompute every result itself, so it sends each input
// to k distinct workers and accepts the result only once quorum of them
// return byte-identical output (compared by digest). Workers that agree
// with accepted results earn reputation; workers that disagree lose it
// multiplicatively, and below a quarantine line they are expelled from
// the fleet. Workers above a trust threshold earn a replication-free
// fast-path — their results are accepted on arrival, with a sampled
// fraction spot-checked by local recomputation — which is what keeps
// verification overhead off the steady-state throughput path.
//
// The package is a leaf: pure data structures plus crypto/sha256, so the
// voting state machine is unit-testable without a fleet.
package verify

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
)

// Digest is the SHA-256 of an encoded result payload. Votes compare
// digests, not payloads: two workers voted together iff their encoded
// results are byte-identical.
type Digest [sha256.Size]byte

// DigestOf hashes an encoded result payload.
func DigestOf(data []byte) Digest { return sha256.Sum256(data) }

// String renders a short hex prefix for logs and errors.
func (d Digest) String() string { return hex.EncodeToString(d[:8]) }

// Policy tunes the verification layer.
type Policy struct {
	// K is the replication factor: how many distinct workers each input
	// is sent to while the submitting worker is untrusted.
	K int
	// Quorum is how many distinct workers must return byte-identical
	// results before one is accepted. Quorum <= K.
	Quorum int
	// SpotRate is the fraction of accepted results the master recomputes
	// locally and compares (0 disables spot-checking). Spot checks are
	// what keeps the trusted fast-path honest.
	SpotRate float64
	// TrustThreshold is the reputation score at or above which a worker's
	// results are accepted without replication (0 disables the
	// fast-path: every result goes through quorum).
	TrustThreshold float64
	// QuarantineBelow is the score under which a worker is expelled.
	QuarantineBelow float64
	// InitialScore is where an unknown worker starts.
	InitialScore float64
}

// Default score dynamics: a fresh worker starts neutral, one
// disagreement drops it to the quarantine line, a second expels it, and
// sustained agreement asymptotically approaches 1.
const (
	DefaultInitialScore    = 0.2
	DefaultQuarantineBelow = 0.05
	agreeGain              = 0.15 // s += (1-s) * agreeGain
	disagreeDecay          = 0.25 // s *= disagreeDecay
)

// Normalize fills defaults and repairs impossible combinations: quorum
// at least 1, k at least quorum.
func (p Policy) Normalize() Policy {
	if p.Quorum < 1 {
		p.Quorum = 1
	}
	if p.K < p.Quorum {
		p.K = p.Quorum
	}
	if p.InitialScore <= 0 {
		p.InitialScore = DefaultInitialScore
	}
	if p.QuarantineBelow <= 0 {
		p.QuarantineBelow = DefaultQuarantineBelow
	}
	if p.SpotRate < 0 {
		p.SpotRate = 0
	}
	if p.SpotRate > 1 {
		p.SpotRate = 1
	}
	return p
}

// Outcome classifies one Add call on a Voter.
type Outcome int

const (
	// Counted: a fresh vote, quorum not yet reached.
	Counted Outcome = iota
	// QuorumReached: this vote completed the quorum; the voter resolved.
	QuorumReached
	// Duplicate: the worker had already voted on this index — several
	// sub-streams of one device, or a speculative duplicate, must count
	// as one voice. The first ballot binds; this one is discarded.
	Duplicate
	// LateAgree: a vote arriving after resolution that matches the
	// accepted digest.
	LateAgree
	// LateDisagree: a vote arriving after resolution that contradicts
	// the accepted digest.
	LateDisagree
)

func (o Outcome) String() string {
	switch o {
	case Counted:
		return "counted"
	case QuorumReached:
		return "quorum-reached"
	case Duplicate:
		return "duplicate"
	case LateAgree:
		return "late-agree"
	case LateDisagree:
		return "late-disagree"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// Voter is the per-index voting state machine: ballots keyed by worker
// name (so replicas of one device collapse to one voice), tallies keyed
// by digest, resolution at quorum. It is not safe for concurrent use;
// the lender drives it under its own lock.
type Voter struct {
	quorum   int
	ballots  map[string]Digest
	counts   map[Digest]int
	resolved bool
	accepted Digest
}

// NewVoter creates a voter requiring `quorum` distinct agreeing workers.
func NewVoter(quorum int) *Voter {
	if quorum < 1 {
		quorum = 1
	}
	return &Voter{
		quorum:  quorum,
		ballots: make(map[string]Digest),
		counts:  make(map[Digest]int),
	}
}

// Add records worker's ballot and reports what happened. A worker votes
// at most once per index: re-votes (same or different digest) are
// Duplicates and do not move the tally. Votes arriving after resolution
// are classified against the accepted digest but never re-open it.
func (v *Voter) Add(worker string, d Digest) Outcome {
	if _, dup := v.ballots[worker]; dup {
		return Duplicate
	}
	v.ballots[worker] = d
	if v.resolved {
		if d == v.accepted {
			return LateAgree
		}
		return LateDisagree
	}
	v.counts[d]++
	if v.counts[d] >= v.quorum {
		v.resolved = true
		v.accepted = d
		return QuorumReached
	}
	return Counted
}

// Resolve forces acceptance of d without a quorum — the trusted
// fast-path, or a spot-check overriding a wrong quorum with the locally
// recomputed truth. It may re-point an already-resolved voter.
func (v *Voter) Resolve(d Digest) {
	v.resolved = true
	v.accepted = d
}

// Accepted reports the accepted digest, if the voter has resolved.
func (v *Voter) Accepted() (Digest, bool) { return v.accepted, v.resolved }

// Participated reports whether worker has already voted — the lender
// uses it to keep a replica of the same index away from a worker whose
// voice is already in.
func (v *Voter) Participated(worker string) bool {
	_, ok := v.ballots[worker]
	return ok
}

// Ballots snapshots every ballot, for verdict computation at
// finalization.
func (v *Voter) Ballots() map[string]Digest {
	out := make(map[string]Digest, len(v.ballots))
	for w, d := range v.ballots {
		out[w] = d
	}
	return out
}

// Acceptance is the audit record of one verified result: which digest
// won, with how many votes, from whom, and through which path.
type Acceptance struct {
	Idx         int
	Digest      Digest
	Votes       int      // distinct workers that voted for the accepted digest
	Workers     []string // the agreeing workers, sorted
	FastPath    bool     // accepted via the trusted-worker fast-path
	SpotChecked bool     // master recomputed and compared
	SpotFailed  bool     // the recomputation disagreed (result replaced by truth)
}

// WorkerRep is one worker's row in the reputation ledger.
type WorkerRep struct {
	Score       float64
	Agreed      int
	Disagreed   int
	SpotChecks  int
	SpotFails   int
	Quarantined bool
}

// Ledger is the fleet-wide reputation store. It is safe for concurrent
// use; the lender reports verdicts from its completion path while the
// scheduler reads credit weights at attach time.
type Ledger struct {
	mu           sync.Mutex
	pol          Policy
	reps         map[string]*WorkerRep
	onQuarantine func(string)
	acceptances  []Acceptance
}

// NewLedger creates a ledger under pol (normalized).
func NewLedger(pol Policy) *Ledger {
	return &Ledger{
		pol:  pol.Normalize(),
		reps: make(map[string]*WorkerRep),
	}
}

// OnQuarantine installs the expulsion hook, fired (once per worker, on
// the caller's goroutine) when a score crosses below the quarantine
// line. Install it before results flow.
func (l *Ledger) OnQuarantine(fn func(name string)) {
	l.mu.Lock()
	l.onQuarantine = fn
	l.mu.Unlock()
}

func (l *Ledger) rep(name string) *WorkerRep {
	r := l.reps[name]
	if r == nil {
		r = &WorkerRep{Score: l.pol.InitialScore}
		l.reps[name] = r
	}
	return r
}

// Record applies one verdict to worker's score: agreement pulls the
// score toward 1, disagreement decays it multiplicatively (one wrong
// answer erases many right ones — the asymmetry is what makes cheating
// expensive). Crossing below the quarantine line fires the expulsion
// hook once.
func (l *Ledger) Record(worker string, agreed bool) {
	var fire func(string)
	l.mu.Lock()
	r := l.rep(worker)
	if agreed {
		r.Agreed++
		r.Score += (1 - r.Score) * agreeGain
	} else {
		r.Disagreed++
		r.Score *= disagreeDecay
		if r.Score < l.pol.QuarantineBelow && !r.Quarantined {
			r.Quarantined = true
			fire = l.onQuarantine
		}
	}
	l.mu.Unlock()
	if fire != nil {
		fire(worker)
	}
}

// Trusted reports whether worker has earned the replication-free
// fast-path. A zero threshold disables the fast-path entirely.
func (l *Ledger) Trusted(worker string) bool {
	if l.pol.TrustThreshold <= 0 {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	r := l.reps[worker]
	return r != nil && !r.Quarantined && r.Score >= l.pol.TrustThreshold
}

// Quarantined reports whether worker has been expelled.
func (l *Ledger) Quarantined(worker string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	r := l.reps[worker]
	return r != nil && r.Quarantined
}

// Credit maps worker's reputation onto a scheduler credit weight in
// [0, 1]: an unknown worker gets full credit (no evidence is not
// evidence of cheating), a quarantined one gets none, and a worker
// under suspicion has its window shrunk so a cheater's blast radius —
// how many in-flight results it can poison — shrinks with its score.
func (l *Ledger) Credit(worker string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	r := l.reps[worker]
	if r == nil {
		return 1
	}
	if r.Quarantined {
		return 0
	}
	w := r.Score / l.pol.InitialScore
	if w > 1 {
		w = 1
	}
	if w < 0.25 {
		w = 0.25
	}
	return w
}

// Snapshot copies the ledger for /stats.
func (l *Ledger) Snapshot() map[string]WorkerRep {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]WorkerRep, len(l.reps))
	for name, r := range l.reps {
		out[name] = *r
	}
	return out
}

// NoteAcceptance appends one audit record (workers sorted for
// determinism) and folds its spot-check accounting into the submitting
// workers' rows.
func (l *Ledger) NoteAcceptance(a Acceptance) {
	sort.Strings(a.Workers)
	l.mu.Lock()
	l.acceptances = append(l.acceptances, a)
	if a.SpotChecked {
		for _, w := range a.Workers {
			r := l.rep(w)
			r.SpotChecks++
			if a.SpotFailed {
				r.SpotFails++
			}
		}
	}
	l.mu.Unlock()
}

// Acceptances snapshots the audit trail — chaos.CheckVerified walks it
// to prove every output index went through a verification path.
func (l *Ledger) Acceptances() []Acceptance {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Acceptance(nil), l.acceptances...)
}

// Sampler returns a deterministic index sampler firing at ~rate: the
// decision is a hash of the index, not a wall-clock or global-rand
// draw, so a re-run (or a resumed journal) spot-checks the same
// indices.
func Sampler(rate float64) func(idx int) bool {
	switch {
	case rate <= 0:
		return func(int) bool { return false }
	case rate >= 1:
		return func(int) bool { return true }
	}
	threshold := uint64(rate * float64(1<<32))
	return func(idx int) bool {
		return hashIdx(idx)&0xFFFFFFFF < threshold
	}
}

// hashIdx is FNV-1a over the index's little-endian bytes.
func hashIdx(idx int) uint64 {
	h := uint64(1469598103934665603)
	v := uint64(idx)
	for i := 0; i < 8; i++ {
		h ^= v & 0xFF
		h *= 1099511628211
		v >>= 8
	}
	return h
}
