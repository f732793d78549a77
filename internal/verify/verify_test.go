package verify

import (
	"bytes"
	"testing"
)

func dg(s string) Digest { return DigestOf([]byte(s)) }

// TestVoterStateMachine is the table-driven walk of the per-index
// voting machine: each case scripts a ballot sequence and asserts the
// per-step outcomes plus the final resolution state. The "split" and
// "timeout" rows pin that the machine itself never resolves without a
// quorum — breaking a split or abandoning a vote is the lender's job
// (re-lend to a fresh worker), not the machine's.
func TestVoterStateMachine(t *testing.T) {
	type step struct {
		worker string
		digest Digest
		want   Outcome
	}
	a, b, truth := dg("a"), dg("b"), dg("truth")
	cases := []struct {
		name         string
		quorum       int
		steps        []step
		resolveAfter *Digest // force-Resolve after the scripted steps (spot-check override)
		post         []step  // steps after the Resolve
		wantResolved bool
		wantAccepted Digest
	}{
		{
			name:         "quorum reached",
			quorum:       2,
			steps:        []step{{"w1", a, Counted}, {"w2", a, QuorumReached}},
			wantResolved: true,
			wantAccepted: a,
		},
		{
			name:         "split stays pending",
			quorum:       2,
			steps:        []step{{"w1", a, Counted}, {"w2", b, Counted}},
			wantResolved: false,
		},
		{
			name:         "tie broken by third voter",
			quorum:       2,
			steps:        []step{{"w1", a, Counted}, {"w2", b, Counted}, {"w3", b, QuorumReached}},
			wantResolved: true,
			wantAccepted: b,
		},
		{
			name:         "timeout: replica death leaves vote pending",
			quorum:       3,
			steps:        []step{{"w1", a, Counted}, {"w2", a, Counted}},
			wantResolved: false,
		},
		{
			name:   "duplicate digest from same worker counted once",
			quorum: 2,
			steps: []step{
				{"w1", a, Counted},
				{"w1", a, Duplicate}, // speculative duplicate: same voice twice
				{"w1", a, Duplicate},
			},
			wantResolved: false,
		},
		{
			name:   "equivocation: first ballot binds",
			quorum: 2,
			steps: []step{
				{"w1", a, Counted},
				{"w1", b, Duplicate},
				{"w2", a, QuorumReached},
			},
			wantResolved: true,
			wantAccepted: a,
		},
		{
			name:   "late votes classified against accepted digest",
			quorum: 2,
			steps: []step{
				{"w1", a, Counted},
				{"w2", a, QuorumReached},
				{"w3", a, LateAgree},
				{"w4", b, LateDisagree},
			},
			wantResolved: true,
			wantAccepted: a,
		},
		{
			name:   "spot-check mismatch overrides an already-quorumed result",
			quorum: 2,
			steps: []step{
				{"w1", a, Counted},
				{"w2", a, QuorumReached}, // two cheaters agree...
			},
			resolveAfter: &truth, // ...the spot-check recomputation wins
			post: []step{
				{"w3", truth, LateAgree},
				{"w4", a, LateDisagree},
			},
			wantResolved: true,
			wantAccepted: truth,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := NewVoter(tc.quorum)
			for i, s := range tc.steps {
				if got := v.Add(s.worker, s.digest); got != s.want {
					t.Fatalf("step %d (%s votes %s): outcome = %v, want %v", i, s.worker, s.digest, got, s.want)
				}
			}
			if tc.resolveAfter != nil {
				v.Resolve(*tc.resolveAfter)
			}
			for i, s := range tc.post {
				if got := v.Add(s.worker, s.digest); got != s.want {
					t.Fatalf("post step %d (%s votes %s): outcome = %v, want %v", i, s.worker, s.digest, got, s.want)
				}
			}
			acc, ok := v.Accepted()
			if ok != tc.wantResolved {
				t.Fatalf("resolved = %v, want %v", ok, tc.wantResolved)
			}
			if ok && acc != tc.wantAccepted {
				t.Fatalf("accepted = %s, want %s", acc, tc.wantAccepted)
			}
			for _, s := range append(tc.steps, tc.post...) {
				if !v.Participated(s.worker) {
					t.Fatalf("%s voted but is not recorded as a participant", s.worker)
				}
			}
		})
	}
}

func TestVoterParticipated(t *testing.T) {
	v := NewVoter(2)
	v.Add("w1", dg("x"))
	if !v.Participated("w1") {
		t.Fatal("w1 should have participated")
	}
	if v.Participated("w2") {
		t.Fatal("w2 has not voted yet")
	}
}

func TestPolicyNormalize(t *testing.T) {
	p := Policy{K: 1, Quorum: 3, SpotRate: 2}.Normalize()
	if p.K != 3 {
		t.Fatalf("K = %d, want 3 (raised to quorum)", p.K)
	}
	if p.SpotRate != 1 {
		t.Fatalf("SpotRate = %v, want clamped to 1", p.SpotRate)
	}
	if p.InitialScore != DefaultInitialScore || p.QuarantineBelow != DefaultQuarantineBelow {
		t.Fatalf("defaults not filled: %+v", p)
	}
	z := Policy{}.Normalize()
	if z.K != 1 || z.Quorum != 1 {
		t.Fatalf("zero policy should normalize to k=1 quorum=1, got %+v", z)
	}
}

func TestLedgerScoreDynamics(t *testing.T) {
	l := NewLedger(Policy{K: 2, Quorum: 2, TrustThreshold: 0.6})
	var expelled []string
	l.OnQuarantine(func(name string) { expelled = append(expelled, name) })

	// Sustained agreement approaches 1 and crosses the trust threshold.
	for i := 0; i < 12; i++ {
		l.Record("honest", true)
	}
	if !l.Trusted("honest") {
		t.Fatalf("honest worker should be trusted after 12 agreements: %+v", l.Snapshot()["honest"])
	}

	// Two disagreements from the initial score cross the quarantine line.
	l.Record("cheat", false)
	if l.Quarantined("cheat") {
		t.Fatal("one disagreement should not quarantine yet")
	}
	l.Record("cheat", false)
	if !l.Quarantined("cheat") {
		t.Fatalf("two disagreements should quarantine: %+v", l.Snapshot()["cheat"])
	}
	if len(expelled) != 1 || expelled[0] != "cheat" {
		t.Fatalf("quarantine hook fired %v, want [cheat] exactly once", expelled)
	}
	l.Record("cheat", false) // further decay must not re-fire the hook
	if len(expelled) != 1 {
		t.Fatalf("quarantine hook re-fired: %v", expelled)
	}

	// A trusted worker caught by a spot-check loses trust immediately.
	l.Record("honest", false)
	if l.Trusted("honest") {
		t.Fatal("one disagreement should drop a worker below the trust threshold")
	}
}

func TestLedgerCredit(t *testing.T) {
	l := NewLedger(Policy{K: 2, Quorum: 2})
	if got := l.Credit("stranger"); got != 1 {
		t.Fatalf("unknown worker credit = %v, want 1 (no evidence is not evidence)", got)
	}
	l.Record("suspect", false)
	if got := l.Credit("suspect"); got != 0.25 {
		t.Fatalf("suspect credit = %v, want floor 0.25", got)
	}
	l.Record("expelled", false)
	l.Record("expelled", false)
	if got := l.Credit("expelled"); got != 0 {
		t.Fatalf("quarantined credit = %v, want 0", got)
	}
	for i := 0; i < 20; i++ {
		l.Record("veteran", true)
	}
	if got := l.Credit("veteran"); got != 1 {
		t.Fatalf("veteran credit = %v, want 1", got)
	}
}

func TestLedgerAcceptances(t *testing.T) {
	l := NewLedger(Policy{K: 2, Quorum: 2})
	l.NoteAcceptance(Acceptance{Idx: 0, Digest: dg("r"), Votes: 2, Workers: []string{"b", "a"}})
	l.NoteAcceptance(Acceptance{Idx: 1, Digest: dg("s"), Votes: 1, Workers: []string{"t"}, FastPath: true, SpotChecked: true})
	acc := l.Acceptances()
	if len(acc) != 2 {
		t.Fatalf("acceptances = %d, want 2", len(acc))
	}
	if acc[0].Workers[0] != "a" || acc[0].Workers[1] != "b" {
		t.Fatalf("workers not sorted: %v", acc[0].Workers)
	}
	rep := l.Snapshot()["t"]
	if rep.SpotChecks != 1 || rep.SpotFails != 0 {
		t.Fatalf("spot accounting = %+v, want 1 check 0 fails", rep)
	}
}

func TestSamplerDeterministicRate(t *testing.T) {
	s := Sampler(0.25)
	const n = 20000
	hits := 0
	for i := 0; i < n; i++ {
		if s(i) {
			hits++
		}
	}
	rate := float64(hits) / n
	if rate < 0.2 || rate > 0.3 {
		t.Fatalf("sample rate = %v, want ~0.25", rate)
	}
	// Same index, same decision — a resumed run spot-checks identically.
	for i := 0; i < 100; i++ {
		if s(i) != s(i) {
			t.Fatalf("sampler not deterministic at %d", i)
		}
	}
	if off := Sampler(0); off(3) {
		t.Fatal("rate 0 must never sample")
	}
	if on := Sampler(1); !on(3) {
		t.Fatal("rate 1 must always sample")
	}
}

// FuzzVoteDigest throws arbitrary digests at the voting path: whatever
// the bytes, a digest votes consistently — one voice never resolves a
// quorum-2 voter, a re-vote is a duplicate, and the accepted digest is
// the voted one. Payloads of any other length than a digest's are
// skipped.
func FuzzVoteDigest(f *testing.F) {
	good := DigestOf([]byte("seed"))
	f.Add(good[:])
	f.Add(good[:16])                      // truncated
	f.Add([]byte{})                       // empty
	f.Add([]byte{0x8D})                   // the wire tag byte itself, not a digest
	f.Add(bytes.Repeat([]byte{0xFF}, 33)) // oversized
	f.Add(bytes.Repeat([]byte{0x00}, 32)) // all-zero, valid length
	f.Fuzz(func(t *testing.T, raw []byte) {
		var d Digest
		if len(raw) != len(d) {
			return
		}
		copy(d[:], raw)
		v := NewVoter(2)
		if out := v.Add("w1", d); out != Counted {
			t.Fatalf("first vote = %v, want Counted", out)
		}
		if _, ok := v.Accepted(); ok {
			t.Fatal("single vote must not resolve a quorum-2 voter")
		}
		if out := v.Add("w1", d); out != Duplicate {
			t.Fatal("re-vote must be a duplicate")
		}
		if out := v.Add("w2", d); out != QuorumReached {
			t.Fatalf("second distinct vote = %v, want QuorumReached", out)
		}
		acc, ok := v.Accepted()
		if !ok || acc != d {
			t.Fatal("accepted digest must be the voted one")
		}
	})
}
