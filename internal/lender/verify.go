package lender

import (
	"sort"

	"pando/internal/verify"
)

// This file is the lender's one copy-tracking path: the record of every
// value with more than one copy, and the lender half of Byzantine-tolerant
// result verification (internal/verify holds the pure voting machine and
// the reputation ledger).
//
// Without verification, only Speculate makes extra copies. A speculated
// value gets a record whose vote has quorum 1 and no digest: the first
// result wins and later copies' results are discarded. A dying holder's
// copy is re-queued only when no other copy is lent or queued, so each
// value is re-lent once however many of its holders fail. Values never
// speculated have no record and take the plain single-copy path.
//
// With a VerifyConfig installed the lending rules change from the paper's
// conservative single-copy discipline to BOINC-style k-replication, and
// every value gets a record:
//
//   - A fresh value lent to an untrusted worker fans out K-1 replica
//     copies onto the failed queue, so K distinct workers compute it.
//   - A replica is never lent to a sub-stream whose worker name already
//     holds or has answered a copy — several sub-streams of one device
//     (or a speculative duplicate) are one voice, not two.
//   - A result is emitted (and journaled, and exported) only once a
//     quorum of distinct worker names returned byte-identical output,
//     or its submitter is above the trust threshold (the fast-path), or
//     the master recomputed it locally (a spot-check).
//   - Replica death mid-vote re-queues the dead worker's copy; a split
//     vote with no copies left queues one more, so every vote
//     eventually resolves as long as fresh distinct workers keep
//     asking. Liveness therefore needs at least Quorum distinct worker
//     names in the fleet.
//
// Verification changes when `pending` is released: a verified value
// counts as answered at vote resolution, not at first result, so the
// output, completion and journal all sit strictly behind the quorum.

// VerifyConfig arms result verification on a lender. Install with
// SetVerify before Bind. All callbacks may be invoked under the
// lender's internal lock unless noted and must not call back into the
// lender.
type VerifyConfig[I, O any] struct {
	// K is the replication factor for values submitted by untrusted
	// workers; Quorum is how many distinct workers must agree.
	K      int
	Quorum int
	// Digest hashes a result. The master computes digests itself from
	// the bytes it received — a worker-claimed digest would let a lazy
	// cheater echo another worker's hash without doing the work.
	Digest func(O) verify.Digest
	// Trusted reports whether a worker has earned the replication-free
	// fast-path (nil: no fast-path).
	Trusted func(name string) bool
	// Spot decides whether an accepted index is spot-checked (nil:
	// never). It must be deterministic in the index.
	Spot func(idx int) bool
	// Recompute is the master-local recomputation behind spot-checks.
	// It runs outside the lender lock, on the result-delivery
	// goroutine of the worker that completed the quorum.
	Recompute func(I) (O, error)
	// OnVerdict is told each (worker, index) agreement verdict, outside
	// the lock — the reputation feed.
	OnVerdict func(worker string, idx int, agreed bool)
	// OnAccept is told each acceptance audit record, outside the lock.
	OnAccept func(a verify.Acceptance)
}

// voteState is the lender-side bookkeeping of one index under vote: the
// pure ballot machine plus where the copies currently are.
type voteState[I, O any] struct {
	input  I
	voter  *verify.Voter
	values map[verify.Digest]O // representative decoded result per digest

	holders map[string]int // worker name -> copies currently lent
	queued  int            // copies waiting in l.failed
	fanned  bool           // replicas were fanned out (or skipped: trusted)

	spotting bool // accepted, spot-check recomputation in flight
	emitted  bool // finalized: result emitted, verdicts delivered
}

func (vt *voteState[I, O]) dropHolder(name string) {
	if n := vt.holders[name]; n > 1 {
		vt.holders[name] = n - 1
	} else {
		delete(vt.holders, name)
	}
}

func (vt *voteState[I, O]) copiesLive() int {
	n := vt.queued
	for _, c := range vt.holders {
		n += c
	}
	return n
}

// participant reports whether the named worker already holds or has
// voted on this index — it must not receive another copy.
func (vt *voteState[I, O]) participant(name string) bool {
	return vt.holders[name] > 0 || vt.voter.Participated(name)
}

func (vt *voteState[I, O]) resolved() bool {
	_, done := vt.voter.Accepted()
	return done
}

// SetVerify installs (or, with nil, removes) the verification layer.
// Call before Bind; flipping it mid-stream is undefined.
func (l *Lender[I, O]) SetVerify(cfg *VerifyConfig[I, O]) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.verifying, l.verify, l.votes = cfg != nil, VerifyConfig[I, O]{}, nil
	if cfg == nil {
		return
	}
	c := *cfg
	if c.Quorum < 1 {
		c.Quorum = 1
	}
	if c.K < c.Quorum {
		c.K = c.Quorum
	}
	l.verify = c
}

// voteEnsureOpenLocked creates the vote record for a value the first
// time it is tracked (fresh lend, a read whose asker died, or a
// speculative duplicate).
func (l *Lender[I, O]) voteEnsureOpenLocked(idx int, v I) *voteState[I, O] {
	vt := l.votes[idx]
	if vt == nil {
		vt = &voteState[I, O]{
			input:   v,
			voter:   verify.NewVoter(l.verify.Quorum),
			values:  make(map[verify.Digest]O),
			holders: make(map[string]int),
		}
		if l.votes == nil {
			l.votes = make(map[int]*voteState[I, O])
		}
		l.votes[idx] = vt
	}
	return vt
}

// voteFanLocked fans out the replica copies the first time idx is lent:
// K-1 extra copies onto the failed queue — unless the first holder is
// trusted, in which case the value rides replication-free and the
// fast-path (plus spot-checks) covers it.
func (l *Lender[I, O]) voteFanLocked(vt *voteState[I, O], idx int, name string) {
	if vt.fanned {
		return
	}
	vt.fanned = true
	if l.verify.Trusted != nil && l.verify.Trusted(name) {
		return
	}
	for i := 0; i < l.verify.K-1; i++ {
		vt.queued++
		l.failed.push(lent[I]{idx: idx, v: vt.input})
	}
}

// voteLendFreshLocked accounts a brand-new value handed to sub.
func (l *Lender[I, O]) voteLendFreshLocked(sub *SubStream[I], idx int, v I) {
	vt := l.voteEnsureOpenLocked(idx, v)
	vt.holders[sub.name]++
	l.voteFanLocked(vt, idx, sub.name)
}

// voteLivenessLocked re-queues one copy when a vote is stuck: not
// resolved, yet no copy is lent or queued (a split or a repeated voice
// consumed them all). Re-lending goes to a non-participant,
// so each extra copy adds a fresh distinct ballot.
func (l *Lender[I, O]) voteLivenessLocked(idx int, vt *voteState[I, O]) {
	if vt.resolved() || vt.copiesLive() > 0 {
		return
	}
	vt.queued++
	l.failed.push(lent[I]{idx: idx, v: vt.input})
}

// voteCleanupLocked drops the vote record once it is emitted and no
// copy remains anywhere — late results of zombies are recognized (and
// graded) as long as their holder entry keeps the record alive.
func (l *Lender[I, O]) voteCleanupLocked(idx int, vt *voteState[I, O]) {
	if vt.emitted && len(vt.holders) == 0 && vt.queued == 0 {
		delete(l.votes, idx)
	}
}

// voteResultLocked records one result for the copy at the head of s's
// queue (already popped by resultLocked) and advances the vote.
func (l *Lender[I, O]) voteResultLocked(st *step[I, O], s *SubStream[I], item lent[I], v O) {
	// Whatever the ballot decides, the step ends with a service pass.
	defer l.serviceLocked(st)
	vt := l.votes[item.idx]
	if vt == nil {
		// The vote was finalized and cleaned before this zombie
		// answered; nothing to learn.
		l.discard(v)
		return
	}
	vt.dropHolder(s.name)

	// Without verification every ballot is the zero digest: the first
	// one reaches quorum 1.
	var d verify.Digest
	if l.verify.Digest != nil {
		d = l.verify.Digest(v)
	}

	if vt.resolved() {
		// Late result of a zombie copy: grade it against the accepted
		// digest, never re-open the vote. While a spot-check is in
		// flight the ballot is recorded but graded at finalization —
		// the spot recomputation may still re-point the accepted
		// digest.
		l.discard(v)
		outcome := vt.voter.Add(s.name, d)
		if vt.emitted && l.verify.OnVerdict != nil &&
			(outcome == verify.LateAgree || outcome == verify.LateDisagree) {
			fn, name, idx := l.verify.OnVerdict, s.name, item.idx
			agreed := outcome == verify.LateAgree
			st.hooks = append(st.hooks, func() { fn(name, idx, agreed) })
		}
		l.voteCleanupLocked(item.idx, vt)
		return
	}

	if _, seen := vt.values[d]; seen {
		l.discard(v)
	} else {
		vt.values[d] = v
	}
	switch vt.voter.Add(s.name, d) {
	case verify.QuorumReached:
		l.voteAcceptLocked(st, item.idx, vt, d, false)
	case verify.Counted:
		if l.verify.Trusted != nil && l.verify.Trusted(s.name) {
			// Fast-path: a trusted worker's ballot resolves the vote
			// by itself; outstanding replicas become zombies.
			vt.voter.Resolve(d)
			l.voteAcceptLocked(st, item.idx, vt, d, true)
			return
		}
		l.voteLivenessLocked(item.idx, vt)
	default: // verify.Duplicate: same voice twice, no new information
		l.voteLivenessLocked(item.idx, vt)
	}
}

// voteAcceptLocked handles a freshly resolved vote: either finalize
// immediately or hold emission for a spot-check recomputation.
func (l *Lender[I, O]) voteAcceptLocked(st *step[I, O], idx int, vt *voteState[I, O], d verify.Digest, fastPath bool) {
	if l.verify.Spot != nil && l.verify.Recompute != nil && l.verify.Spot(idx) {
		vt.spotting = true
		input := vt.input
		st.hooks = append(st.hooks, func() { l.spotCheck(idx, input, d, fastPath) })
		return
	}
	l.voteFinalizeLocked(st, idx, vt, d, fastPath, false, false)
}

// spotCheck recomputes idx locally (outside the lock) and finalizes the
// vote: on a digest mismatch the recomputed value is the ground truth —
// it replaces the accepted result, so even a full quorum of colluders
// cannot push a wrong value past a spot-check.
func (l *Lender[I, O]) spotCheck(idx int, input I, accepted verify.Digest, fastPath bool) {
	truth, err := l.verify.Recompute(input)
	var truthD verify.Digest
	if err == nil {
		truthD = l.verify.Digest(truth)
	}
	l.mu.Lock()
	vt := l.votes[idx]
	if vt == nil || !vt.spotting {
		l.mu.Unlock()
		return
	}
	vt.spotting = false
	d, failed := accepted, false
	if err == nil && truthD != accepted {
		failed = true
		d = truthD
		vt.voter.Resolve(truthD)
		vt.values[truthD] = truth
	}
	// A recomputation error leaves the quorum result standing — the
	// check was inconclusive, not failed.
	var st step[I, O]
	l.voteFinalizeLocked(&st, idx, vt, d, fastPath, true, failed)
	l.serviceLocked(&st)
	l.mu.Unlock()
	st.run()
}

// voteFinalizeLocked emits the accepted value, grades every ballot
// against the final digest, and releases the audit record. This is the
// single place a verified value reaches the reorder buffer, the
// journal hook and the output; the caller follows it with a service pass.
func (l *Lender[I, O]) voteFinalizeLocked(st *step[I, O], idx int, vt *voteState[I, O], d verify.Digest, fastPath, spotChecked, spotFailed bool) {
	vt.emitted = true
	l.acceptLocked(st, idx, vt.values[d])
	for dd, v := range vt.values {
		if dd != d {
			l.discard(v)
		}
	}
	vt.values = nil

	ballots := vt.voter.Ballots()
	names := make([]string, 0, len(ballots))
	for name := range ballots {
		names = append(names, name)
	}
	sort.Strings(names)
	var agreeing []string
	for _, name := range names {
		agreed := ballots[name] == d
		if agreed {
			agreeing = append(agreeing, name)
		}
		if l.verify.OnVerdict != nil {
			fn, n := l.verify.OnVerdict, name
			st.hooks = append(st.hooks, func() { fn(n, idx, agreed) })
		}
	}
	if l.verify.OnAccept != nil {
		votes := len(agreeing)
		a := verify.Acceptance{
			Idx:         idx,
			Digest:      d,
			Votes:       votes,
			Workers:     agreeing,
			FastPath:    fastPath,
			SpotChecked: spotChecked,
			SpotFailed:  spotFailed,
		}
		fn := l.verify.OnAccept
		st.hooks = append(st.hooks, func() { fn(a) })
	}
	l.voteCleanupLocked(idx, vt)
}

// voteEndCopyLocked handles one outstanding copy of a dying sub-stream.
// A copy with no record is re-queued, as Algorithm 1 re-lends it. A
// resolved vote's zombie copy is discarded. An unresolved one is
// re-queued — replica death mid-vote must not strand the quorum — except
// without verification while another copy is lent or queued: that copy
// answers the value, so each value is re-lent once however many of its
// holders die together.
func (l *Lender[I, O]) voteEndCopyLocked(s *SubStream[I], it lent[I]) {
	if vt := l.votes[it.idx]; vt != nil {
		vt.dropHolder(s.name)
		if vt.resolved() || !l.verifying && vt.copiesLive() > 0 {
			l.voteCleanupLocked(it.idx, vt)
			return
		}
		vt.queued++
	}
	l.failed.push(it)
}

// voteRelendLocked is the body of the failed-queue loop in
// serviceLocked: it drops copies of resolved votes, and hands a live
// copy only to a waiter whose worker name is not already a participant.
// It reports whether the queue entry at fi was consumed (the caller must
// not advance fi then).
func (l *Lender[I, O]) voteRelendLocked(st *step[I, O], fi int) (consumed bool) {
	it := l.failed.live()[fi]
	vt := l.votes[it.idx]
	if vt == nil {
		// A single-copy value: lend plainly to the first waiter.
		l.lendLocked(st, 0, l.failed.removeAt(fi))
		return true
	}
	if vt.resolved() {
		vt.queued--
		l.failed.removeAt(fi)
		l.voteCleanupLocked(it.idx, vt)
		return true
	}
	wi := -1
	for j, w := range l.waiters.live() {
		if !vt.participant(w.sub.name) {
			wi = j
			break
		}
	}
	if wi < 0 {
		// Every asking worker already holds or voted on this value;
		// keep the copy queued for a fresh voice.
		return false
	}
	sub := l.lendLocked(st, wi, l.failed.removeAt(fi))
	vt.queued--
	vt.holders[sub.name]++
	l.voteFanLocked(vt, it.idx, sub.name)
	return true
}

// voteSpeculateLocked queues one extra copy of each of s's oldest
// unresolved values (up to max). A speculative duplicate is just one more
// replica: the participant check keeps it away from s (and any
// same-named sibling), and the name-keyed ballots mean it can never count
// as a second vote from the same worker. Under verification a value may
// gain a copy whenever none is queued; without it, the duplicate opens
// the value's record, with s's worker as the holder and nothing to fan
// out, and a value that has a record is not duplicated again.
func (l *Lender[I, O]) voteSpeculateLocked(s *SubStream[I], max int) int {
	n := 0
	for _, it := range s.outstanding.live() {
		if n >= max {
			break
		}
		vt := l.votes[it.idx]
		if vt == nil && !l.verifying {
			vt = l.voteEnsureOpenLocked(it.idx, it.v)
			vt.holders[s.name]++
			vt.fanned = true
		} else if vt == nil || vt.resolved() || vt.queued > 0 || !l.verifying {
			continue
		}
		vt.queued++
		l.failed.push(lent[I]{idx: it.idx, v: it.v})
		n++
	}
	return n
}
