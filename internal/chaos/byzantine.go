package chaos

// Byzantine fault builders: handler wrappers that return WRONG results
// instead of crashing. Crash-stop faults (faults.go) are what the
// paper's §2.3 model tolerates by construction; these are what it does
// not — a volunteer that computes quickly and lies. Only the
// verification layer (quorum voting on result digests, spot-checks,
// reputation) stands between a Byzantine handler and the output, which
// is exactly what the Byzantine chaos tier pins.
//
// Every wrapper is deterministic given its seed and inputs, so a chaos
// seed fully reproduces which values were answered wrongly and with
// what bytes. The fabricated payloads are well-formed JSON numbers:
// they decode cleanly, carry a valid transport digest (the cheater
// hashes its own lie), and are indistinguishable from honest results
// until an independent replica disagrees — the strongest adversary the
// voting layer faces from inside the data plane.

import (
	"fmt"
	"strconv"

	"pando/internal/verify"
	"pando/internal/worker"
)

// wrongBytes fabricates a plausible, well-formed JSON number from the
// input payload and a key: deterministic (same input, same lie — a
// re-lent value is answered identically), never empty, and chosen so
// distinct keys virtually never produce colliding lies.
func wrongBytes(key int64, input []byte) []byte {
	h := uint64(14695981039346656037) ^ uint64(key)
	for i := 0; i < len(input); i++ {
		h ^= uint64(input[i])
		h *= 1099511628211
	}
	// Bias away from small honest answers; keep it positive and short.
	return strconv.AppendUint(nil, h%1_000_000_000+666, 10)
}

// WrongResult wraps h so that each call lies with probability rate
// (drawn from r): the fabricated answer replaces the honest one, keyed
// by the input so replays of a seed lie on the same draws. The
// intermittent cheat is the hardest reputation case — it earns real
// agreement between lies, so its score must fall on evidence, not on a
// single verdict.
func WrongResult(r *Rand, h worker.Handler, rate float64) worker.Handler {
	return func(dst, input []byte) ([]byte, error) {
		out, err := h(dst, input)
		if err != nil {
			return nil, err
		}
		if r.Bool(rate) {
			return wrongBytes(0x57524F4E, input), nil // "WRON"
		}
		return out, nil
	}
}

// LazyEcho is the freeloader: it never computes, echoing the input
// payload back as the "result". Fast, consistent, and wrong on every
// value whose honest result differs from its input — the classic
// credit-farming volunteer of the BOINC era.
func LazyEcho() worker.Handler {
	return func(_, input []byte) ([]byte, error) {
		out := make([]byte, len(input))
		copy(out, input)
		return out, nil
	}
}

// Colluder builds a member of a colluding group: every member wrapping
// any handler with the same group key fabricates byte-identical wrong
// answers for the same input. A group of size quorum-1 is the strongest
// coalition quorum voting provably defeats; the Byzantine tier runs
// exactly that.
func Colluder(group int64, h worker.Handler) worker.Handler {
	_ = h // the coalition never bothers computing honestly
	return func(_, input []byte) ([]byte, error) {
		return wrongBytes(group, input), nil
	}
}

// CheckVerified asserts that no unverified value reached the output:
// the acceptance audit must hold exactly one record per index 0..n-1,
// and every record must be sealed by a quorum of distinct workers, the
// trusted fast path, or a spot-check recomputation. An index missing
// from the audit means a result was emitted without passing through the
// voting layer at all.
func CheckVerified(acc []verify.Acceptance, n, quorum int) error {
	seen := make(map[int]bool, n)
	for _, a := range acc {
		if a.Idx < 0 || a.Idx >= n {
			return fmt.Errorf("chaos: acceptance for index %d, outside 0..%d", a.Idx, n-1)
		}
		if seen[a.Idx] {
			return fmt.Errorf("chaos: index %d accepted twice (vote finalized twice)", a.Idx)
		}
		seen[a.Idx] = true
		switch {
		case a.Votes >= quorum:
		case a.FastPath:
		case a.SpotChecked && !a.SpotFailed:
		case a.SpotChecked: // spot-check overrode the vote: the recomputed truth was emitted
		default:
			return fmt.Errorf("chaos: index %d emitted with %d votes (quorum %d), no fast path, no spot-check — unverified value reached the output", a.Idx, a.Votes, quorum)
		}
	}
	if len(seen) != n {
		for i := 0; i < n; i++ {
			if !seen[i] {
				return fmt.Errorf("chaos: index %d missing from the acceptance audit (emitted without verification)", i)
			}
		}
	}
	return nil
}
