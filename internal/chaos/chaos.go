// Package chaos is the deterministic fault-injection harness behind the
// whole-stack chaos tests: every scenario — how many workers, which
// links, which faults fire when and against whom — is derived from a
// single int64 seed, so any failure a randomized CI run finds reproduces
// exactly with `-chaos.seed=N`.
//
// The paper's correctness claim (§2.3, §4) is that Pando preserves
// exactly-once, in-order output under crash-stop volunteer failures.
// Volunteer-computing deployments at BOINC scale (Anderson & Fedak) see
// churn, partitions and stragglers arrive combined, not one at a time;
// this package manufactures those combinations by the thousand instead of
// the handful a hand-written scenario suite covers.
//
// The harness has three parts:
//
//   - Rand: a lock-protected seeded generator that Forks into independent
//     deterministic sub-streams by label, so one decision domain (worker
//     speeds, fault times, kill points) never perturbs another's draws.
//   - Schedule: a list of named fault actions at fixed offsets from
//     scenario start, built deterministically from a Rand and executed
//     against tightly-bounded real time. The schedule — not the exact
//     wall-clock interleaving — is what a seed pins down.
//   - Invariants: checkers for the properties every run must preserve —
//     exactly-once in-order output, no leaked goroutines (which covers
//     simulated sockets: every endpoint the stack holds is read by its
//     channel's read loop until it closes), no stale fleet leases, and
//     journal-resume byte identity.
package chaos

import (
	"math/rand"
	"sync"
	"time"
)

// Rand is a seeded, lock-protected random source. All scenario decisions
// must flow through one (or a Fork of one) so a seed fully determines the
// scenario.
type Rand struct {
	seed int64
	mu   sync.Mutex
	r    *rand.Rand
}

// New creates a generator from seed.
func New(seed int64) *Rand {
	return &Rand{seed: seed, r: rand.New(rand.NewSource(seed))}
}

// Seed returns the seed this generator was created with.
func (r *Rand) Seed() int64 { return r.seed }

// Fork derives an independent generator for one labelled decision domain.
// The child's stream depends only on the parent's seed and the label —
// not on how many draws the parent has made — so adding draws to one
// domain never shifts another's schedule.
func (r *Rand) Fork(label string) *Rand {
	return New(r.seed ^ fnv64(label))
}

// fnv64 hashes a label into the non-negative int64 range (FNV-1a).
func fnv64(s string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return int64(h &^ (1 << 63))
}

// Intn draws a uniform int in [0, n).
func (r *Rand) Intn(n int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.r.Intn(n)
}

// Int63 draws a non-negative int64.
func (r *Rand) Int63() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.r.Int63()
}

// Float64 draws a uniform float in [0, 1).
func (r *Rand) Float64() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.r.Float64()
}

// Bool reports true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Duration draws a uniform duration in [min, max).
func (r *Rand) Duration(min, max time.Duration) time.Duration {
	if max <= min {
		return min
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return min + time.Duration(r.r.Int63n(int64(max-min)))
}

// Perm draws a permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.r.Perm(n)
}
