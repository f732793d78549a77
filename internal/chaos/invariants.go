package chaos

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"pando/internal/fleet"
	"pando/internal/journal"
)

// CheckExact verifies the core output invariant: got is exactly want(0),
// want(1), ..., want(n-1) — no missing, duplicated, reordered or foreign
// value. This is the paper's exactly-once in-order guarantee stated as a
// predicate.
func CheckExact[T comparable](got []T, n int, want func(i int) T) error {
	if len(got) != n {
		return fmt.Errorf("chaos: %d outputs, want %d (missing or duplicated results)", len(got), n)
	}
	for i, v := range got {
		if w := want(i); v != w {
			return fmt.Errorf("chaos: out[%d] = %v, want %v (duplicate, missing or misordered output)", i, v, w)
		}
	}
	return nil
}

// StaleLeases scans a fleet worker-set snapshot for sessions still leased
// (or being reclaimed) by a job that is no longer open. After every job
// of a pool has closed, repeated snapshots must converge to none — a
// persistent entry is a lease the pool lost track of.
func StaleLeases(workers []fleet.WorkerInfo, open func(job string) bool) []string {
	var stale []string
	for _, w := range workers {
		if (w.State == "leased" || w.State == "reclaiming") && w.Job != "" && !open(w.Job) {
			stale = append(stale, fmt.Sprintf("%s %s by closed job %q", w.Name, w.State, w.Job))
		}
	}
	return stale
}

// VerifyJournal re-opens the checkpoint journal at path after a run and
// checks byte identity: it must hold exactly the indices 0..n-1, and each
// payload must equal want(i) byte for byte — what a resumed master will
// replay must be indistinguishable from what an uninterrupted run would
// have produced.
func VerifyJournal(path string, n int, want func(i int) []byte) error {
	j, err := journal.Open(path, journal.Options{SyncInterval: -1, SnapshotEvery: -1})
	if err != nil {
		return fmt.Errorf("chaos: reopen journal: %w", err)
	}
	defer j.Close()
	entries := j.Completed()
	if len(entries) != n {
		return fmt.Errorf("chaos: journal holds %d entries, want %d", len(entries), n)
	}
	for i, e := range entries {
		if e.Idx != i {
			return fmt.Errorf("chaos: journal entry %d has index %d (gap or duplicate)", i, e.Idx)
		}
		if w := want(i); !bytes.Equal(e.Data, w) {
			return fmt.Errorf("chaos: journal payload %d = %q, want %q (resume would not be byte-identical)", i, e.Data, w)
		}
	}
	return nil
}

// VerifySegments is VerifyJournal for a sharded run: it reads every
// completion segment left under dir — all shards, all epochs, including
// the segments of masters that were killed mid-run — and checks that the
// union covers exactly the indices 0..n-1 and that every recorded
// payload equals want(i) byte for byte. Epochs of one shard may overlap
// (a migration copies the dead master's completed prefix into its
// successor's segment); overlapping records must agree.
func VerifySegments(dir string, n int, want func(i int) []byte) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		return fmt.Errorf("chaos: scan segments: %w", err)
	}
	if len(paths) == 0 {
		return fmt.Errorf("chaos: no segments under %s", dir)
	}
	sort.Strings(paths)
	seen := make(map[int]bool, n)
	for _, p := range paths {
		entries, err := journal.ReadSegment(p)
		if err != nil {
			return fmt.Errorf("chaos: reread segment: %w", err)
		}
		for _, e := range entries {
			if e.Idx < 0 || e.Idx >= n {
				return fmt.Errorf("chaos: %s records index %d, outside 0..%d", filepath.Base(p), e.Idx, n-1)
			}
			if w := want(e.Idx); !bytes.Equal(e.Data, w) {
				return fmt.Errorf("chaos: %s payload for %d = %q, want %q (restore would not be byte-identical)",
					filepath.Base(p), e.Idx, e.Data, w)
			}
			seen[e.Idx] = true
		}
	}
	if len(seen) != n {
		for i := 0; i < n; i++ {
			if !seen[i] {
				return fmt.Errorf("chaos: index %d missing from every segment (result emitted but never made durable)", i)
			}
		}
	}
	return nil
}

// LeakGuard snapshots the number of live Pando goroutines so a scenario
// can assert it released everything it spun up. A simulated pipe owns no
// goroutine, but every endpoint the stack holds is wrapped in a channel
// whose read loop runs until the socket closes, and every channel, engine,
// journal and pool runs its loops on goroutines, so "no goroutine leaks"
// subsumes "no socket leaks" in the simulated world.
type LeakGuard struct {
	baseline int
}

// Guard snapshots the current count. Take it before building a scenario.
func Guard() *LeakGuard {
	return &LeakGuard{baseline: len(pandoStacks())}
}

// Check polls until the live Pando goroutine count returns to (or under)
// the baseline, failing with the leaked stacks after timeout. The
// baseline-relative check tolerates unrelated background goroutines that
// predate the scenario.
func (g *LeakGuard) Check(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		leaked := pandoStacks()
		if len(leaked) <= g.baseline {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: %d pando goroutines live, baseline %d — leaked:\n\n%s",
				len(leaked), g.baseline, strings.Join(leaked, "\n\n"))
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// pandoStacks returns the stack dumps of every live goroutine running
// Pando code (any frame in this module), excluding the calling goroutine.
func pandoStacks() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			return filterStacks(string(buf))
		}
		buf = make([]byte, len(buf)*2)
	}
}

// filterStacks keeps the dumps whose frames run module code. The first
// dump is the calling goroutine (runtime.Stack lists it first) and is
// skipped; test-function goroutines live in *_test packages ("pando_test.")
// and do not match the module-frame patterns.
func filterStacks(dump string) []string {
	stacks := strings.Split(dump, "\n\n")
	var out []string
	for i, s := range stacks {
		if i == 0 {
			continue
		}
		if strings.Contains(s, "pando/internal/") || strings.Contains(s, "\npando.") {
			out = append(out, s)
		}
	}
	return out
}
