// Command pando-bench regenerates the paper's evaluation (Section 5) on
// the simulated substrate:
//
//	pando-bench -table 2                 # full Table 2 (all scenarios)
//	pando-bench -table 2 -scenario lan   # one block
//	pando-bench -sweep batch             # §5.5: batching hides latency
//	pando-bench -claims                  # §5.5 analysis claims
//	pando-bench -speedup                 # headline speedup vs one device
//
// Absolute rates are calibrated from the paper's measurements; what the
// run demonstrates is the shape — who wins, by what share, and how
// batching interacts with latency — produced by the real coordination
// stack.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"pando/internal/bench"
)

func main() {
	var (
		table     = flag.Int("table", 0, "paper table to regenerate (2)")
		scenario  = flag.String("scenario", "all", "lan | vpn | wan | all")
		sweep     = flag.String("sweep", "", "sweep to run: batch")
		claims    = flag.Bool("claims", false, "check the §5.5 analysis claims")
		ablations = flag.Bool("ablations", false, "run the design-choice ablations")
		speedup   = flag.Bool("speedup", false, "measure speedup of all LAN devices vs one")
		schedExp  = flag.Bool("sched", false, "run the static-vs-adaptive flow-control experiment")
		schedOut  = flag.String("sched-out", "BENCH_sched.json", "where -sched persists its results")
		jrnExp    = flag.Bool("journal", false, "measure checkpoint journal overhead on the collatz profile")
		jrnOut    = flag.String("journal-out", "BENCH_journal.json", "where -journal persists its results")
		poolExp   = flag.Bool("pool", false, "measure shared-fleet vs dedicated-masters on two concurrent jobs")
		poolOut   = flag.String("pool-out", "BENCH_pool.json", "where -pool persists its results")
		shardExp  = flag.Bool("shard", false, "measure aggregate throughput of sharded masters against one master over the same modeled-uplink fleet")
		shardOut  = flag.String("shard-out", "BENCH_shard.json", "where -shard persists its results")
		shardCnts = flag.String("shard-counts", "1,2,4,8", "comma-separated shard widths for -shard (the single-master baseline always runs)")
		shardWrk  = flag.Int("shard-workers", 10000, "netsim volunteer count for -shard, split evenly across the shards")
		shardPer  = flag.Int("shard-items", 2, "items per worker for each -shard cell")
		shardPay  = flag.Int("shard-payload", 8192, "payload bytes per item for -shard")
		shardUp   = flag.Int64("shard-uplink", int64(bench.DefaultShardUplink), "modeled per-master uplink in bytes/sec for -shard")
		shardOne  = flag.String("shard-one", "", "internal: run one shard measurement (\"shards,workers,items,payload,uplink\") and print items/sec")
		compExp   = flag.Bool("compress", false, "measure the bandwidth-aware wire (adaptive compression + payload dedup) against the plain binary wire")
		compOut   = flag.String("compress-out", "BENCH_compress.json", "where -compress persists its results")
		compWrk   = flag.Int("compress-workers", 10000, "netsim volunteer count for -compress")
		compPer   = flag.Int("compress-items", 2, "items per worker for each -compress cell")
		compPay   = flag.Int("compress-payload", 16384, "payload bytes per item for -compress (default: one 128x128 grayscale imgproc tile)")
		compUp    = flag.Int64("compress-uplink", int64(bench.DefaultCompressUplink), "modeled master uplink in bytes/sec shared by the -compress fleet")
		compReps  = flag.Int("compress-reps", 1, "baseline/v3 pairs per -compress workload (median-speedup pair is reported; bandwidth-paced cells vary little between reps)")
		compOne   = flag.String("compress-one", "", "internal: run one compress measurement (\"workload,v3,workers,items,payload,uplink\") and print items/sec and wire bytes")
		verExp    = flag.Bool("verify", false, "measure k-replication overhead and the reputation fast-path recovery curve against the unreplicated data plane")
		verOut    = flag.String("verify-out", "BENCH_verify.json", "where -verify persists its results")
		verWrk    = flag.Int("verify-workers", 10000, "netsim volunteer count for -verify")
		verPer    = flag.Int("verify-items", 40, "items per worker for the longest -verify stream (the recovery curve also runs the half and quarter lengths)")
		verPay    = flag.Int("verify-payload", 2048, "payload bytes per item for -verify")
		verOne    = flag.String("verify-one", "", "internal: run one verification cell (\"workers,items,payload,k,quorum,trustmilli\") and print items/sec and fast-path share")
		items     = flag.Int("items", 400, "work items per cell")
		timeScale = flag.Float64("timescale", bench.DefaultTimeScale, "time compression factor")
	)
	flag.Parse()
	opt := bench.Options{Items: *items, TimeScale: *timeScale}

	// Child modes: run exactly one cell and print its values. The parent
	// re-executes itself per measurement so every run starts from a
	// pristine runtime — a fleet leaves tens of thousands of dead
	// goroutine stacks and an inflated heap target behind, which would
	// otherwise bleed into the next measurement (see bench.ChildCell).
	if *shardOne != "" {
		f, err := bench.ParseChildSpec(*shardOne, 5)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pando-bench: bad -shard-one %q: %v\n", *shardOne, err)
			os.Exit(1)
		}
		bench.ChildCell(func() ([]float64, error) {
			rate, err := bench.RunShardProfile(int(f[0]), int(f[1]), int(f[2]), int(f[3]), f[4])
			return []float64{rate}, err
		})
		return
	}

	if *verOne != "" {
		f, err := bench.ParseChildSpec(*verOne, 6)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pando-bench: bad -verify-one %q: %v\n", *verOne, err)
			os.Exit(1)
		}
		bench.ChildCell(func() ([]float64, error) {
			rate, fastShare, err := bench.RunVerifyProfile(int(f[0]), int(f[1]), int(f[2]), int(f[3]), int(f[4]), float64(f[5])/1000)
			return []float64{rate, fastShare}, err
		})
		return
	}

	if *compOne != "" {
		f, err := bench.ParseChildSpec(*compOne, 6)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pando-bench: bad -compress-one %q: %v\n", *compOne, err)
			os.Exit(1)
		}
		bench.ChildCell(func() ([]float64, error) {
			rate, wireBytes, err := bench.RunCompressProfile(int(f[0]), f[1] != 0, int(f[2]), int(f[3]), int(f[4]), f[5])
			return []float64{rate, float64(wireBytes)}, err
		})
		return
	}

	ran := false
	if *table == 2 {
		ran = true
		var cells []bench.CellResult
		var err error
		switch strings.ToLower(*scenario) {
		case "lan":
			cells, err = bench.RunScenario(bench.LAN, opt)
		case "vpn":
			cells, err = bench.RunScenario(bench.VPN, opt)
		case "wan":
			cells, err = bench.RunScenario(bench.WAN, opt)
		case "all":
			cells, err = bench.RunTable2(opt)
		default:
			err = fmt.Errorf("unknown scenario %q", *scenario)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "pando-bench:", err)
			os.Exit(1)
		}
		bench.RenderTable2(os.Stdout, cells)
	}

	if *sweep == "batch" {
		ran = true
		for _, latency := range []time.Duration{2 * time.Millisecond, 10 * time.Millisecond, 40 * time.Millisecond} {
			points, err := bench.RunBatchSweep([]int{1, 2, 4, 8, 16}, latency, 10*time.Millisecond, 4, 240)
			if err != nil {
				fmt.Fprintln(os.Stderr, "pando-bench:", err)
				os.Exit(1)
			}
			bench.RenderSweep(os.Stdout, points)
		}
	}

	if *claims {
		ran = true
		bench.RenderClaims(os.Stdout, bench.CheckClaims())
	}

	if *ablations {
		ran = true
		det, err := bench.RunFailureDetection([]time.Duration{
			10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "pando-bench:", err)
			os.Exit(1)
		}
		ord, err := bench.RunOrderingAblation(4, 300, time.Millisecond)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pando-bench:", err)
			os.Exit(1)
		}
		adapt, err := bench.RunBatchAdaptivity([]int{1, 2, 4, 16, 64}, 200)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pando-bench:", err)
			os.Exit(1)
		}
		bench.RenderAblations(os.Stdout, det, ord, adapt)
		grouping, err := bench.RunGroupingComparison([]int{1, 2, 4, 8, 16}, 20*time.Millisecond, 3, 300)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pando-bench:", err)
			os.Exit(1)
		}
		bench.RenderGrouping(os.Stdout, grouping)
	}

	if *speedup {
		ran = true
		for _, app := range []bench.App{bench.Raytrace, bench.Collatz} {
			r, err := bench.RunSpeedup(app, "MBAir 2011", opt)
			if err != nil {
				fmt.Fprintln(os.Stderr, "pando-bench:", err)
				os.Exit(1)
			}
			bench.RenderSpeedup(os.Stdout, r)
		}
	}

	if *schedExp {
		ran = true
		cmp, err := bench.RunSchedComparison(*items, *items/2)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pando-bench:", err)
			os.Exit(1)
		}
		bench.RenderSched(os.Stdout, cmp)
		data, err := json.MarshalIndent(cmp, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "pando-bench:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*schedOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "pando-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("results written to %s\n", *schedOut)
	}

	if *jrnExp {
		ran = true
		cmp, err := bench.RunJournalComparison(*items)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pando-bench:", err)
			os.Exit(1)
		}
		bench.RenderJournal(os.Stdout, cmp)
		data, err := json.MarshalIndent(cmp, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "pando-bench:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jrnOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "pando-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("results written to %s\n", *jrnOut)
	}

	if *poolExp {
		ran = true
		cmp, err := bench.RunPoolComparison(*items)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pando-bench:", err)
			os.Exit(1)
		}
		bench.RenderPool(os.Stdout, cmp)
		data, err := json.MarshalIndent(cmp, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "pando-bench:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*poolOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "pando-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("results written to %s\n", *poolOut)
	}

	if *shardExp {
		ran = true
		var counts []int
		for _, c := range strings.Split(*shardCnts, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(c))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "pando-bench: bad -shard-counts entry %q\n", c)
				os.Exit(1)
			}
			counts = append(counts, n)
		}
		cmp, err := bench.RunShardWith(counts, *shardWrk, *shardPer, *shardPay, *shardUp, freshShardRun)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pando-bench:", err)
			os.Exit(1)
		}
		bench.RenderShard(os.Stdout, cmp)
		data, err := json.MarshalIndent(cmp, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "pando-bench:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*shardOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "pando-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("results written to %s\n", *shardOut)
	}

	if *compExp {
		ran = true
		if *compReps > 0 {
			bench.CompressReps = *compReps
		}
		cmp, err := bench.RunCompressWith(*compWrk, *compPer, *compPay, *compUp, freshCompressRun)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pando-bench:", err)
			os.Exit(1)
		}
		bench.RenderCompress(os.Stdout, cmp)
		data, err := json.MarshalIndent(cmp, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "pando-bench:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*compOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "pando-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("results written to %s\n", *compOut)
	}

	if *verExp {
		ran = true
		cmp, err := bench.RunVerifyWith(*verWrk, *verPer, *verPay, freshVerifyRun)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pando-bench:", err)
			os.Exit(1)
		}
		bench.RenderVerify(os.Stdout, cmp)
		data, err := json.MarshalIndent(cmp, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "pando-bench:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*verOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "pando-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("results written to %s\n", *verOut)
	}

	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

// freshVerifyRun executes one -verify cell in a child process (this same
// binary with -verify-one) and parses the rate and fast-path share it
// prints. The trust threshold travels as an integer in thousandths.
func freshVerifyRun(workers, items, payload, k, quorum int, trust float64) (float64, float64, error) {
	spec := bench.ChildSpec(int64(workers), int64(items), int64(payload), int64(k), int64(quorum), int64(trust*1000))
	vals, err := bench.FreshProcessRun("-verify-one", spec, func() ([]float64, error) {
		rate, fastShare, err := bench.RunVerifyProfile(workers, items, payload, k, quorum, trust)
		return []float64{rate, fastShare}, err
	})
	if err != nil {
		return 0, 0, err
	}
	if len(vals) < 2 {
		return 0, 0, fmt.Errorf("verify child %s: want 2 values, got %d", spec, len(vals))
	}
	return vals[0], vals[1], nil
}

func boolField(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// freshShardRun executes one -shard cell in a child process (this same
// binary with -shard-one) and parses the rate it prints.
func freshShardRun(shards, workers, items, payload int, uplink int64) (float64, error) {
	spec := bench.ChildSpec(int64(shards), int64(workers), int64(items), int64(payload), uplink)
	vals, err := bench.FreshProcessRun("-shard-one", spec, func() ([]float64, error) {
		rate, err := bench.RunShardProfile(shards, workers, items, payload, uplink)
		return []float64{rate}, err
	})
	if err != nil {
		return 0, err
	}
	return vals[0], nil
}

// freshCompressRun executes one -compress cell in a child process (this
// same binary with -compress-one) and parses the rate and wire-byte
// count it prints.
func freshCompressRun(workload int, v3 bool, workers, items, payload int, uplink int64) (float64, int64, error) {
	spec := bench.ChildSpec(int64(workload), boolField(v3), int64(workers), int64(items), int64(payload), uplink)
	vals, err := bench.FreshProcessRun("-compress-one", spec, func() ([]float64, error) {
		rate, wireBytes, err := bench.RunCompressProfile(workload, v3, workers, items, payload, uplink)
		return []float64{rate, float64(wireBytes)}, err
	})
	if err != nil {
		return 0, 0, err
	}
	if len(vals) < 2 {
		return 0, 0, fmt.Errorf("compress child %s: want 2 values, got %d", spec, len(vals))
	}
	return vals[0], int64(vals[1]), nil
}
