package main

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"math/big"
	"os"
	"testing"

	"pando/internal/apps"
)

func TestCollatzGenMatchesCollatzInputs(t *testing.T) {
	w := collatzSmall()
	for _, seed := range []uint64{defaultSeed, secondSeed} {
		start := collatzStart(seed)
		want := apps.CollatzInputs(new(big.Int).SetUint64(start), 50)
		for i, n := range want {
			if got := w.gen(seed, i); got != n {
				t.Fatalf("seed %d item %d: gen = %q, apps.CollatzInputs = %q", seed, i, got, n)
			}
		}
		if last := w.gen(seed, w.items-1); len(last) != 7 {
			t.Errorf("seed %d: last input %q is not the 7-byte small shape", seed, last)
		}
	}
	if collatzStart(defaultSeed) == collatzStart(secondSeed) {
		t.Error("the two documented seeds give the same inputs")
	}
}

func deflated(b []byte) int {
	var buf bytes.Buffer
	w, _ := flate.NewWriter(&buf, flate.BestSpeed)
	_, _ = w.Write(b)
	_ = w.Close()
	return buf.Len()
}

func TestTilePhases(t *testing.T) {
	const seed = 3
	if got := []int{tileKind(0), tileKind(255), tileKind(256), tileKind(512), tileKind(768), tileKind(1024)}; got[0] != 0 || got[1] != 0 || got[2] != 1 || got[3] != 2 || got[4] != 3 || got[5] != 0 {
		t.Fatalf("payload kind cycle = %v", got)
	}
	compressible, repeated, random := tileGen(seed, 10), tileGen(seed, 2*tilePhase+3), tileGen(seed, 3*tilePhase+3)
	for _, tile := range [][]byte{compressible, repeated, random} {
		if len(tile) != tileBytes {
			t.Fatalf("tile of %d bytes", len(tile))
		}
	}
	if n := deflated(compressible); n > tileBytes/4 {
		t.Errorf("compressible tile deflates to %d bytes", n)
	}
	if n := deflated(random); n < tileBytes*9/10 {
		t.Errorf("incompressible tile deflates to %d bytes", n)
	}
	if n := deflated(repeated); n < tileBytes*9/10 {
		t.Errorf("repeated tile deflates to %d bytes: dedup, not DEFLATE, must be what shrinks it", n)
	}
	if !bytes.Equal(repeated, tileGen(seed, 2*tilePhase+3+tileReuse)) {
		t.Error("a repeated phase does not repeat its tiles every tileReuse items")
	}
	if bytes.Equal(repeated, tileGen(seed, 2*tilePhase+4)) || bytes.Equal(compressible, tileGen(seed, 11)) || bytes.Equal(random, tileGen(seed, 3*tilePhase+4)) {
		t.Error("neighbouring tiles are identical")
	}
	if bytes.Equal(compressible, tileGen(seed+1, 10)) {
		t.Error("tiles do not depend on the seed")
	}
	sum, _ := tileChecksum([]byte("a"))
	if !bytes.Equal(sum, []byte{0xe4, 0x0c, 0x29, 0x2c}) { // FNV-1a 32 of "a"
		t.Errorf("tileChecksum(\"a\") = %x", sum)
	}
}

func TestChurnSchedule(t *testing.T) {
	f := fleetChurn().fleet
	prev := 0
	for k := 0; k < f.n; k++ {
		after := f.crashAfter(defaultSeed, k)
		if k >= f.crashers {
			if after != -1 {
				t.Errorf("volunteer %d crashes after %d items, want never (-1)", k, after)
			}
			continue
		}
		lo := crashBase + crashStep*k
		if after < lo || after >= lo+crashJit || after <= prev {
			t.Errorf("volunteer %d crashes after %d items, want within [%d,%d) and after volunteer %d", k, after, lo, lo+crashJit, k-1)
		}
		prev = after
	}
	// Every crasher must meet its threshold within its share of the stream.
	if share := fleetChurn().items / f.n; prev >= share {
		t.Errorf("last crash threshold %d is beyond a volunteer's share of %d items", prev, share)
	}
	for _, c := range []struct{ emitted, want int }{{0, 0}, {999, 0}, {1000, 1}, {2999, 1}, {3000, 2}, {15000, 8}, {16000, 8}} {
		if got := f.joinsDue(c.emitted); got != c.want {
			t.Errorf("joinsDue(%d) = %d, want %d", c.emitted, got, c.want)
		}
	}
	if got := collatzSmall().fleet.joinsDue(1 << 20); got != 0 {
		t.Errorf("a churn-free fleet is due %d joiners", got)
	}
}

// TestBenchmarkJSONListsWhatTheProgramPrints keeps ../BENCHMARK.json and
// the metric tables in step: the driver rejects a run whose metrics are
// not exactly the ones the file names.
func TestBenchmarkJSONListsWhatTheProgramPrints(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not next to this directory:", err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []entry, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			e := listed[i]
			if e.Name != d.name || e.Unit != d.unit || e.Better != better(d.higher) {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s %s, the program prints %s %s %s", kind, i, e.Name, e.Unit, e.Better, d.name, d.unit, better(d.higher))
			}
			if bounded && (e.Bound == nil || *e.Bound <= 0 || *e.Bound > 0.25) {
				t.Errorf("%s: %s needs a bound in (0, 0.25]", kind, e.Name)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer(), false)
	if len(file.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(file.Workloads), len(workloadNames))
	}
	for i, name := range workloadNames {
		if file.Workloads[i].Name != name || newRunner(name) == nil {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program has %q", i, file.Workloads[i].Name, name)
		}
	}
}
