package bench

import (
	"testing"

	"pando/internal/proto"
	"pando/internal/race"
)

// TestCompressCodecZeroAlloc is the CI gate on the new format: the
// '/pando/2.2.0' codec must hold the pooled hot path's 0 allocs/op
// steady state with compression engaged — the hotpath payload is
// compressible, so the write side exercises the DEFLATE path and the
// read side the inflate path.
func TestCompressCodecZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops puts under the race detector: the count is not the codec's")
	}
	for _, c := range MeasureHotpathCodec(proto.NewCompressedWire(), 16384) {
		if c.AllocsPerOp != 0 {
			t.Errorf("v3 %s: %d allocs/op, want 0", c.Op, c.AllocsPerOp)
		}
	}
}

// TestCompressProfileSmoke runs every workload through both wires on a
// small fleet: the harness must produce every result and count bytes on
// both, whatever the machine's speed.
func TestCompressProfileSmoke(t *testing.T) {
	for wl, name := range CompressWorkloadNames {
		for _, v3 := range []bool{false, true} {
			rate, wireBytes, err := RunCompressProfile(wl, v3, 20, 100, 4096, 0)
			if err != nil {
				t.Fatalf("%s v3=%v: %v", name, v3, err)
			}
			if rate <= 0 || wireBytes <= 0 {
				t.Fatalf("%s v3=%v: rate %f, bytes %d", name, v3, rate, wireBytes)
			}
		}
	}
}

// TestCompressSavesWireBytes pins the direction of the headline effects
// at test scale: the compressible workload must cross the wire in far
// fewer bytes on v3, the repeated workload must collapse under dedup,
// and the incompressible workload must not inflate.
func TestCompressSavesWireBytes(t *testing.T) {
	measure := func(wl int, v3 bool) int64 {
		t.Helper()
		_, wireBytes, err := RunCompressProfile(wl, v3, 10, 80, 8192, 0)
		if err != nil {
			t.Fatalf("workload %d v3=%v: %v", wl, v3, err)
		}
		return wireBytes
	}
	if base, v3 := measure(WorkloadCompressible, false), measure(WorkloadCompressible, true); v3 > base*7/10 {
		t.Errorf("compressible: v3 sent %d of %d baseline bytes, want ≤70%%", v3, base)
	}
	if base, v3 := measure(WorkloadRepeated, false), measure(WorkloadRepeated, true); v3 > base/2 {
		t.Errorf("repeated: v3 sent %d of %d baseline bytes, want ≤50%%", v3, base)
	}
	if base, v3 := measure(WorkloadIncompressible, false), measure(WorkloadIncompressible, true); v3 > base+base/20 {
		t.Errorf("incompressible: v3 sent %d of %d baseline bytes, want within 5%%", v3, base)
	}
}
