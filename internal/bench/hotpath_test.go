package bench

import (
	"testing"

	"pando/internal/proto"
	"pando/internal/race"
)

// TestHotpathCodecZeroAlloc is the CI gate on the codec half of the
// hot-path experiment: the pooled v2 path must stay at 0 allocs/op in
// both directions.
func TestHotpathCodecZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops puts under the race detector: the count is not the codec's")
	}
	for _, c := range MeasureHotpathCodec(proto.V2, 1024) {
		if c.AllocsPerOp != 0 {
			t.Errorf("pooled v2 %s: %d allocs/op, want 0", c.Op, c.AllocsPerOp)
		}
	}
}
