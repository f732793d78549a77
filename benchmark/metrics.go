package main

// Metric tables: the single list of names and units this program prints.
// BENCHMARK.json repeats them with the regression bounds; metrics_test.go
// fails if the two drift apart.

type metricDef struct {
	name   string
	unit   string
	higher bool // true when a higher value is better
}

// endToEnd is what a user of the system sees; every workload reports all
// of them. error_rate is the eighth: it must be 0, so it travels as
// failed/attempted in the result line rather than as a bounded metric.
var endToEnd = []metricDef{
	{"items_per_s", "1/s", true},
	{"item_latency_p50_ms", "ms", false},
	{"cpu_us_per_item", "us", false},
	{"allocs_per_item", "count", false},
	{"wire_bytes_per_item", "B", false},
	{"peak_rss_mb", "MiB", false},
	{"setup_s", "s", false},
}

// ladderMetrics come from the layer ladder (ladder.go).
var ladderMetrics = []metricDef{
	{"bench.calib_ns", "ns", false},
	{"apps.collatz_ns", "ns", false},
	{"apps.tile_checksum_ns", "ns", false},
	{"raytracer.frame_us", "us", false},
	{"proto.write_small_ns", "ns", false},
	{"proto.read_small_ns", "ns", false},
	{"proto.write_tile_ns", "ns", false},
	{"proto.read_tile_ns", "ns", false},
	{"proto.write_allocs", "count", false},
	{"proto.read_allocs", "count", false},
	{"proto.tile_wire_ratio", "ratio", false},
	{"pullstream.chain_ns_per_item", "ns", false},
	{"pullstream.chain_allocs_per_item", "count", false},
	{"lender.ns_per_item", "ns", false},
	{"lender.allocs_per_item", "count", false},
	{"lender.relend_ns_per_item", "ns", false},
	{"core.ns_per_item", "ns", false},
	{"core.allocs_per_item", "count", false},
	{"transport.roundtrip_us", "us", false},
	{"transport.roundtrip_allocs", "count", false},
	{"netsim.relay_ns_per_chunk", "ns", false},
	{"journal.record_ns", "ns", false},
	{"journal.sync_ms", "ms", false},
	{"blob.put_get_ns", "ns", false},
	{"verify.vote_ns", "ns", false},
	{"shard.merge_ns_per_item", "ns", false},
}

// tracedMetrics come from the traced rep (analyze.go), except the two
// pando.* tail metrics, which are taken over the untraced reps: on the
// host-bound workloads they move too much between identical runs to be
// end-to-end gates.
var tracedMetrics = []metricDef{
	{"pando.source_wait_us_p50", "us", false},
	{"pando.first_result_ms", "ms", false},
	{"pando.item_latency_p99_ms", "ms", false},
	{"lender.dispatch_wait_us_p50", "us", false},
	{"proto.encode_in_us_p50", "us", false},
	{"transport.wire_out_us_p50", "us", false},
	{"worker.service_us_p50", "us", false},
	{"worker.service_self_us_p50", "us", false},
	{"apps.kernel_us_p50", "us", false},
	{"worker.busy_share", "ratio", true},
	{"transport.wire_back_us_p50", "us", false},
	{"proto.decode_out_us_p50", "us", false},
	{"lender.reorder_wait_us_p50", "us", false},
	{"lender.reorder_wait_us_p99", "us", false},
	{"transport.frames_per_item", "count", false},
	{"transport.bytes_out_per_item", "B", false},
	{"transport.bytes_back_per_item", "B", false},
	{"sched.window_p50", "count", true},
	{"sched.window_max", "count", true},
	{"sched.window_mean", "count", true},
	{"sched.window_little", "count", true},
	{"lender.work_amplification", "ratio", false},
	{"lender.relent_items", "count", false},
	{"lender.reencoded_items", "count", false},
	{"fleet.admit_ms", "ms", false},
	{"fleet.goroutines_per_conn", "count", false},
	{"fleet.recover_ms_p50", "ms", false},
	{"fleet.crashes", "count", false},
	{"journal.bytes_per_item", "B", false},
	{"trace.overhead_pct", "%", false},
	{"trace.unaccounted_pct", "%", false},
	{"trace.coverage_pct", "%", true},
}

func perLayer() []metricDef {
	return append(append([]metricDef(nil), ladderMetrics...), tracedMetrics...)
}

func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}
