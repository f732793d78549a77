package main

import (
	"math"
	"testing"
	"time"
)

// traceOf builds a tracer by hand: items with the given input keys, all
// offered at 0, taken and emitted at the given times.
func traceOf(inKeys []uint64, taken, emitted []int64) *tracer {
	t := newTracer(len(inKeys), false)
	copy(t.inKeys, inKeys)
	copy(t.takenAt, taken)
	copy(t.emittedAt, emitted)
	return t
}

func (t *tracer) addEnc(e codecEvent) { t.enc[t.encN.Add(1)-1] = e }
func (t *tracer) addDec(e codecEvent) { t.dec[t.decN.Add(1)-1] = e }

// analyzed runs both halves of the analysis, as main does.
func analyzed(tr *tracer, res repResult, outKeys []uint64, f fleet) (*analysis, *reconstruction) {
	rec := reconstruct(tr, res.emitted, outKeys)
	return analyze(tr, res, rec, f), rec
}

func stageMeans(a *analysis) map[string]float64 {
	out := map[string]float64{}
	for _, s := range a.stages {
		out[s.Name] = s.MeanUs * 1e3 // back to ns
	}
	return out
}

func TestStagesPartitionTheItem(t *testing.T) {
	// One item, every boundary known: taken 100, encode 110-120, volunteer
	// decode 200-210, kernel 210-300, volunteer encode 300-310, master
	// decode 400-405, emitted 500.
	tr := traceOf([]uint64{7}, []int64{100}, []int64{500})
	tr.addEnc(codecEvent{key: 7, start: 110, end: 120})
	vt := tr.volunteer(0)
	vt.events = []volEvent{{inKey: 7, outKey: 70, decStart: 200, decEnd: 210, kernStart: 210, kernEnd: 300, encStart: 300, encEnd: 310}}
	tr.addDec(codecEvent{key: 70, start: 400, end: 405})

	a, rec := analyzed(tr, repResult{emitted: 1, wall: time.Microsecond}, []uint64{70}, fleet{n: 1})
	if !rec.chains[0].ok {
		t.Fatal("the item has no chain")
	}
	want := map[string]float64{
		"lender.dispatch_wait": 10, "proto.encode_in": 10, "transport.wire_out": 80, "worker.service": 110,
		"transport.wire_back": 90, "proto.decode_out": 5, "lender.reorder_wait": 95,
	}
	got := stageMeans(a)
	var sum float64
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-6 {
			t.Errorf("%s = %v ns, want %v", name, got[name], w)
		}
		sum += got[name]
	}
	if math.Abs(sum-400) > 1e-6 || math.Abs(a.meanUs*1e3-400) > 1e-6 {
		t.Errorf("stages sum to %v ns, item latency %v ns, both should be 400", sum, a.meanUs*1e3)
	}
	if a.metrics["trace.unaccounted_pct"] > 1e-9 || a.metrics["trace.coverage_pct"] != 100 {
		t.Errorf("unaccounted %v%%, coverage %v%%", a.metrics["trace.unaccounted_pct"], a.metrics["trace.coverage_pct"])
	}
	if got := a.metrics["apps.kernel_us_p50"]; got != 0.09 {
		t.Errorf("kernel p50 = %v us, want 0.09", got)
	}
	// decode 10 + kernel 90 + encode 10 cover the whole service span.
	if got := a.metrics["worker.service_self_us_p50"]; got != 0 {
		t.Errorf("service self time = %v us, want 0", got)
	}
}

func TestFeederStampAfterEncodeIsClamped(t *testing.T) {
	// The feeder was descheduled: its "taken" stamp (150) is later than
	// the master's encode of the item (110). The take is then the encode
	// start, and no stage is negative.
	tr := traceOf([]uint64{7}, []int64{150}, []int64{500})
	tr.addEnc(codecEvent{key: 7, start: 110, end: 120})
	vt := tr.volunteer(0)
	vt.events = []volEvent{{inKey: 7, outKey: 70, decStart: 200, decEnd: 210, kernStart: 210, kernEnd: 300, encStart: 300, encEnd: 310}}
	tr.addDec(codecEvent{key: 70, start: 400, end: 405})
	a, _ := analyzed(tr, repResult{emitted: 1, wall: time.Microsecond}, []uint64{70}, fleet{n: 1})
	if a.metrics["trace.negative_stages"] != 0 {
		t.Errorf("%v negative stages", a.metrics["trace.negative_stages"])
	}
	if got := stageMeans(a)["lender.dispatch_wait"]; got != 0 {
		t.Errorf("dispatch wait = %v ns, want 0", got)
	}
}

func TestRelentItemUsesTheAcceptedAttempt(t *testing.T) {
	// Item 0 goes to volunteer 0, which computes it and crashes at 400
	// with the result unsent; the master encodes it again at 450 for
	// volunteer 1, whose result is accepted. Item 1 is an ordinary item on
	// volunteer 1.
	tr := traceOf([]uint64{7, 8}, []int64{100, 105}, []int64{900, 910})
	tr.addEnc(codecEvent{key: 7, start: 110, end: 120})
	tr.addEnc(codecEvent{key: 8, start: 125, end: 130})
	tr.addEnc(codecEvent{key: 7, start: 450, end: 460})
	v0, v1 := tr.volunteer(0), tr.volunteer(1)
	v0.events = []volEvent{{inKey: 7, outKey: 70, decStart: 200, decEnd: 205, kernStart: 205, kernEnd: 300, encStart: 300, encEnd: 305}}
	v1.events = []volEvent{
		{inKey: 8, outKey: 80, decStart: 210, decEnd: 215, kernStart: 215, kernEnd: 310, encStart: 310, encEnd: 315},
		{inKey: 7, outKey: 70, decStart: 500, decEnd: 505, kernStart: 505, kernEnd: 600, encStart: 600, encEnd: 605},
	}
	tr.crashes = []crashEvent{{vol: 0, at: 400}}
	tr.addDec(codecEvent{key: 80, start: 350, end: 355})
	tr.addDec(codecEvent{key: 70, start: 700, end: 705})

	a, rec := analyzed(tr, repResult{emitted: 2, processed: 3, wall: time.Microsecond}, []uint64{70, 80}, fleet{n: 2})
	chains, attempts := rec.chains, rec.attempts
	if len(attempts[0]) != 2 {
		t.Fatalf("item 0 has %d attempts, want 2", len(attempts[0]))
	}
	c := chains[0]
	if !c.ok || c.att != attempts[0][1] || c.att.vol != 1 {
		t.Fatalf("item 0's accepted chain is not its second attempt on volunteer 1: %+v", c.att)
	}
	if attempts[0][0].vol != 0 || attempts[0][0].ve == nil {
		t.Errorf("item 0's first attempt should be the wasted pass on volunteer 0: %+v", attempts[0][0])
	}
	m := a.metrics
	if m["lender.relent_items"] != 1 || m["lender.reencoded_items"] != 1 {
		t.Errorf("relent %v, reencoded %v, want 1 and 1", m["lender.relent_items"], m["lender.reencoded_items"])
	}
	if m["lender.work_amplification"] != 1.5 {
		t.Errorf("work amplification = %v, want 3 processed / 2 emitted", m["lender.work_amplification"])
	}
	// Crash at 400, the re-lent item's kernel starts elsewhere at 505.
	if got := m["fleet.recover_ms_p50"]; math.Abs(got-105e-6) > 1e-12 {
		t.Errorf("recovery = %v ms, want 105 ns", got)
	}
	// The accepted attempt's stages still partition taken -> emitted:
	// dispatch wait runs to the second encode.
	if a.metrics["trace.unaccounted_pct"] > 1e-9 || a.metrics["trace.negative_stages"] != 0 {
		t.Errorf("unaccounted %v%%, negative stages %v", a.metrics["trace.unaccounted_pct"], a.metrics["trace.negative_stages"])
	}
}

func TestRepeatedInputsAreToldApartByConnection(t *testing.T) {
	// Items 1 and 2 carry the same input (key 9). Item 0 (key 5) and item
	// 3 (key 6) are unique and teach the analysis which goroutine serves
	// which volunteer: goroutine 11 encodes for volunteer 0, 12 for
	// volunteer 1; 21 and 22 decode their results. Item 1 is encoded first
	// but for the slower volunteer 0; volunteer 1 decodes its copy (item
	// 2's) earlier. First come, first served alone would swap the two.
	tr := traceOf([]uint64{5, 9, 9, 6}, []int64{0, 1, 2, 3}, []int64{1000, 1001, 1002, 1003})
	tr.byConn = true
	tr.addEnc(codecEvent{key: 5, start: 10, end: 11, gid: 11})
	tr.addEnc(codecEvent{key: 6, start: 12, end: 13, gid: 12})
	tr.addEnc(codecEvent{key: 9, start: 20, end: 21, gid: 11}) // item 1 -> volunteer 0
	tr.addEnc(codecEvent{key: 9, start: 22, end: 23, gid: 12}) // item 2 -> volunteer 1
	v0, v1 := tr.volunteer(0), tr.volunteer(1)
	ev := func(in, out uint64, at int64) volEvent {
		return volEvent{inKey: in, outKey: out, decStart: at, decEnd: at + 1, kernStart: at + 1, kernEnd: at + 8, encStart: at + 8, encEnd: at + 9}
	}
	v0.events = []volEvent{ev(5, 50, 100), ev(9, 90, 300)}
	v1.events = []volEvent{ev(6, 60, 110), ev(9, 90, 200)}
	tr.addDec(codecEvent{key: 50, start: 150, end: 151, gid: 21})
	tr.addDec(codecEvent{key: 60, start: 160, end: 161, gid: 22})
	tr.addDec(codecEvent{key: 90, start: 250, end: 251, gid: 22}) // volunteer 1's result: item 2
	tr.addDec(codecEvent{key: 90, start: 350, end: 351, gid: 21}) // volunteer 0's result: item 1

	a, rec := analyzed(tr, repResult{emitted: 4, processed: 4, wall: time.Microsecond}, []uint64{50, 90, 90, 60}, fleet{n: 2})
	chains := rec.chains
	for i, wantVol := range []int{0, 0, 1, 1} {
		if !chains[i].ok || chains[i].att.vol != wantVol {
			t.Errorf("item %d ran on volunteer %d, want %d", i, chains[i].att.vol, wantVol)
		}
	}
	if chains[1].dec.start != 350 || chains[2].dec.start != 250 {
		t.Errorf("decodes attributed to the wrong items: item 1 <- %d, item 2 <- %d", chains[1].dec.start, chains[2].dec.start)
	}
	if a.metrics["trace.negative_stages"] != 0 || a.metrics["lender.relent_items"] != 0 {
		t.Errorf("negative stages %v, relent items %v", a.metrics["trace.negative_stages"], a.metrics["lender.relent_items"])
	}
	// Each volunteer holds at most two items between encode and decode.
	if a.metrics["sched.window_max"] != 2 {
		t.Errorf("window max = %v, want 2", a.metrics["sched.window_max"])
	}
}
