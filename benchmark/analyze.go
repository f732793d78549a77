package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
)

// This file turns a traced rep's raw events into per-item span chains
// and the per-layer metrics drawn from them.
//
// Events carry content keys, not item numbers: the shims only see typed
// values. An item is recovered from its key. Where one item has several
// attempts (a re-lent item of fleet-churn) the latest attempt that can
// have caused the next event is the one that did. Where several items
// share a key (the repeated tiles of tiles-16k) the connection tells them
// apart, and first come, first served on it keeps every chain causally
// ordered.

// attempt is one master-side encode of an item and what followed it.
type attempt struct {
	item int
	enc  codecEvent
	vol  int       // volunteer that decoded it, -1 if none did
	ve   *volEvent // nil if no volunteer ever decoded it
}

// chain is the accepted path of one item: the stages from "taken" to
// "emitted" partition the interval.
type chain struct {
	att *attempt
	dec codecEvent // master decode of the accepted result
	ok  bool
}

// volPass is one item's pass through one volunteer.
type volPass struct {
	vol int
	ev  *volEvent
}

// reconstruction is the trace joined by item.
type reconstruction struct {
	attempts [][]*attempt // per item, in encode order
	chains   []chain      // per item
	passes   []volPass    // every volunteer pass, accepted or wasted, in decode order
}

// stageNames lists the stages that partition taken -> emitted, in order.
var stageNames = []string{
	"lender.dispatch_wait", // taken -> master encode starts: failed queue + credit wait
	"proto.encode_in",      // master encode
	"transport.wire_out",   // master encode end -> volunteer decode start
	"worker.service",       // volunteer decode start -> volunteer encode end
	"transport.wire_back",  // volunteer encode end -> master decode start
	"proto.decode_out",     // master decode
	"lender.reorder_wait",  // master decode end -> emitted: ordered merge, journal
}

type stageSummary struct {
	Name   string  `json:"name"`
	P50us  float64 `json:"p50_us"`
	P99us  float64 `json:"p99_us"`
	MeanUs float64 `json:"mean_us"`
	N      int     `json:"n"`
}

type analysis struct {
	metrics map[string]float64
	stages  []stageSummary
	sumUs   float64 // sum of the stage means
	meanUs  float64 // mean item latency of the traced rep
}

func us(ns float64) float64 { return ns / 1e3 }
func ms(ns float64) float64 { return ns / 1e6 }

func sortedEvents(events []codecEvent, n int64) []codecEvent {
	out := append([]codecEvent(nil), events[:min(int(n), len(events))]...)
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// indexByKey maps a content key to the items that have it, ascending.
func indexByKey(keys []uint64) map[uint64][]int {
	idx := make(map[uint64][]int, len(keys))
	for i, k := range keys {
		idx[k] = append(idx[k], i)
	}
	return idx
}

// connections learns which master goroutine serves which volunteer from
// the events whose key names one item only, and then vetoes candidates
// of a shared key that sit on another connection.
type connections map[int64]int

func (c connections) learn(gid int64, vol int) {
	if gid != 0 {
		c[gid] = vol
	}
}

func (c connections) excludes(gid int64, vol int) bool {
	v, known := c[gid]
	return gid != 0 && known && v != vol
}

// reconstruct joins the trace by item. outKeys are the content keys of
// the expected outputs; emitted is how many outputs the rep produced.
func reconstruct(t *tracer, emitted int, outKeys []uint64) *reconstruction {
	n := t.items
	rec := &reconstruction{attempts: make([][]*attempt, n), chains: make([]chain, n)}
	byIn := indexByKey(t.inKeys[:n])
	byOut := indexByKey(outKeys[:n])

	// Master encodes -> attempts of items. Items sharing a key are encoded
	// in input order, near enough: which of two identical inputs an encode
	// is said to carry changes no timing.
	nextIn := map[uint64]int{}
	for _, e := range sortedEvents(t.enc, t.encN.Load()) {
		items := byIn[e.key]
		if len(items) == 0 {
			continue
		}
		item := items[0]
		if len(items) > 1 {
			k := min(nextIn[e.key], len(items)-1)
			item = items[k]
			nextIn[e.key] = k + 1
		}
		rec.attempts[item] = append(rec.attempts[item], &attempt{item: item, enc: e, vol: -1})
	}

	// Volunteer passes -> attempts, in decode order: the latest attempt
	// encoded before the decode and not yet claimed is the one the
	// volunteer received.
	for _, vt := range t.vols {
		for i := range vt.events {
			rec.passes = append(rec.passes, volPass{vt.id, &vt.events[i]})
		}
	}
	sort.Slice(rec.passes, func(i, j int) bool { return rec.passes[i].ev.decStart < rec.passes[j].ev.decStart })
	encConn := connections{}
	for _, pass := range rec.passes {
		items := byIn[pass.ev.inKey]
		for _, item := range items {
			var hit *attempt
			for _, a := range rec.attempts[item] {
				if a.ve != nil || a.enc.end > pass.ev.decStart {
					continue
				}
				if len(items) > 1 && encConn.excludes(a.enc.gid, pass.vol) {
					continue
				}
				hit = a
			}
			if hit != nil {
				hit.ve, hit.vol = pass.ev, pass.vol
				if len(items) == 1 {
					encConn.learn(hit.enc.gid, pass.vol)
				}
				break
			}
		}
	}

	// Master decodes -> the attempt whose result was accepted: the latest
	// pass that had produced this output before the decode started.
	decConn := connections{}
	for _, d := range sortedEvents(t.dec, t.decN.Load()) {
		items := byOut[d.key]
		for _, item := range items {
			if rec.chains[item].ok {
				continue
			}
			var hit *attempt
			for _, a := range rec.attempts[item] {
				if a.ve == nil || a.ve.outKey != d.key || a.ve.encEnd > d.start {
					continue
				}
				if len(items) > 1 && decConn.excludes(d.gid, a.vol) {
					continue
				}
				hit = a
			}
			if hit != nil {
				rec.chains[item] = chain{att: hit, dec: d, ok: true}
				if len(items) == 1 {
					decConn.learn(d.gid, hit.vol)
				}
				break
			}
		}
	}

	// The feeder stamps "taken" when its send returns, which on a busy
	// host can be after the master already encoded the item. Where that
	// happened the first encode's start is the take.
	for i := 0; i < min(n, emitted); i++ {
		if atts := rec.attempts[i]; len(atts) > 0 && atts[0].enc.start < t.takenAt[i] {
			t.takenAt[i] = atts[0].enc.start
		}
	}
	return rec
}

// analyze computes the traced-run metrics from the joined trace.
func analyze(t *tracer, res repResult, rec *reconstruction, f fleet) *analysis {
	a := &analysis{metrics: map[string]float64{}}
	a.stageMetrics(t, res, rec)
	a.volunteerMetrics(res, rec, f)
	a.windowMetrics(rec)
	a.recoveryMetrics(t, rec)

	// Counters taken at the same boundaries.
	m := a.metrics
	items := float64(max(res.emitted, 1))
	m["transport.frames_per_item"] = float64(t.masterConn.writes.Load()) / items
	m["transport.bytes_out_per_item"] = float64(t.masterConn.bytesOut.Load()) / items
	m["transport.bytes_back_per_item"] = float64(t.masterConn.bytesIn.Load()) / items
	m["fleet.admit_ms"] = ms(float64(res.admit))
	m["fleet.goroutines_per_conn"] = res.goroutines
	m["journal.bytes_per_item"] = float64(res.journalBytes) / items
	m["trace.dropped_events"] = float64(t.dropped.Load())
	return a
}

// stageMetrics splits every chained item's taken -> emitted interval into
// the seven stages.
func (a *analysis) stageMetrics(t *tracer, res repResult, rec *reconstruction) {
	stages := make([][]int64, len(stageNames))
	var sourceWait, kernel, serviceSelf, latency []int64
	chained, negative := 0, 0
	for i := 0; i < min(t.items, res.emitted); i++ {
		latency = append(latency, t.emittedAt[i]-t.takenAt[i])
		sourceWait = append(sourceWait, t.takenAt[i]-t.offeredAt[i])
		c := rec.chains[i]
		if !c.ok {
			continue
		}
		chained++
		ve := c.att.ve
		bounds := []int64{t.takenAt[i], c.att.enc.start, c.att.enc.end, ve.decStart, ve.encEnd, c.dec.start, c.dec.end, t.emittedAt[i]}
		for s := range stageNames {
			d := bounds[s+1] - bounds[s]
			if d < 0 {
				negative++
			}
			stages[s] = append(stages[s], d)
		}
		kernel = append(kernel, ve.kernEnd-ve.kernStart)
		serviceSelf = append(serviceSelf, selfTime(
			interval{ve.decStart, ve.encEnd},
			[]interval{{ve.decStart, ve.decEnd}, {ve.kernStart, ve.kernEnd}, {ve.encStart, ve.encEnd}}))
	}

	m := a.metrics
	a.meanUs = us(mean(latency))
	for s, name := range stageNames {
		sum := stageSummary{Name: name, MeanUs: us(mean(stages[s])), N: len(stages[s])}
		sum.P50us = us(percentile(stages[s], 50).V)
		sum.P99us = us(percentile(stages[s], 99).V)
		a.stages = append(a.stages, sum)
		a.sumUs += sum.MeanUs
		m[name+"_us_p50"] = sum.P50us
	}
	m["lender.reorder_wait_us_p99"] = a.stages[len(a.stages)-1].P99us
	m["pando.source_wait_us_p50"] = us(percentile(sourceWait, 50).V)
	m["apps.kernel_us_p50"] = us(percentile(kernel, 50).V)
	m["worker.service_self_us_p50"] = us(percentile(serviceSelf, 50).V)
	if a.meanUs > 0 {
		m["trace.unaccounted_pct"] = 100 * math.Abs(a.sumUs-a.meanUs) / a.meanUs
	}
	if res.emitted > 0 {
		m["trace.coverage_pct"] = 100 * float64(chained) / float64(res.emitted)
	}
	m["trace.negative_stages"] = float64(negative)
}

// volunteerMetrics: how busy the volunteers were, and how much of their
// work was done twice.
func (a *analysis) volunteerMetrics(res repResult, rec *reconstruction, f fleet) {
	m := a.metrics
	var busy int64
	for _, pass := range rec.passes {
		busy += pass.ev.kernEnd - pass.ev.kernStart + int64(f.delay)
	}
	if res.wall > 0 {
		m["worker.busy_share"] = float64(busy) / (float64(f.n) * float64(res.wall))
	}
	relent, reencoded := 0, 0
	for _, atts := range rec.attempts {
		ran := map[int]bool{}
		for _, att := range atts {
			if att.ve != nil {
				ran[att.vol] = true
			}
		}
		if len(ran) > 1 {
			relent++
		}
		if len(atts) > 1 {
			reencoded++
		}
	}
	m["lender.relent_items"] = float64(relent)
	m["lender.reencoded_items"] = float64(reencoded)
	if res.emitted > 0 {
		m["lender.work_amplification"] = float64(res.processed) / float64(res.emitted)
	}
}

// windowMetrics reconstructs the credit windows: items between master
// encode and master decode on one volunteer, sampled at every encode.
func (a *analysis) windowMetrics(rec *reconstruction) {
	perVol := map[int][]interval{}
	for _, c := range rec.chains {
		if c.ok {
			perVol[c.att.vol] = append(perVol[c.att.vol], interval{c.att.enc.start, c.dec.end})
		}
	}
	var windows []int64
	var little, weight float64
	for _, ivs := range perVol {
		var stay float64
		first, last := ivs[0].Start, ivs[0].End
		for _, iv := range ivs {
			stay += float64(iv.End - iv.Start)
			first, last = min(first, iv.Start), max(last, iv.End)
		}
		for _, w := range windowAtStarts(ivs) {
			windows = append(windows, int64(w))
		}
		// Little's law on this volunteer while it served: completion rate
		// x mean stay.
		if active := float64(last - first); active > 0 {
			n := float64(len(ivs))
			little += n * littleWindow(n/(active/1e9), stay/n/1e9)
			weight += n
		}
	}
	m := a.metrics
	m["sched.window_p50"] = percentile(windows, 50).V
	m["sched.window_max"] = percentile(windows, 100).V
	m["sched.window_mean"] = mean(windows)
	if weight > 0 {
		m["sched.window_little"] = little / weight
	}
}

// recoveryMetrics: a volunteer's crash -> the first kernel run, elsewhere,
// of an item that was re-encoded because of it.
func (a *analysis) recoveryMetrics(t *tracer, rec *reconstruction) {
	crashes := append([]crashEvent(nil), t.crashes...)
	sort.Slice(crashes, func(i, j int) bool { return crashes[i].at < crashes[j].at })
	firstKernel := make([]int64, len(crashes))
	for _, atts := range rec.attempts {
		for k := 1; k < len(atts); k++ {
			re, prev := atts[k], atts[k-1]
			if re.ve == nil {
				continue
			}
			// The most recent crash before the re-encode caused it, unless
			// the previous attempt is known to have sat on another volunteer.
			c := sort.Search(len(crashes), func(i int) bool { return crashes[i].at > re.enc.start }) - 1
			if c < 0 || prev.enc.end > crashes[c].at || (prev.vol >= 0 && prev.vol != crashes[c].vol) {
				continue
			}
			if firstKernel[c] == 0 || re.ve.kernStart < firstKernel[c] {
				firstKernel[c] = re.ve.kernStart
			}
		}
	}
	var recovery []int64
	for c, at := range firstKernel {
		if at > 0 {
			recovery = append(recovery, at-crashes[c].at)
		}
	}
	a.metrics["fleet.recover_ms_p50"] = ms(percentile(recovery, 50).V)
	a.metrics["fleet.crashes"] = float64(len(crashes))
}

// --- the trace file ---

type span struct {
	Name      string `json:"name"`
	Item      int    `json:"item"`
	Volunteer int    `json:"volunteer"` // -1: the master
	Start     int64  `json:"start"`     // ns since the process's trace epoch
	End       int64  `json:"end"`
	Parent    int    `json:"parent"` // index into spans, -1 for a root
}

type connSummary struct {
	Writes      int64 `json:"writes"`
	Reads       int64 `json:"reads"`
	BytesOut    int64 `json:"bytes_out"`
	BytesIn     int64 `json:"bytes_in"`
	WriteNs     int64 `json:"write_ns"`
	ReadBlocked int64 `json:"read_blocked_ns"`
}

func (c *connStats) summary() connSummary {
	return connSummary{c.writes.Load(), c.reads.Load(), c.bytesOut.Load(), c.bytesIn.Load(), c.writeNs.Load(), c.readNs.Load()}
}

type traceFile struct {
	Workload       string             `json:"workload"`
	Seed           uint64             `json:"seed"`
	Items          int                `json:"items"`
	SpanStride     int                `json:"span_stride"` // spans are written for items divisible by this
	Stages         []stageSummary     `json:"stages"`
	StageMeanSumUs float64            `json:"stage_mean_sum_us"`
	MeanLatencyUs  float64            `json:"mean_item_latency_us"`
	Metrics        map[string]float64 `json:"metrics"`
	MasterConns    connSummary        `json:"master_conns"`
	VolunteerConns connSummary        `json:"volunteer_conns"`
	Spans          []span             `json:"spans"`
}

// writeTrace stores the trace: the summaries, and the span tree of every
// stride-th item (all items of a big workload would be hundreds of
// megabytes of JSON).
func writeTrace(path string, tf *traceFile, t *tracer, rec *reconstruction) error {
	const maxItems = 2000
	tf.SpanStride = (t.items + maxItems - 1) / maxItems
	for i := 0; i < t.items; i += tf.SpanStride {
		tf.Spans = appendItemSpans(tf.Spans, i, t, rec.chains[i], rec.attempts[i])
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func appendItemSpans(spans []span, i int, t *tracer, c chain, atts []*attempt) []span {
	spans = append(spans, span{"pando.source_wait", i, -1, t.offeredAt[i], t.takenAt[i], -1})
	root := len(spans)
	spans = append(spans, span{"pando.item", i, -1, t.takenAt[i], t.emittedAt[i], -1})
	volSpans := func(name string, a *attempt) {
		ve := a.ve
		parent := len(spans)
		spans = append(spans,
			span{name, i, a.vol, ve.decStart, ve.encEnd, root},
			span{"proto.decode_in", i, a.vol, ve.decStart, ve.decEnd, parent},
			span{"apps.kernel", i, a.vol, ve.kernStart, ve.kernEnd, parent},
			span{"proto.encode_out", i, a.vol, ve.encStart, ve.encEnd, parent})
	}
	for _, a := range atts {
		if c.ok && a == c.att {
			continue
		}
		// An attempt whose result was not the accepted one: re-lent work.
		spans = append(spans, span{"proto.encode_in.relent", i, -1, a.enc.start, a.enc.end, root})
		if a.ve != nil {
			volSpans("worker.service.wasted", a)
		}
	}
	if !c.ok {
		return spans
	}
	ve := c.att.ve
	spans = append(spans,
		span{stageNames[0], i, -1, t.takenAt[i], c.att.enc.start, root},
		span{stageNames[1], i, -1, c.att.enc.start, c.att.enc.end, root},
		span{stageNames[2], i, c.att.vol, c.att.enc.end, ve.decStart, root})
	volSpans(stageNames[3], c.att)
	spans = append(spans,
		span{stageNames[4], i, c.att.vol, ve.encEnd, c.dec.start, root},
		span{stageNames[5], i, -1, c.dec.start, c.dec.end, root},
		span{stageNames[6], i, -1, c.dec.end, t.emittedAt[i], root})
	return spans
}
