package main

import (
	"math"
	"slices"
	"sort"
)

// This file holds the benchmark's own arithmetic, kept free of any
// dependency on the system under test so stats_test.go can pin it on
// fixed inputs.

// quantile is a percentile together with the number of samples it was
// taken over: a p99 over 200 samples and one over 200 000 are different
// claims, so the count travels with the value.
type quantile struct {
	V float64
	N int
}

// median returns the middle value of xs (mean of the middle two for an
// even count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample with at least p% of the samples at or below it. It
// never interpolates, so the value is always one that was measured. xs is
// sorted in place.
func percentile(xs []int64, p float64) quantile {
	n := len(xs)
	if n == 0 {
		return quantile{}
	}
	slices.Sort(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return quantile{V: float64(xs[rank-1]), N: n}
}

// mean returns the arithmetic mean of xs, 0 for an empty slice.
func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

// interval is a half-open time range [Start, End) in nanoseconds.
type interval struct{ Start, End int64 }

// selfTime is a span's duration minus the part of it its children cover.
// Children may overlap each other and may stick out of the parent; only
// the union of their parts inside the parent is subtracted, so two
// overlapping children are not counted twice.
func selfTime(parent interval, children []interval) int64 {
	total := parent.End - parent.Start
	if total <= 0 {
		return 0
	}
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.Start < parent.Start {
			c.Start = parent.Start
		}
		if c.End > parent.End {
			c.End = parent.End
		}
		if c.End > c.Start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].Start < clipped[j].Start })
	var covered, reach int64
	reach = parent.Start
	for _, c := range clipped {
		if c.End <= reach {
			continue
		}
		if c.Start > reach {
			reach = c.Start
		}
		covered += c.End - reach
		reach = c.End
	}
	return total - covered
}

// windowAtStarts reconstructs a credit window from the trace: for every
// interval (an item's stay between master encode and master decode on
// one volunteer) it returns how many intervals, itself included, were
// open at its start. By Little's law the mean of the result approaches
// rate x mean stay; littleWindow gives that prediction.
func windowAtStarts(ivs []interval) []int {
	starts := make([]int64, len(ivs))
	ends := make([]int64, len(ivs))
	for i, iv := range ivs {
		starts[i], ends[i] = iv.Start, iv.End
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	out := make([]int, len(ivs))
	closed := 0
	for i, s := range starts {
		for closed < len(ends) && ends[closed] <= s {
			closed++
		}
		out[i] = i + 1 - closed
	}
	return out
}

// littleWindow is Little's law: the mean number of items in flight at a
// given completion rate (items/s) and mean stay (seconds).
func littleWindow(ratePerSec, staySec float64) float64 { return ratePerSec * staySec }

// relDiff is (b-a)/a, the change from a to b as a share of a; 0 when a
// is 0.
func relDiff(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a
}
