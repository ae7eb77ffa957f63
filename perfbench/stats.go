package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted:
// the smallest sample with at least a q share of samples at or below it.
// Failed ops enter as +Inf, so a failure counts as missing every
// percentile it lands on.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// latencyWindows is how many consecutive windows of the timed phase a
// latency percentile is taken over.
const latencyWindows = 5

// windowedPercentile is the median, over windows consecutive groups of
// chunks, of each group's q-percentile. lat holds the ops in completion
// order and ends[c] the number of ops done by the end of chunk c. A host
// stall inflates the tail of one window, not the reported figure.
func windowedPercentile(lat []float64, ends []int, windows int, q float64) float64 {
	per := make([]float64, windows)
	for w := range per {
		lo, hi := 0, ends[(w+1)*len(ends)/windows-1]
		if c := w * len(ends) / windows; c > 0 {
			lo = ends[c-1]
		}
		win := slices.Clone(lat[lo:hi])
		slices.Sort(win)
		per[w] = percentile(win, q)
	}
	return median(per)
}

// median returns the middle of xs (mean of the two middles for an even
// count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// hostScale is the factor that maps a time measured on this run's host
// onto the nominal host: nominal probe time over the run's median probe
// time. A time is multiplied by it, a rate divided.
func hostScale(nominalMs float64, probes []time.Duration) float64 {
	ms := make([]float64, len(probes))
	for i, p := range probes {
		ms[i] = float64(p) / float64(time.Millisecond)
	}
	return nominalMs / median(ms)
}

// span is one timed layer boundary of the traced run. Parent is the
// span that caused it (0 for an op's root); all spans of one op share Op.
// Parents are logical: the benchmark times each layer's call separately,
// so a child need not lie inside its parent's interval, and a parent's
// self time is its duration minus its children's durations.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Count is a quantity measured at the boundary: bytes on transport
	// and report spans, descent steps on train spans.
	Count int64 `json:"count,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// selfTimes returns every span's duration minus the durations of its
// direct children, keyed by span id.
func selfTimes(spans []span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	for i := range spans {
		self[spans[i].ID] += spans[i].dur()
	}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			self[p] -= spans[i].dur()
		}
	}
	return self
}
