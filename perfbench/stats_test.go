package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.91, 10}, {0.1, 1}, {0.05, 1}, {1, 10},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	// A failed op is +Inf: with 2 of 10 failed, p90 is a miss.
	failed := []float64{1, 2, 3, 4, 5, 6, 7, 8, math.Inf(1), math.Inf(1)}
	if got := percentile(failed, 0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 with two failures = %v, want +Inf", got)
	}
	if got := percentile(failed, 0.5); got != 5 {
		t.Errorf("p50 with two failures = %v, want 5", got)
	}
}

func TestWindowedPercentile(t *testing.T) {
	// Six chunks in three windows of two chunks: window p90s are 4, 40
	// (a stalled window) and 6; the median of the three is 6.
	lat := []float64{1, 2, 3, 4, 10, 20, 30, 40, 5, 6}
	ends := []int{2, 4, 6, 8, 9, 10}
	if got := windowedPercentile(lat, ends, 3, 0.9); got != 6 {
		t.Errorf("windowed p90 = %v, want 6", got)
	}
	if got := windowedPercentile(lat, ends, 3, 0.5); got != 5 {
		t.Errorf("windowed p50 = %v, want 5", got)
	}
	if lat[4] != 10 {
		t.Error("windowedPercentile reordered its input")
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
}

func TestHostScale(t *testing.T) {
	// Probe medians 20 ms against a 16 ms nominal: the host ran 1.25x
	// slow, so a raw 10 ms reads 8 ms and a raw 100 ops/s reads 125.
	probes := []time.Duration{19 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	f := hostScale(16, probes)
	if f != 0.8 {
		t.Fatalf("hostScale = %v, want 0.8", f)
	}
	if got := 10 * f; got != 8 {
		t.Errorf("normalized 10 ms = %v, want 8", got)
	}
	if got := 100 / f; got != 125 {
		t.Errorf("normalized 100 ops/s = %v, want 125", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// op(10) -> http(9) -> handler(6) -> {sweep(4) -> prefix(1), explain(1)}
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "http.request", Start: 0, End: 9},
		{ID: 3, Parent: 2, Name: "service.handler", Start: 10, End: 16},
		{ID: 4, Parent: 3, Name: "core.sweep", Start: 20, End: 24},
		{ID: 5, Parent: 4, Name: "rank.prefix", Start: 30, End: 31},
		{ID: 6, Parent: 3, Name: "core.explain", Start: 40, End: 41},
	}
	want := map[int]time.Duration{1: 1, 2: 3, 3: 1, 4: 3, 5: 1, 6: 1}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self(%s) = %v, want %v", spans[id-1].Name, got[id], w)
		}
	}
}
