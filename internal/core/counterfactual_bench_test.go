package core

import (
	"context"
	"testing"
)

// Counterfactual-engine benchmarks at the same production scale as the
// sweep benchmarks: the 80k synthetic school cohort with a trained-shaped
// bonus vector. One BenchmarkCounterfactualBatch16 op is a full audit
// answer — one population ranking plus 16 bit-level binary searches — and
// one BenchmarkAttributeDisparity op is the dims+2-point leave-one-out
// sweep. Each op empties the ranked-order memo first, so every op ranks
// cold. Both names are guarded against regression by cmd/benchguard in CI
// (reference: BENCH_explain.json).

func BenchmarkCounterfactualBatch16(b *testing.B) {
	ev, pts := benchSweep(b)
	bonus := pts[0].Bonus
	n := ev.Dataset().N()
	objs := make([]int, 16)
	for i := range objs {
		// Spread requests across the population, boundary included.
		objs[i] = (i * n) / 17
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.forgetOrders()
		if _, err := ev.CounterfactualBatchCtx(context.Background(), bonus, 0.05, objs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAttributeDisparity(b *testing.B) {
	ev, pts := benchSweep(b)
	bonus := pts[0].Bonus
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.forgetOrders()
		if _, err := ev.AttributeDisparity(bonus, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}
