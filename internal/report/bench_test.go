package report

import (
	"context"
	"sync"
	"testing"

	"fairrank/internal/core"
	"fairrank/internal/rank"
	"fairrank/internal/synth"
)

// Audit-bundle benchmark at the same production scale as the sweep and
// counterfactual benchmarks: the 80k synthetic school cohort with a
// trained-shaped bonus vector. One BenchmarkBuildBundle80k op is a whole
// cold audit bundle — cutoff, policy lines with leave-one-out attribution,
// nDCG, beneficiary lists, and the counterfactual margin window — so its
// ns/op tracks the total ranking work a cold GET /v1/report pays. The name
// is guarded against regression by cmd/benchguard in CI (reference:
// BENCH_report.json).

var benchBundleState struct {
	once sync.Once
	ev   *core.Evaluator
	err  error
}

func benchBundleEvaluator(b testing.TB) *core.Evaluator {
	b.Helper()
	s := &benchBundleState
	s.once.Do(func() {
		cfg := synth.DefaultSchoolConfig() // 80k students, 4 fairness dims
		d, err := synth.GenerateSchool(cfg)
		if err != nil {
			s.err = err
			return
		}
		s.ev = core.NewEvaluator(d, rank.WeightedSum{Weights: synth.SchoolScoreWeights()}, rank.Beneficial)
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	return s.ev
}

func BenchmarkBuildBundle80k(b *testing.B) {
	ev := benchBundleEvaluator(b)
	cfg := BundleConfig{
		Dataset: "school",
		Bonus:   []float64{2, 11, 10.5, 12.5}, // the shape a trained vector takes on this cohort
		K:       0.05,
	}
	evict := []float64{1, 1, 1, 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A full order of another vector takes the ranked-order memo's
		// whole budget of n positions and so evicts every other slot:
		// every op ranks its bonus cold, which the hit count confirms.
		b.StopTimer()
		if _, err := ev.DisparityCtx(context.Background(), evict, 1); err != nil {
			b.Fatal(err)
		}
		h0 := ev.MemoHitCount()
		b.StartTimer()
		if _, err := BuildBundleCtx(context.Background(), ev, cfg); err != nil {
			b.Fatal(err)
		}
		if h := ev.MemoHitCount() - h0; h != 0 {
			b.Fatalf("op %d hit the ranked-order memo %d times; the benchmark times a cold bundle", i, h)
		}
	}
}
