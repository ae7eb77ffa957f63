package core

import (
	"context"
	"sync"
	"testing"

	"fairrank/internal/rank"
	"fairrank/internal/synth"
)

// Sweep-engine benchmarks at the paper's production scale: a 16-point
// k-grid over one trained-shaped bonus vector on the 80k synthetic school
// cohort. Each op is one whole sweep — one full-population ranking plus 16
// prefix evaluations — so ns/op here is directly comparable to the
// serve-level BenchmarkServeEvaluateSweep minus HTTP. Each op empties the
// ranked-order memo first, so every op ranks its bonus cold. These names are
// guarded against regression by cmd/benchguard in CI (reference:
// BENCH_sweep.json).

var benchSweepState struct {
	once sync.Once
	ev   *Evaluator
	pts  []SweepPoint
	err  error
}

func benchSweep(b *testing.B) (*Evaluator, []SweepPoint) {
	b.Helper()
	s := &benchSweepState
	s.once.Do(func() {
		cfg := synth.DefaultSchoolConfig() // 80k students, 4 fairness dims
		d, err := synth.GenerateSchool(cfg)
		if err != nil {
			s.err = err
			return
		}
		s.ev = NewEvaluator(d, rank.WeightedSum{Weights: synth.SchoolScoreWeights()}, rank.Beneficial)
		bonus := []float64{2, 11, 10.5, 12.5} // the shape a trained vector takes on this cohort
		s.pts = make([]SweepPoint, 16)
		for i := range s.pts {
			s.pts[i] = SweepPoint{Bonus: bonus, K: 0.01 + 0.02*float64(i)}
		}
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	return s.ev, s.pts
}

func BenchmarkDisparitySweep16(b *testing.B) {
	ev, pts := benchSweep(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.forgetOrders()
		if _, err := ev.DisparitySweepCtx(context.Background(), pts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNDCGSweep16(b *testing.B) {
	ev, pts := benchSweep(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.forgetOrders()
		if _, err := ev.NDCGSweepCtx(context.Background(), pts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDisparateImpactSweep16(b *testing.B) {
	ev, pts := benchSweep(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.forgetOrders()
		if _, err := ev.DisparateImpactSweepCtx(context.Background(), pts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDisparitySweepFullK is a 64-point disparity sweep to k=1 on the
// 80k school cohort, the shape of the whatif workload's school sweep: its
// top cut needs the whole ranking, so every op pays one full-population
// sort. Guarded by cmd/benchguard in CI (reference: BENCH_sweep.json).
func BenchmarkDisparitySweepFullK(b *testing.B) {
	ev, pts := benchSweep(b)
	full := make([]SweepPoint, 64)
	for i := range full {
		full[i] = SweepPoint{Bonus: pts[0].Bonus, K: float64(i+1) / 64}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.forgetOrders()
		if _, err := ev.DisparitySweepCtx(context.Background(), full); err != nil {
			b.Fatal(err)
		}
	}
}
