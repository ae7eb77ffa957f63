package core

import (
	"sync"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/rank"
	"fairrank/internal/synth"
)

// Registration-cost benchmarks for the combo-run merge ranking: the
// partition + per-run pre-sort happens once, inside NewEvaluator, and
// buys every later cold prefix request its O(p log g) merge. These
// names are guarded against regression by cmd/benchguard in CI
// (reference: BENCH_rank.json), alongside the now-merge-served cold
// sweep / bundle / counterfactual workloads.

var benchRegState struct {
	once       sync.Once
	discrete   *dataset.Dataset // quantized ENI: combo runs build (g ≈ 700)
	continuous *dataset.Dataset // continuous ENI: partition declines
	err        error
}

func benchRegDatasets(b *testing.B) (*dataset.Dataset, *dataset.Dataset) {
	b.Helper()
	s := &benchRegState
	s.once.Do(func() {
		cfg := synth.DefaultSchoolConfig() // 80k students, quantized ENI
		if s.discrete, s.err = synth.GenerateSchool(cfg); s.err != nil {
			return
		}
		cfg.ENILevels = 0 // continuous ENI: ~73k distinct fairness rows
		s.continuous, s.err = synth.GenerateSchool(cfg)
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	return s.discrete, s.continuous
}

// unindexed returns a view of d that shares its columns but not its
// combo-row index, so each registration benchmark iteration pays the
// partition the way a newly loaded dataset does.
func unindexed(d *dataset.Dataset) *dataset.Dataset {
	cols := make([]int, d.NumFair())
	for j := range cols {
		cols[j] = j
	}
	return d.WithFairColumns(cols)
}

func benchScorer() rank.Scorer {
	return rank.WeightedSum{Weights: synth.SchoolScoreWeights()}
}

// BenchmarkEvaluatorRegistration80k is the full registration cost on the
// merge-capable cohort: base scoring, the cached uncompensated ranking,
// and the combo-run partition + per-run pre-sort.
func BenchmarkEvaluatorRegistration80k(b *testing.B) {
	d, _ := benchRegDatasets(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := NewEvaluator(unindexed(d), benchScorer(), rank.Beneficial)
		if _, ok := ev.RunStats(); !ok {
			b.Fatal("registration built no combo runs")
		}
	}
}

// BenchmarkEvaluatorRegistration80kNoRuns is the before-side reference:
// the same registration on a continuous-attribute cohort, where the
// partition scans, declines, and leaves only the pre-merge work.
func BenchmarkEvaluatorRegistration80kNoRuns(b *testing.B) {
	_, d := benchRegDatasets(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := NewEvaluator(unindexed(d), benchScorer(), rank.Beneficial)
		if _, ok := ev.RunStats(); ok {
			b.Fatal("continuous cohort unexpectedly built combo runs")
		}
	}
}

// BenchmarkComboRunsBuild80k isolates the merge structure's own
// construction: fairness-row partition, counting sort into runs, and the
// per-run (base desc, id asc) pre-sort.
func BenchmarkComboRunsBuild80k(b *testing.B) {
	d, _ := benchRegDatasets(b)
	base := benchScorer().BaseScores(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rank.NewComboRuns(unindexed(d), base, 0) == nil {
			b.Fatal("combo-run construction declined")
		}
	}
}
