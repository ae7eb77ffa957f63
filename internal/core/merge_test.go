package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/metrics"
	"fairrank/internal/rank"
	"fairrank/internal/synth"
)

// mergeEvaluator builds an evaluator over a cohort whose fairness rows
// are discrete (quantized ENI), so the combo-run partition succeeds and
// the merge path is live.
func mergeEvaluator(t testing.TB, n int) *Evaluator {
	t.Helper()
	cfg := synth.DefaultSchoolConfig()
	cfg.N = n
	cfg.Seed = 41
	cfg.ENILevels = 11 // tenths: few hundred combos on a small cohort
	d, err := synth.GenerateSchool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(d, rank.WeightedSum{Weights: synth.SchoolScoreWeights()}, rank.Beneficial)
	if _, ok := ev.RunStats(); !ok {
		t.Fatal("quantized school cohort built no combo runs")
	}
	return ev
}

// TestMergeRouting pins the crossover policy through the counter hooks:
// eligible prefix requests go to the combo-run merge (MergeCount moves,
// RankingCount does not); heterogeneous cohorts and large-k requests
// keep the full-scan route.
func TestMergeRouting(t *testing.T) {
	bonus := []float64{2, 11, 10.5, 12.5}

	t.Run("eligible small-k goes to merge", func(t *testing.T) {
		ev := mergeEvaluator(t, 4000)
		r0, m0 := ev.RankingCount(), ev.MergeCount()
		if _, err := ev.SelectCtx(t.Context(), bonus, 0.05); err != nil {
			t.Fatal(err)
		}
		if got := ev.RankingCount() - r0; got != 0 {
			t.Errorf("small-k select performed %d full rankings, want 0", got)
		}
		if got := ev.MergeCount() - m0; got != 1 {
			t.Errorf("small-k select performed %d merges, want 1", got)
		}
	})

	t.Run("large-k keeps the full-scan route", func(t *testing.T) {
		ev := mergeEvaluator(t, 4000)
		r0, m0 := ev.RankingCount(), ev.MergeCount()
		if _, err := ev.SelectCtx(t.Context(), bonus, 0.9); err != nil { // p > 3n/4
			t.Fatal(err)
		}
		if got := ev.MergeCount() - m0; got != 0 {
			t.Errorf("large-k select performed %d merges, want 0", got)
		}
		if got := ev.RankingCount() - r0; got != 1 {
			t.Errorf("large-k select performed %d full rankings, want 1", got)
		}
	})

	t.Run("heterogeneous cohort never merges", func(t *testing.T) {
		// Nearly one distinct fairness row per object: the partition is
		// within the construction cap, but runs of ~1 member fail the
		// g*4 <= n eligibility gate.
		n := 400
		b := dataset.NewBuilder([]string{"s"}, []string{"f"})
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < n; i++ {
			b.Add([]float64{rng.Float64() * 100}, []float64{float64(i) / float64(n-1)})
		}
		d, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		ev := NewEvaluator(d, rank.Column{Index: 0}, rank.Beneficial)
		if st, ok := ev.RunStats(); !ok || st.Runs*4 <= n {
			t.Fatalf("cohort not heterogeneous enough: stats %+v ok=%v", st, ok)
		}
		m0, r0 := ev.MergeCount(), ev.RankingCount()
		if _, err := ev.SelectCtx(t.Context(), []float64{3}, 0.05); err != nil {
			t.Fatal(err)
		}
		if got := ev.MergeCount() - m0; got != 0 {
			t.Errorf("heterogeneous select performed %d merges, want 0", got)
		}
		if got := ev.RankingCount() - r0; got != 1 {
			t.Errorf("heterogeneous select performed %d full rankings, want 1", got)
		}
	})

	t.Run("zero bonus is free on every route", func(t *testing.T) {
		ev := mergeEvaluator(t, 4000)
		r0, m0 := ev.RankingCount(), ev.MergeCount()
		if _, err := ev.SelectCtx(t.Context(), nil, 0.05); err != nil {
			t.Fatal(err)
		}
		if ev.RankingCount() != r0 || ev.MergeCount() != m0 {
			t.Errorf("zero-bonus select moved the counters (rankings %d→%d, merges %d→%d)",
				r0, ev.RankingCount(), m0, ev.MergeCount())
		}
	})
}

// TestMergeSelectDifferential pins the merge-served selection prefix
// bit-identical to the full sort's leading segment across fractions,
// polarities, and sparse bonuses on a merge-eligible cohort.
func TestMergeSelectDifferential(t *testing.T) {
	ev := mergeEvaluator(t, 3000)
	bonuses := [][]float64{
		{2, 11, 10.5, 12.5},
		{0, 7, 0, 0},
		{-3, 2, -1, 4},
	}
	for _, bonus := range bonuses {
		full := mustOrder(t, ev, bonus) // always the full-sort path
		for _, k := range []float64{0.001, 0.05, 0.33, 0.74} {
			cnt, err := rank.SelectCount(ev.Dataset().N(), k)
			if err != nil {
				t.Fatal(err)
			}
			sel, err := ev.SelectCtx(t.Context(), bonus, k)
			if err != nil {
				t.Fatal(err)
			}
			for r := range sel {
				if sel[r] != full[r] {
					t.Fatalf("bonus %v k=%g: rank %d: merge=%d full=%d", bonus, k, r, sel[r], full[r])
				}
			}
			if len(sel) != cnt {
				t.Fatalf("bonus %v k=%g: %d selected, want %d", bonus, k, len(sel), cnt)
			}
		}
	}
}

// TestMergeNDCGDifferential pins the prefix-DCG ndcgWS rewrite against
// the whole-ranking metrics.NDCGAtFrac fold on the merge path.
func TestMergeNDCGDifferential(t *testing.T) {
	ev := mergeEvaluator(t, 3000)
	bonus := []float64{2, 11, 10.5, 12.5}
	full := mustOrder(t, ev, bonus)
	for _, k := range []float64{0.01, 0.05, 0.5, 1} {
		got, err := ev.NDCGCtx(t.Context(), bonus, k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := metrics.NDCGAtFrac(ev.BaseScores(), full, ev.origOrd, k)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("k=%g: NDCG=%v, full-ranking reference %v (not bit-identical)", k, got, want)
		}
	}
}

// TestMergeCounterfactualDifferential pins counterfactualsWS's RankOf
// source (the batch path) against its inverse-permutation source over a
// full ranking on every field, and asserts the batch actually took the
// merge route.
func TestMergeCounterfactualDifferential(t *testing.T) {
	ev := mergeEvaluator(t, 3000)
	n := ev.Dataset().N()
	bonus := []float64{2, 11, 10.5, 12.5}
	for _, k := range []float64{0.01, 0.05, 0.25} {
		cnt, err := rank.SelectCount(n, k)
		if err != nil {
			t.Fatal(err)
		}
		objs := make([]int, 0, 17)
		for i := 0; i <= 16; i++ {
			objs = append(objs, (i*n)/17)
		}
		m0 := ev.MergeCount()
		got, err := ev.CounterfactualBatchCtx(t.Context(), bonus, k, objs)
		if err != nil {
			t.Fatal(err)
		}
		if ev.MergeCount() == m0 {
			t.Fatalf("k=%g: batch did not take the merge route", k)
		}
		ws := ev.ws()
		order, _, err := ev.rankedPrefixWS(context.Background(), ws, bonus, n, true)
		if err != nil {
			t.Fatal(err)
		}
		want := ev.counterfactualsWS(ws, order, ws.Eff(n), false, cnt, objs)
		ev.put(ws)
		for r := range want {
			if !reflect.DeepEqual(got[r], want[r]) {
				t.Errorf("k=%g obj %d: merge %+v, full %+v", k, objs[r], got[r], want[r])
			}
		}
	}
}
