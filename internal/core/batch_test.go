package core

import (
	"errors"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/metrics"
	"fairrank/internal/rank"
)

// randomBatch draws a mixed batch of queries over one shared bonus:
// metric points, counterfactual object lists, and audit bundles, with
// the k extremes (count 1 and the whole population) always present so
// the boundary geometry (cnt == n gives Competitor == -1) is exercised
// in every trial.
func randomBatch(rng *rand.Rand, n int, bonus []float64) []BatchQuery {
	qs := []BatchQuery{
		{Kind: BatchDisparity, K: 1.0},
		{Kind: BatchCounterfactual, K: 1.0, Objects: []int{rng.Intn(n)}},
		{Kind: BatchCounterfactual, K: 0.5 / float64(n), Objects: []int{rng.Intn(n), rng.Intn(n)}},
	}
	for i, m := 0, 5+rng.Intn(6); i < m; i++ {
		k := rng.Float64()
		if k == 0 {
			k = 0.5
		}
		switch rng.Intn(6) {
		case 0:
			qs = append(qs, BatchQuery{Kind: BatchDisparity, K: k})
		case 1:
			qs = append(qs, BatchQuery{Kind: BatchNDCG, K: k})
		case 2:
			qs = append(qs, BatchQuery{Kind: BatchDisparateImpact, K: k})
		case 3:
			qs = append(qs, BatchQuery{Kind: BatchFPRDiff, K: k})
		case 4:
			objs := make([]int, 1+rng.Intn(4))
			for j := range objs {
				objs[j] = rng.Intn(n)
			}
			qs = append(qs, BatchQuery{Kind: BatchCounterfactual, K: k, Objects: objs})
		case 5:
			qs = append(qs, BatchQuery{Kind: BatchBundle, Bundle: &BundleStatsConfig{
				Bonus:      bonus,
				K:          k,
				Margins:    rng.Intn(4),
				IncludeFPR: rng.Intn(2) == 0,
			}})
		}
	}
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

// batchPassBudget is the ranking budget AnswerBatch promises for one
// batch: zero for a zero bonus (the cached base order answers for free),
// otherwise one shared pass plus — only when a bundle rode along — one
// leave-one-out prefix per attribute with a non-zero bonus, shared
// across every bundle in the batch.
func batchPassBudget(bonus []float64, qs []BatchQuery) int64 {
	nonzero := int64(0)
	for _, b := range bonus {
		if b != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		return 0
	}
	for _, q := range qs {
		if q.Kind == BatchBundle {
			return 1 + nonzero
		}
	}
	return 1
}

// TestAnswerBatchBitIdenticalToPointwise is the batching-equivalence
// property test: for random bonus vectors (nil, all-zero, and dense),
// both polarities, and heterogeneous (k, ids, metric, bundle) query
// mixes, every batch answer must equal the per-request evaluator bit
// for bit, and the whole batch must spend exactly its promised ranking
// budget — one shared pass (plus the shared leave-one-out fan when
// bundles are present), never one pass per request.
func TestAnswerBatchBitIdenticalToPointwise(t *testing.T) {
	d := sweepDataset(t, 1200, 907)
	scorer := rank.WeightedSum{Weights: []float64{0.7, 0.3}}
	for _, pol := range []rank.Polarity{rank.Beneficial, rank.Adverse} {
		ev := NewEvaluator(d, scorer, pol)
		rng := rand.New(rand.NewSource(31 + int64(pol)))
		for trial := 0; trial < 10; trial++ {
			bonus := randomBonus(rng, d.NumFair())
			qs := randomBatch(rng, d.N(), bonus)

			r0, m0 := ev.RankingCount(), ev.MergeCount()
			answers, err := ev.AnswerBatchCtx(t.Context(), bonus, qs)
			if err != nil {
				t.Fatalf("trial %d (polarity %v): AnswerBatch: %v", trial, pol, err)
			}
			passes := (ev.RankingCount() - r0) + (ev.MergeCount() - m0)
			if want := batchPassBudget(bonus, qs); passes != want {
				t.Errorf("trial %d (polarity %v): batch spent %d ranked passes, budget is %d",
					trial, pol, passes, want)
			}
			if len(answers) != len(qs) {
				t.Fatalf("trial %d: %d answers for %d queries", trial, len(answers), len(qs))
			}

			ref := newReference(ev)
			for i, q := range qs {
				a := answers[i]
				switch q.Kind {
				case BatchCounterfactual:
					ref.checkCounterfactuals(t, "batch", bonus, q.K, q.Objects, a.Counterfactuals)
				case BatchBundle:
					if a.Bundle != nil {
						ref.checkBundle(t, a.Bundle, *q.Bundle)
					}
				default:
					ref.checkMetric(t, "batch query "+strconv.Itoa(i), q.Kind, bonus, q.K, a)
				}
				switch q.Kind {
				case BatchDisparity:
					want, err := ev.DisparityCtx(t.Context(), bonus, q.K)
					if err != nil || a.Err != nil {
						t.Fatalf("query %d disparity errs: batch %v, pointwise %v", i, a.Err, err)
					}
					if !reflect.DeepEqual(a.Vector, want) {
						t.Errorf("query %d (k=%g): batch disparity %v != pointwise %v", i, q.K, a.Vector, want)
					}
				case BatchNDCG:
					want, werr := ev.NDCGCtx(t.Context(), bonus, q.K)
					if !errors.Is(a.Err, werr) && !errors.Is(werr, a.Err) {
						t.Fatalf("query %d ndcg errs: batch %v, pointwise %v", i, a.Err, werr)
					}
					if a.Err == nil && a.Value != want {
						t.Errorf("query %d (k=%g): batch nDCG %v != pointwise %v", i, q.K, a.Value, want)
					}
				case BatchDisparateImpact:
					want, err := ev.DisparateImpact(bonus, q.K)
					if err != nil || a.Err != nil {
						t.Fatalf("query %d DI errs: batch %v, pointwise %v", i, a.Err, err)
					}
					if !reflect.DeepEqual(a.Vector, want) {
						t.Errorf("query %d (k=%g): batch DI %v != pointwise %v", i, q.K, a.Vector, want)
					}
				case BatchFPRDiff:
					want, err := ev.FPRDiff(bonus, q.K)
					if err != nil || a.Err != nil {
						t.Fatalf("query %d FPR errs: batch %v, pointwise %v", i, a.Err, err)
					}
					if !reflect.DeepEqual(a.Vector, want) {
						t.Errorf("query %d (k=%g): batch FPR %v != pointwise %v", i, q.K, a.Vector, want)
					}
				case BatchCounterfactual:
					want, err := ev.CounterfactualBatchCtx(t.Context(), bonus, q.K, q.Objects)
					if err != nil || a.Err != nil {
						t.Fatalf("query %d cf errs: batch %v, pointwise %v", i, a.Err, err)
					}
					if !reflect.DeepEqual(a.Counterfactuals, want) {
						t.Errorf("query %d (k=%g, objs=%v): batch counterfactuals diverge\n batch: %+v\n point: %+v",
							i, q.K, q.Objects, a.Counterfactuals, want)
					}
				case BatchBundle:
					want, err := ev.BundleStatsCtx(t.Context(), *q.Bundle)
					if err != nil || a.Err != nil {
						t.Fatalf("query %d bundle errs: batch %v, pointwise %v", i, a.Err, err)
					}
					if !reflect.DeepEqual(a.Bundle, want) {
						t.Errorf("query %d (k=%g): batch bundle diverges\n batch: %+v\n point: %+v",
							i, q.Bundle.K, a.Bundle, want)
					}
				}
			}
			if t.Failed() {
				t.Fatalf("trial %d (polarity %v) diverged", trial, pol)
			}
		}
	}
}

// TestAnswerBatchZeroBonusIsFree pins the free path: a nil (or all-zero)
// bonus is answered from the cached uncompensated order without a single
// ranking or merge, whatever the batch asks.
func TestAnswerBatchZeroBonusIsFree(t *testing.T) {
	d := sweepDataset(t, 600, 11)
	ev := NewEvaluator(d, rank.WeightedSum{Weights: []float64{0.7, 0.3}}, rank.Beneficial)
	for _, bonus := range [][]float64{nil, make([]float64, d.NumFair())} {
		r0, m0 := ev.RankingCount(), ev.MergeCount()
		answers, err := ev.AnswerBatchCtx(t.Context(), bonus, []BatchQuery{
			{Kind: BatchDisparity, K: 0.2},
			{Kind: BatchNDCG, K: 0.1},
			{Kind: BatchCounterfactual, K: 0.3, Objects: []int{5, 17}},
			{Kind: BatchBundle, Bundle: &BundleStatsConfig{Bonus: bonus, K: 0.25, Margins: 2}},
		})
		if err != nil {
			t.Fatalf("AnswerBatch(zero bonus): %v", err)
		}
		for i, a := range answers {
			if a.Err != nil {
				t.Fatalf("answer %d: %v", i, a.Err)
			}
		}
		if dr, dm := ev.RankingCount()-r0, ev.MergeCount()-m0; dr != 0 || dm != 0 {
			t.Errorf("zero-bonus batch cost %d rankings + %d merges, want 0", dr, dm)
		}
	}
}

// TestAnswerBatchErrors pins the batch-wide validation contract: a
// malformed query fails the whole batch up front with an error locating
// the query, before any ranking is spent.
func TestAnswerBatchErrors(t *testing.T) {
	d := tinyDataset(t, 200, 21) // no outcomes
	ev := NewEvaluator(d, rank.WeightedSum{Weights: []float64{1}}, rank.Beneficial)
	bonus := []float64{2}

	if answers, err := ev.AnswerBatchCtx(t.Context(), bonus, nil); err != nil || answers != nil {
		t.Errorf("empty batch = (%v, %v), want (nil, nil)", answers, err)
	}

	cases := []struct {
		name string
		qs   []BatchQuery
		want string
	}{
		{"bad k locates the query", []BatchQuery{{Kind: BatchDisparity, K: 0.5}, {Kind: BatchDisparity, K: 0}}, "batch query 1"},
		{"fpr needs outcomes", []BatchQuery{{Kind: BatchFPRDiff, K: 0.5}}, "requires outcomes"},
		{"object out of range", []BatchQuery{{Kind: BatchCounterfactual, K: 0.5, Objects: []int{9999}}}, "object 9999 outside"},
		{"bundle without config", []BatchQuery{{Kind: BatchBundle}}, "without a config"},
		{"bundle bonus mismatch", []BatchQuery{{Kind: BatchBundle, Bundle: &BundleStatsConfig{Bonus: []float64{1}, K: 0.5}}}, "differs from the batch bonus"},
		{"negative margins", []BatchQuery{{Kind: BatchBundle, Bundle: &BundleStatsConfig{Bonus: bonus, K: 0.5, Margins: -1}}}, "negative"},
		{"unknown kind", []BatchQuery{{Kind: BatchKind(99), K: 0.5}}, "unknown kind"},
	}
	for _, tc := range cases {
		r0, m0 := ev.RankingCount(), ev.MergeCount()
		_, err := ev.AnswerBatchCtx(t.Context(), bonus, tc.qs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
		if dr, dm := ev.RankingCount()-r0, ev.MergeCount()-m0; dr != 0 || dm != 0 {
			t.Errorf("%s: rejected batch still spent %d rankings + %d merges", tc.name, dr, dm)
		}
	}

	if _, err := ev.AnswerBatchCtx(t.Context(), []float64{1, 2}, []BatchQuery{{Kind: BatchDisparity, K: 0.5}}); err == nil {
		t.Error("mismatched bonus dimensions accepted")
	}
}

// TestAnswerBatchZeroIdealDCGIsolation pins per-query failure isolation:
// a data-dependent failure (zero ideal DCG) lands in that query's own
// Err — matching what the per-request path reports — and never poisons
// its batchmates or fails the batch.
func TestAnswerBatchZeroIdealDCGIsolation(t *testing.T) {
	n := 100
	score := make([]float64, n) // all-zero base scores: ideal DCG is zero everywhere
	fair := make([]float64, n)
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			fair[i] = 1
		}
	}
	d, err := dataset.New([]string{"s"}, []string{"f"}, [][]float64{score}, [][]float64{fair}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(d, rank.WeightedSum{Weights: []float64{1}}, rank.Beneficial)
	bonus := []float64{1}

	answers, err := ev.AnswerBatchCtx(t.Context(), bonus, []BatchQuery{
		{Kind: BatchNDCG, K: 0.1},
		{Kind: BatchDisparity, K: 0.1},
		{Kind: BatchBundle, Bundle: &BundleStatsConfig{Bonus: bonus, K: 0.1}},
	})
	if err != nil {
		t.Fatalf("AnswerBatch: %v", err)
	}
	if !errors.Is(answers[0].Err, metrics.ErrZeroIdealDCG) {
		t.Errorf("ndcg query Err = %v, want ErrZeroIdealDCG", answers[0].Err)
	}
	if !errors.Is(answers[2].Err, metrics.ErrZeroIdealDCG) {
		t.Errorf("bundle query Err = %v, want ErrZeroIdealDCG", answers[2].Err)
	}
	if answers[1].Err != nil || answers[1].Vector == nil {
		t.Errorf("disparity batchmate poisoned: (%v, %v)", answers[1].Vector, answers[1].Err)
	}
	want, err := ev.DisparityCtx(t.Context(), bonus, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(answers[1].Vector, want) {
		t.Errorf("disparity next to a failed query diverges: %v != %v", answers[1].Vector, want)
	}
}
