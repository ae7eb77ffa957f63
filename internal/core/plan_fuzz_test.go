package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/rank"
)

// FuzzPlan drives the evaluation plan with small cohorts whose scores tie
// on a coarse grid, mixed query kinds, k values (1/n and 1 included) and
// 1–3 bonus groups, and checks every route through it — SweepCtx,
// AnswerBatchCtx and the pointwise adapters — against the reference
// evaluator (reference_test.go), bit for bit. Every plan runs on one
// evaluator, so later plans on a group's bonus read the ranked-order
// memo that earlier ones left, and a closing session of 2-4 batches
// repeats, re-extends and replaces it.
//
//	go test ./internal/core -run '^$' -fuzz FuzzPlan -fuzztime 20s
func FuzzPlan(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(2), uint8(2), uint8(8), false)
	f.Add(int64(7), uint8(1), uint8(1), uint8(1), uint8(3), true)
	f.Add(int64(99), uint8(119), uint8(3), uint8(3), uint8(12), false)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, dimsRaw, groupsRaw, queriesRaw uint8, adverse bool) {
		rng := rand.New(rand.NewSource(seed))
		n, dims := 1+int(nRaw)%120, 1+int(dimsRaw)%3
		names := []string{"a", "b", "c"}[:dims]
		b := dataset.NewBuilder([]string{"s"}, names)
		for i := 0; i < n; i++ {
			fair := make([]float64, dims)
			for j := range fair {
				fair[j] = float64(rng.Intn(2))
			}
			b.AddWithOutcome([]float64{float64(rng.Intn(4))}, fair, rng.Intn(2) == 0)
		}
		d, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		pol := rank.Beneficial
		if adverse {
			pol = rank.Adverse
		}
		ev := NewEvaluator(d, rank.WeightedSum{Weights: []float64{1}}, pol)
		ref := newReference(ev)
		ctx := context.Background()

		bonuses := make([][]float64, 1+int(groupsRaw)%3)
		for g := range bonuses {
			if rng.Intn(4) == 0 {
				continue // nil: the uncompensated ranking
			}
			bonuses[g] = make([]float64, dims)
			for j := range bonuses[g] {
				bonuses[g][j] = float64(rng.Intn(5)) / 2
			}
		}
		randK := func() float64 {
			switch rng.Intn(4) {
			case 0:
				return 1 / float64(2*n)
			case 1:
				return 1
			}
			return 0.01 + 0.99*rng.Float64()
		}
		nq := 1 + int(queriesRaw)%16

		// Sweeps: every metric kind over points spread across the groups.
		for _, kind := range metricKinds {
			pts := make([]SweepPoint, nq)
			for i := range pts {
				pts[i] = SweepPoint{Bonus: bonuses[rng.Intn(len(bonuses))], K: randK()}
			}
			rows, vals, err := ev.SweepCtx(ctx, kind, pts)
			bad := -1
			var badErr error
			for i, pt := range pts {
				if want := ref.metric(t, kind, pt.Bonus, pt.K); want.Err != nil {
					bad, badErr = i, want.Err
					break
				}
			}
			if bad >= 0 {
				if !errors.Is(err, badErr) || !strings.Contains(err.Error(), fmt.Sprintf("sweep point %d ", bad)) {
					t.Fatalf("kind %d: sweep err %v, reference fails point %d with %v", kind, err, bad, badErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("kind %d: sweep: %v", kind, err)
			}
			for i, pt := range pts {
				got := BatchAnswer{}
				if rows != nil {
					got.Vector = rows[i]
				} else {
					got.Value = vals[i]
				}
				if kind == BatchExposure {
					got.Value = ref.metric(t, kind, pt.Bonus, pt.K).Value // rows carry no DDP
				}
				ref.checkMetric(t, fmt.Sprintf("sweep point %d", i), kind, pt.Bonus, pt.K, got)
			}
		}

		// One batch per group, mixing every query kind; then the pointwise
		// adapters on the same queries.
		batch := func(bonus []float64) {
			qs := make([]BatchQuery, nq)
			for i := range qs {
				q := BatchQuery{Kind: BatchKind(rng.Intn(int(BatchExplain) + 1)), K: randK()}
				switch q.Kind {
				case BatchCounterfactual:
					q.Objects = []int{rng.Intn(n), rng.Intn(n)}
				case BatchBundle:
					q.Bundle = &BundleStatsConfig{Bonus: bonus, K: q.K, Margins: rng.Intn(3), IncludeFPR: true, IncludeExposure: rng.Intn(2) == 0}
				}
				qs[i] = q
			}
			answers, err := ev.AnswerBatchCtx(ctx, bonus, qs)
			if err != nil {
				t.Fatalf("AnswerBatchCtx: %v", err)
			}
			for i, q := range qs {
				a, label := answers[i], fmt.Sprintf("batch query %d", i)
				switch q.Kind {
				case BatchCounterfactual:
					ref.checkCounterfactuals(t, label, bonus, q.K, q.Objects, a.Counterfactuals)
					cfs, err := ev.CounterfactualBatchCtx(ctx, bonus, q.K, q.Objects)
					if err != nil {
						t.Fatal(err)
					}
					ref.checkCounterfactuals(t, "CounterfactualBatchCtx", bonus, q.K, q.Objects, cfs)
				case BatchBundle:
					st, err := ev.BundleStatsCtx(ctx, *q.Bundle)
					if (err == nil) != (a.Err == nil) {
						t.Fatalf("%s: bundle err %v, BundleStatsCtx err %v", label, a.Err, err)
					}
					if err == nil {
						ref.checkBundle(t, a.Bundle, *q.Bundle)
						ref.checkBundle(t, st, *q.Bundle)
					}
				case BatchExplain:
					for _, exp := range []*Explanation{a.Explanation, mustExplain(t, ev, bonus, q.K)} {
						ref.checkSelection(t, label, bonus, q.K, exp.Cutoff, exp.BaseCutoff, exp.GroupCounts, exp.BaseGroupCounts, exp.AdmittedByBonus, exp.DisplacedByBonus)
					}
				default:
					ref.checkMetric(t, label, q.Kind, bonus, q.K, a)
					ref.checkMetric(t, "pointwise "+label, q.Kind, bonus, q.K, pointwise(ctx, ev, q.Kind, bonus, q.K))
				}
			}
		}
		for _, bonus := range bonuses {
			batch(bonus)
		}

		// A session: 2-4 more batches on one evaluator, each on a group's
		// bonus or a fresh copy of its bits, so the ranked-order memo is
		// read, extended past what it holds and replaced between them.
		for range 2 + rng.Intn(3) {
			bonus := bonuses[rng.Intn(len(bonuses))]
			if rng.Intn(2) == 0 {
				bonus = slices.Clone(bonus)
			}
			batch(bonus)
		}
	})
}

func mustExplain(t *testing.T, ev *Evaluator, bonus []float64, k float64) *Explanation {
	t.Helper()
	exp, err := ev.ExplainCtx(context.Background(), bonus, k)
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

// pointwise answers one metric query through its public pointwise
// adapter, shaped as a BatchAnswer.
func pointwise(ctx context.Context, ev *Evaluator, kind BatchKind, bonus []float64, k float64) BatchAnswer {
	var a BatchAnswer
	switch kind {
	case BatchDisparity:
		a.Vector, a.Err = ev.DisparityCtx(ctx, bonus, k)
	case BatchNDCG:
		a.Value, a.Err = ev.NDCGCtx(ctx, bonus, k)
	case BatchDisparateImpact:
		a.Vector, a.Err = ev.DisparateImpact(bonus, k)
	case BatchFPRDiff:
		a.Vector, a.Err = ev.FPRDiff(bonus, k)
	case BatchExposure:
		a.Vector, a.Value, a.Err = ev.ExposureCtx(ctx, bonus, k)
	case BatchExpRatio:
		a.Vector, a.Err = ev.ExposureRatioCtx(ctx, bonus, k)
	case BatchTopK:
		a.Vector, a.Err = ev.TopKShareCtx(ctx, bonus, k)
	}
	return a
}
