package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/metrics"
	"fairrank/internal/rank"
)

// TestEntryPointsBonusDims pins one bonus contract across every public
// Evaluator entry point that takes a bonus vector: nil answers exactly as
// the zero vector does, a short (including empty) or long bonus is
// rejected with the dimension error before any ranking, and nothing
// panics.
func TestEntryPointsBonusDims(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	b := dataset.NewBuilder([]string{"s"}, []string{"a", "b"})
	for i := 0; i < 300; i++ {
		b.AddWithOutcome([]float64{rng.NormFloat64()}, []float64{float64(rng.Intn(2)), float64(rng.Intn(2))}, rng.Intn(2) == 0)
	}
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(d, rank.WeightedSum{Weights: []float64{1}}, rank.Beneficial)
	ctx := t.Context()
	const k = 0.2
	pts := func(bonus []float64) []SweepPoint { return []SweepPoint{{Bonus: bonus, K: k}, {Bonus: bonus, K: 0.5}} }
	entries := map[string]func(bonus []float64) (any, error){
		"SelectCtx":    func(x []float64) (any, error) { return ev.SelectCtx(ctx, x, k) },
		"DisparityCtx": func(x []float64) (any, error) { return ev.DisparityCtx(ctx, x, k) },
		"NDCGCtx":      func(x []float64) (any, error) { return ev.NDCGCtx(ctx, x, k) },
		"LogDiscounted": func(x []float64) (any, error) {
			return ev.LogDiscounted(x, metrics.LogDiscount{Points: metrics.DefaultPoints(0.1, 0.5)})
		},
		"DisparateImpact": func(x []float64) (any, error) { return ev.DisparateImpact(x, k) },
		"FPRDiff":         func(x []float64) (any, error) { return ev.FPRDiff(x, k) },
		"ExposureCtx": func(x []float64) (any, error) {
			v, ddp, err := ev.ExposureCtx(ctx, x, k)
			return []any{v, ddp}, err
		},
		"ExposureRatioCtx":        func(x []float64) (any, error) { return ev.ExposureRatioCtx(ctx, x, k) },
		"TopKShareCtx":            func(x []float64) (any, error) { return ev.TopKShareCtx(ctx, x, k) },
		"DisparitySweepCtx":       func(x []float64) (any, error) { return ev.DisparitySweepCtx(ctx, pts(x)) },
		"NDCGSweepCtx":            func(x []float64) (any, error) { return ev.NDCGSweepCtx(ctx, pts(x)) },
		"DisparateImpactSweepCtx": func(x []float64) (any, error) { return ev.DisparateImpactSweepCtx(ctx, pts(x)) },
		"FPRDiffSweepCtx":         func(x []float64) (any, error) { return ev.FPRDiffSweepCtx(ctx, pts(x)) },
		"ExposureSweepCtx":        func(x []float64) (any, error) { return ev.ExposureSweepCtx(ctx, pts(x)) },
		"ExpRatioSweepCtx":        func(x []float64) (any, error) { return ev.ExpRatioSweepCtx(ctx, pts(x)) },
		"TopKSweepCtx":            func(x []float64) (any, error) { return ev.TopKSweepCtx(ctx, pts(x)) },
		"SweepCtx": func(x []float64) (any, error) {
			rows, vals, err := ev.SweepCtx(ctx, BatchNDCG, pts(x))
			return []any{rows, vals}, err
		},
		"AnswerBatchCtx": func(x []float64) (any, error) {
			return ev.AnswerBatchCtx(ctx, x, []BatchQuery{
				{Kind: BatchDisparity, K: k}, {Kind: BatchExplain, K: k}, {Kind: BatchCounterfactual, K: k, Objects: []int{3}},
				{Kind: BatchNDCG, K: k}, {Kind: BatchBundle, Bundle: &BundleStatsConfig{Bonus: x, K: k, Margins: 1}},
			})
		},
		"BundleStatsCtx": func(x []float64) (any, error) {
			return ev.BundleStatsCtx(ctx, BundleStatsConfig{Bonus: x, K: k, Margins: 2})
		},
		"CounterfactualBatchCtx": func(x []float64) (any, error) {
			return ev.CounterfactualBatchCtx(ctx, x, k, []int{0, 1, 2, 299})
		},
		"AttributeDisparity": func(x []float64) (any, error) { return ev.AttributeDisparity(x, k) },
		"ExplainCtx":         func(x []float64) (any, error) { return ev.ExplainCtx(ctx, x, k) },
		"FindScaleForNDCG":   func(x []float64) (any, error) { return ev.FindScaleForNDCG(x, k, 0.9, 0.5) },
		"Order":              func(x []float64) (any, error) { return ev.Order(x) },
	}
	call := func(name string, fn func([]float64) (any, error), bonus []float64) (out any, err error) {
		defer func() {
			if v := recover(); v != nil {
				t.Errorf("%s(%v) panicked: %v", name, bonus, v)
				err = fmt.Errorf("panic")
			}
		}()
		return fn(bonus)
	}
	for name, fn := range entries {
		got, err := call(name, fn, nil)
		if err != nil {
			t.Errorf("%s(nil): %v", name, err)
			continue
		}
		want, err := call(name, fn, make([]float64, d.NumFair()))
		if err != nil {
			t.Errorf("%s(zero vector): %v", name, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: nil bonus answers %+v, zero vector %+v", name, got, want)
		}
		for _, bad := range [][]float64{{}, {1}, {1, 2, 3}} {
			r0, m0 := ev.RankingCount(), ev.MergeCount()
			_, err := call(name, fn, bad)
			want := fmt.Sprintf("bonus has %d dimensions, dataset has %d", len(bad), d.NumFair())
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s(%v): err = %v, want %q", name, bad, err, want)
			}
			if dr, dm := ev.RankingCount()-r0, ev.MergeCount()-m0; dr != 0 || dm != 0 {
				t.Errorf("%s(%v): rejected bonus still spent %d rankings + %d merges", name, bad, dr, dm)
			}
		}
	}

	// ExplainObject reads the report's Bonus, which is dims long even for
	// a nil bonus.
	exp, err := ev.ExplainCtx(ctx, nil, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Bonus) != d.NumFair() {
		t.Fatalf("Explain(nil).Bonus = %v, want %d zeros", exp.Bonus, d.NumFair())
	}
	if _, err := ev.ExplainObject(exp, 5); err != nil {
		t.Errorf("ExplainObject after Explain(nil): %v", err)
	}
}
