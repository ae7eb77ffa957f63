package core

import (
	"math"
	"reflect"
	"testing"

	"fairrank/internal/metrics"
	"fairrank/internal/rank"
)

// mustOrder is Evaluator.Order for a bonus the test knows is well formed.
func mustOrder(t testing.TB, ev *Evaluator, bonus []float64) []int {
	t.Helper()
	ord, err := ev.Order(bonus)
	if err != nil {
		t.Fatal(err)
	}
	return ord
}

func TestEvaluatorZeroBonusMatchesOriginal(t *testing.T) {
	d := tinyDataset(t, 500, 11)
	scorer := rank.WeightedSum{Weights: []float64{1}}
	ev := NewEvaluator(d, scorer, rank.Beneficial)
	if !reflect.DeepEqual(mustOrder(t, ev, nil), mustOrder(t, ev, []float64{0})) {
		t.Error("nil and zero bonus orders differ")
	}
	sel, err := ev.SelectCtx(t.Context(), nil, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sel, mustOrder(t, ev, nil)[:len(sel)]) {
		t.Error("Select(nil) is not the prefix of the original order")
	}
	ndcg, err := ev.NDCGCtx(t.Context(), nil, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if ndcg != 1 {
		t.Errorf("nDCG of unchanged ranking = %v, want 1", ndcg)
	}
}

func TestEvaluatorDisparityMatchesMetrics(t *testing.T) {
	d := tinyDataset(t, 500, 12)
	scorer := rank.WeightedSum{Weights: []float64{1}}
	ev := NewEvaluator(d, scorer, rank.Beneficial)
	sel, err := ev.SelectCtx(t.Context(), nil, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	want := metrics.Disparity(d, sel)
	got, err := ev.DisparityCtx(t.Context(), nil, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Disparity = %v, want %v", got, want)
	}
}

func TestEvaluatorBonusMovesProtectedUp(t *testing.T) {
	d := tinyDataset(t, 2000, 13)
	scorer := rank.WeightedSum{Weights: []float64{1}}
	ev := NewEvaluator(d, scorer, rank.Beneficial)
	before, err := ev.DisparityCtx(t.Context(), nil, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	after, err := ev.DisparityCtx(t.Context(), []float64{5}, 0.1) // exactly the generator's penalty
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(after[0]) >= math.Abs(before[0]) {
		t.Errorf("bonus did not reduce disparity: %v -> %v", before[0], after[0])
	}
	// nDCG decreases as the bonus perturbs the ranking.
	u, err := ev.NDCGCtx(t.Context(), []float64{5}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if u >= 1 || u <= 0.5 {
		t.Errorf("nDCG = %v, want in (0.5, 1)", u)
	}
}

func TestEvaluatorFPRRequiresOutcomes(t *testing.T) {
	d := tinyDataset(t, 100, 14)
	ev := NewEvaluator(d, rank.WeightedSum{Weights: []float64{1}}, rank.Beneficial)
	if _, err := ev.FPRDiff(nil, 0.1); err == nil {
		t.Error("expected error without outcomes")
	}
}

func TestFindScaleForNDCG(t *testing.T) {
	d := tinyDataset(t, 4000, 15)
	scorer := rank.WeightedSum{Weights: []float64{1}}
	ev := NewEvaluator(d, scorer, rank.Beneficial)
	bonus := []float64{5}

	// A target below the full-bonus nDCG is satisfied by w = 1.
	full, err := ev.NDCGCtx(t.Context(), bonus, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := ev.FindScaleForNDCG(bonus, 0.1, full-0.01, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if w != 1 {
		t.Errorf("scale for easy target = %v, want 1", w)
	}

	// A high target forces a smaller proportion, and the scaled vector must
	// meet it.
	target := (1 + full) / 2
	w, err = ev.FindScaleForNDCG(bonus, 0.1, target, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if w >= 1 || w < 0 {
		t.Fatalf("scale = %v, want in [0, 1)", w)
	}
	got, err := ev.NDCGCtx(t.Context(), Scale(bonus, w, 0.5), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if got < target-1e-9 {
		t.Errorf("scaled nDCG %v misses target %v (w=%v)", got, target, w)
	}
}

func TestEvaluatorAdversePolarity(t *testing.T) {
	d := tinyDataset(t, 1000, 16)
	scorer := rank.WeightedSum{Weights: []float64{1}}
	ben := NewEvaluator(d, scorer, rank.Beneficial)
	adv := NewEvaluator(d, scorer, rank.Adverse)
	// With zero bonus the selections agree; with a bonus they move in
	// opposite directions for the protected group.
	selB, err := ben.SelectCtx(t.Context(), []float64{10}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	selA, err := adv.SelectCtx(t.Context(), []float64{10}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	dispB := metrics.Disparity(d, selB)
	dispA := metrics.Disparity(d, selA)
	if dispB[0] <= dispA[0] {
		t.Errorf("beneficial bonus should include more protected than adverse: %v vs %v", dispB[0], dispA[0])
	}
}
