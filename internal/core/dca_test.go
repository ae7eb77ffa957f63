package core

import (
	"math"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/metrics"
	"fairrank/internal/rank"
	"fairrank/internal/synth"
)

func schoolFixture(t testing.TB, n int) (*dataset.Dataset, rank.Scorer) {
	t.Helper()
	cfg := synth.DefaultSchoolConfig()
	cfg.N = n
	d, err := synth.GenerateSchool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, rank.WeightedSum{Weights: synth.SchoolScoreWeights()}
}

// TestRunReducesSchoolDisparity is the headline reproduction of Table I:
// DCA-trained bonus points drive the top-5% disparity norm from ≈ 0.37 to
// near zero on the training cohort and on an independent test cohort.
func TestRunReducesSchoolDisparity(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end DCA run")
	}
	d, scorer := schoolFixture(t, 40000)
	obj := DisparityObjective(0.05)
	res, err := Run(d, scorer, obj, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("bonus=%v raw=%v steps=%d elapsed=%s", res.Bonus, res.Raw, res.Steps, res.Elapsed)

	ev := NewEvaluator(d, scorer, rank.Beneficial)
	before, err := ev.DisparityCtx(t.Context(), nil, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	after, err := ev.DisparityCtx(t.Context(), res.Bonus, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("train disparity before=%v (norm %.3f) after=%v (norm %.3f)",
		before, metrics.Norm(before), after, metrics.Norm(after))
	if n := metrics.Norm(after); n > 0.08 {
		t.Errorf("train disparity norm after DCA = %.3f, want < 0.08", n)
	}

	// Independent test cohort (different seed = different school year).
	cfg := synth.DefaultSchoolConfig()
	cfg.N = 40000
	cfg.Seed = 2018
	testD, err := synth.GenerateSchool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	evT := NewEvaluator(testD, scorer, rank.Beneficial)
	afterT, err := evT.DisparityCtx(t.Context(), res.Bonus, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("test disparity after=%v (norm %.3f)", afterT, metrics.Norm(afterT))
	if n := metrics.Norm(afterT); n > 0.10 {
		t.Errorf("test disparity norm after DCA = %.3f, want < 0.10", n)
	}

	// Bonus shape of Table I: ELL/ENI/Special-Ed bonuses are an order of
	// magnitude larger than the Low-Income bonus, which the ENI dimension
	// largely absorbs.
	if res.Bonus[0] > 5 {
		t.Errorf("Low-Income bonus = %v, expected small (paper: 1.0)", res.Bonus[0])
	}
	for _, j := range []int{1, 2, 3} {
		if res.Bonus[j] < 5 {
			t.Errorf("bonus[%d] = %v, expected ≈ 10-15 points", j, res.Bonus[j])
		}
	}
	// Granularity: every bonus is a multiple of 0.5.
	for j, b := range res.Bonus {
		if r := math.Mod(b, 0.5); r > 1e-9 && r < 0.5-1e-9 {
			t.Errorf("bonus[%d] = %v not a multiple of 0.5", j, b)
		}
	}
}

// TestCoreDCAWithoutRefinement checks that Algorithm 1 alone lands close
// (the paper reports roughly 3x worse norms than refined DCA but still a
// large reduction from baseline).
func TestCoreDCAWithoutRefinement(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end DCA run")
	}
	d, scorer := schoolFixture(t, 40000)
	res, err := CoreDCA(d, scorer, DisparityObjective(0.05), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(d, scorer, rank.Beneficial)
	after, err := ev.DisparityCtx(t.Context(), RoundTo(append([]float64(nil), res.Raw...), 0.5), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("core-only bonus=%v disparity after=%v (norm %.3f)", res.Bonus, after, metrics.Norm(after))
	if n := metrics.Norm(after); n > 0.15 {
		t.Errorf("core-only disparity norm = %.3f, want < 0.15", n)
	}
}
