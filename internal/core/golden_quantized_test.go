package core

import (
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/rank"
	"fairrank/internal/synth"
)

// The goldens in golden_test.go use a continuous-ENI cohort, on which the
// dataset's combo-row index declines and every descent step reads the
// fairness columns directly. These goldens pin the indexed route: the
// quantized school cohort (ENI on the published 101-level grid, about 500
// distinct fairness rows at n=4000) and the 6-dimensional one-hot compas
// cohort, whose scoring takes the FairDot-order loop. They were captured
// from the column-reading implementation, so they also prove the index
// changes no bit of any trained vector or evaluation.

func quantizedSchool(t *testing.T) (*dataset.Dataset, rank.Scorer) {
	t.Helper()
	cfg := synth.DefaultSchoolConfig()
	cfg.N = 4000
	cfg.Seed = 99
	d, err := synth.GenerateSchool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, rank.WeightedSum{Weights: synth.SchoolScoreWeights()}
}

func goldenCompas(t *testing.T) (*dataset.Dataset, rank.Scorer) {
	t.Helper()
	cfg := synth.DefaultCompasConfig()
	cfg.N = 4000
	cfg.Seed = 99
	d, err := synth.GenerateCompas(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, rank.WeightedSum{Weights: synth.CompasScoreWeights()}
}

// mustRun returns an unwrapper that fails t on a training error.
func mustRun(t *testing.T) func(Result, error) Result {
	return func(r Result, err error) Result {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
}

func TestGoldenQuantizedSchoolBitIdentical(t *testing.T) {
	d, scorer := quantizedSchool(t)
	if _, _, ok := d.ComboIndex(); !ok {
		t.Fatal("quantized cohort has no combo-row index; these goldens would not reach it")
	}
	must := mustRun(t)
	opts := DefaultOptions()
	opts.Seed = 7

	run := must(Run(d, scorer, DisparityObjective(0.05), opts))
	requireExact(t, "Run.Raw", run.Raw,
		[]string{"0x1.04541aa6431d8p+01", "0x1.5f8a71b62bd58p+03", "0x1.5a726ac3b09e8p+03", "0x1.82c41113539bap+03"})
	requireExact(t, "Run.CoreBonus", run.CoreBonus,
		[]string{"0x1.4ec1e4babce84p+01", "0x1.3adee1945830fp+03", "0x1.304155f9f6cdap+03", "0x1.808466894b7ecp+03"})
	requireExact(t, "Run.Bonus", run.Bonus,
		[]string{"0x1p+01", "0x1.6p+03", "0x1.6p+03", "0x1.8p+03"})

	requireExact(t, "CoreDCA.Raw", must(CoreDCA(d, scorer, DisparityObjective(0.05), opts)).Raw,
		[]string{"0x1.4ec1e4babce84p+01", "0x1.3adee1945830fp+03", "0x1.304155f9f6cdap+03", "0x1.808466894b7ecp+03"})
	requireExact(t, "Run(k=0.1).Raw", must(Run(d, scorer, DisparityObjective(0.10), opts)).Raw,
		[]string{"0x1.ed3b256ba1a85p+00", "0x1.48815f2ac6cafp+03", "0x1.2981eae28efbap+03", "0x1.58ebf06897252p+03"})
	requireExact(t, "FullDCA.Raw", must(FullDCA(d, scorer, DisparityObjective(0.05), opts)).Raw,
		[]string{"0x1.2cfa6b1407dd6p+01", "0x1.41f7dde4a0477p+03", "0x1.297b061eed281p+03", "0x1.7e87ad65a8dfep+03"})
	requireExact(t, "LogDiscounted.Raw", must(Run(d, scorer, LogDiscountedDisparity(0.1, 0.5), opts)).Raw,
		[]string{"0x1.0cf699070b693p+01", "0x1.1d68579d4ce68p+03", "0x1.e780bd2406bb4p+02", "0x1.3d3b21f226441p+03"})
	requireExact(t, "DisparateImpact.Raw", must(Run(d, scorer, DisparateImpactObjective(0.1), opts)).Raw,
		[]string{"0x1.6f003deb31f21p-01", "0x1.5931b6c9b61f6p+03", "0x1.86a3aca9417efp+03", "0x1.62d51557c712p+03"})

	// Evaluation of the trained vector: k=0.05 takes the combo-run merge,
	// k=0.9 scores the whole population and ranks it.
	ev := NewEvaluator(d, scorer, rank.Beneficial)
	for _, g := range []struct {
		k    float64
		disp []string
		ndcg string
	}{
		{0.05, []string{"0x1.4fdf3b645a1cp-07", "-0x1.26e978d4fdf38p-07", "-0x1.1758e2196532p-06", "-0x1.26e978d4fdf4p-09"}, "0x1.eae00412d0bbfp-01"},
		{0.9, []string{"0x1.98b09546c51p-07", "0x1.89374bc6a7fp-08", "0x1.7c790f3f07f8p-08", "0x1.7d621391dcf4p-07"}, "0x1.f9efdff803dfep-01"},
	} {
		disp, err := ev.DisparityCtx(t.Context(), run.Bonus, g.k)
		if err != nil {
			t.Fatal(err)
		}
		ndcg, err := ev.NDCGCtx(t.Context(), run.Bonus, g.k)
		if err != nil {
			t.Fatal(err)
		}
		requireExact(t, "Evaluator.Disparity", disp, g.disp)
		requireExact(t, "Evaluator.NDCG", []float64{ndcg}, []string{g.ndcg})
	}
}

func TestGoldenCompasBitIdentical(t *testing.T) {
	d, scorer := goldenCompas(t)
	if _, _, ok := d.ComboIndex(); !ok {
		t.Fatal("compas cohort has no combo-row index; these goldens would not reach it")
	}
	must := mustRun(t)
	opts := DefaultOptions()
	opts.Seed = 7
	opts.Polarity = rank.Adverse

	requireExact(t, "Run(FPR).Raw", must(Run(d, scorer, FPRObjective(0.2), opts)).Raw,
		[]string{"0x1.30242d545508dp+01", "0x1.b10ed8411d69ap-02", "0x1.b32b01f798ab1p-02", "0x0p+00", "0x1.2160edda061e8p+01", "0x1.87eccb8e4ce5dp-02"})
	requireExact(t, "Run(disparity).Raw", must(Run(d, scorer, DisparityObjective(0.2), opts)).Raw,
		[]string{"0x1.18cf6023a2bbp+01", "0x1.7e29fe5f1571dp-03", "0x1.83aa2a5adbe31p-03", "0x1.4dfb3fe82ef43p-03", "0x1.12abe796188dp-01", "0x1.e3d4e67e50f9cp-03"})
	requireExact(t, "CoreDCA(FPR).Raw", must(CoreDCA(d, scorer, FPRObjective(0.2), opts)).Raw,
		[]string{"0x1.168dea74b851dp+01", "0x1.6158488b0750dp-03", "0x1.2c4d0b14a3fa6p-02", "0x0p+00", "0x1.93d8b4f669d1fp+01", "0x1.8342aa05157abp-03"})
	requireExact(t, "FullDCA(FPR).Raw", must(FullDCA(d, scorer, FPRObjective(0.2), opts)).Raw,
		[]string{"0x1.1173459720e6ep+01", "0x1.209b22362f572p-03", "0x1.1e2bfe64b2e88p-03", "0x0p+00", "0x1.24ff4f83df5b9p+00", "0x1.2a2aed583d973p-03"})

	ev := NewEvaluator(d, scorer, rank.Adverse)
	bonus := make([]float64, d.NumFair())
	for j := range bonus {
		bonus[j] = 0.5 * float64(j+1)
	}
	for _, g := range []struct {
		k   float64
		fpr []string
	}{
		{0.2, []string{"0x1.4f1eca26ea2ep-04", "-0x1.e8756da49962cp-05", "-0x1.6905c9e4d42bfp-04", "-0x1.a765f37a453a4p-04", "-0x1.a765f37a453a4p-04", "-0x1.a765f37a453a4p-04"}},
		{0.9, []string{"0x1.21274f336f938p-03", "-0x1.2f756236f46b8p-04", "-0x1.eb71c3c034ec8p-04", "-0x1.826faa0531347p-02", "-0x1.22d99b1cb4fbep-01", "-0x1.13d47564a27ccp-02"}},
	} {
		fpr, err := ev.FPRDiff(bonus, g.k)
		if err != nil {
			t.Fatal(err)
		}
		requireExact(t, "Evaluator.FPRDiff", fpr, g.fpr)
	}
}
