package simulate

import (
	"testing"

	"fairrank/internal/core"
	"fairrank/internal/rank"
	"fairrank/internal/synth"
)

func driftGen(liStep, penaltyGrowth float64) SchoolDrift {
	cfg := synth.DefaultSchoolConfig()
	cfg.N = 8000
	cfg.Seed = 500
	return SchoolDrift{Base: cfg, LowIncomeRateStep: liStep, PenaltyGrowth: penaltyGrowth}
}

func TestSchoolDriftApplies(t *testing.T) {
	g := driftGen(0.02, 0.10)
	y0, err := g.Cohort(0)
	if err != nil {
		t.Fatal(err)
	}
	y5, err := g.Cohort(5)
	if err != nil {
		t.Fatal(err)
	}
	li0 := y0.FairCentroid()[0]
	li5 := y5.FairCentroid()[0]
	if li5 < li0+0.05 {
		t.Errorf("low-income rate did not drift: %.3f -> %.3f", li0, li5)
	}
	// Worsening penalties should deepen the baseline disparity.
	scorer := rank.WeightedSum{Weights: synth.SchoolScoreWeights()}
	ev0 := core.NewEvaluator(y0, scorer, rank.Beneficial)
	ev5 := core.NewEvaluator(y5, scorer, rank.Beneficial)
	d0, err := ev0.DisparityCtx(t.Context(), nil, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	d5, err := ev5.DisparityCtx(t.Context(), nil, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if d5[3] > d0[3] {
		t.Errorf("Special-Ed disparity should deepen under penalty growth: %.3f -> %.3f", d0[3], d5[3])
	}
}

func TestRunPolicies(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-year simulation")
	}
	gen := driftGen(0.01, 0.08)
	scorer := rank.WeightedSum{Weights: synth.SchoolScoreWeights()}
	opts := core.DefaultOptions()
	obj := core.DisparityObjective(0.05)
	policies := []Policy{
		NoPolicy{},
		&StaticPolicy{Scorer: scorer, Objective: obj, Opts: opts},
		&RetrainPolicy{Scorer: scorer, Objective: obj, Opts: opts},
	}
	const years = 6
	out, err := Run(gen, scorer, policies, years, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("outcomes for %d policies", len(out))
	}
	byName := map[string]PolicyOutcome{}
	for _, po := range out {
		if len(po.Years) != years {
			t.Fatalf("policy %s has %d years", po.Policy, len(po.Years))
		}
		byName[po.Policy] = po
	}

	// Year 0: no prior data, every policy runs uncompensated.
	for _, po := range out {
		if po.Years[0].Norm != byName["none"].Years[0].Norm {
			t.Errorf("policy %s differs from baseline in year 0", po.Policy)
		}
	}

	last := years - 1
	none := byName["none"].Years[last].Norm
	static := byName["static"].Years[last].Norm
	retrain := byName["retrain"].Years[last].Norm
	t.Logf("final-year norms: none=%.3f static=%.3f retrain=%.3f", none, static, retrain)
	// Any compensation beats none; retraining tracks the drift better than
	// the stale static vector.
	if static >= none {
		t.Errorf("static policy (%.3f) should beat no policy (%.3f)", static, none)
	}
	if retrain >= static {
		t.Errorf("annual retraining (%.3f) should beat the stale static vector (%.3f) under drift", retrain, static)
	}
	// The baseline should be visibly worse than both by the end.
	if none < 0.3 {
		t.Errorf("drifting baseline norm %.3f unexpectedly small", none)
	}
}

func TestRunValidation(t *testing.T) {
	gen := driftGen(0, 0)
	scorer := rank.WeightedSum{Weights: synth.SchoolScoreWeights()}
	if _, err := Run(gen, scorer, []Policy{NoPolicy{}}, 0, 0.05); err == nil {
		t.Error("zero years: expected error")
	}
	if _, err := Run(gen, scorer, nil, 3, 0.05); err == nil {
		t.Error("no policies: expected error")
	}
}
