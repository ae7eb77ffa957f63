package experiments

import (
	"strings"
	"testing"

	"fairrank/internal/baselines"
	"fairrank/internal/core"
	"fairrank/internal/metrics"
)

// Shape-regression tests: each pins one qualitative claim of the paper
// that the corresponding experiment must keep reproducing.

func shapeEnv(t *testing.T) *Env {
	t.Helper()
	if testing.Short() {
		t.Skip("shape tests train DCA")
	}
	cfg := tinyConfig()
	cfg.SchoolN = 20000
	return NewEnv(cfg)
}

// Figure 6's claim: the single quota reduces disparity but not to DCA's
// level at the same k.
func TestQuotaWorseThanDCA(t *testing.T) {
	env := shapeEnv(t)
	testEval, err := env.TestEval()
	if err != nil {
		t.Fatal(err)
	}
	const k = 0.05
	baseline, err := testEval.DisparityCtx(t.Context(), nil, k)
	if err != nil {
		t.Fatal(err)
	}
	res, err := env.DCAAtK(k)
	if err != nil {
		t.Fatal(err)
	}
	dca, err := testEval.DisparityCtx(t.Context(), res.Bonus, k)
	if err != nil {
		t.Fatal(err)
	}
	quotaNorm := quotaNormAt(t, env, k)
	if quotaNorm >= metrics.Norm(baseline) {
		t.Errorf("quota norm %.3f should beat baseline %.3f", quotaNorm, metrics.Norm(baseline))
	}
	if metrics.Norm(dca) >= quotaNorm {
		t.Errorf("DCA norm %.3f should beat the quota %.3f", metrics.Norm(dca), quotaNorm)
	}
}

// quotaNormAt computes the Figure 6 quota selection directly (union
// set-aside sized at the disadvantaged population share) and returns its
// disparity norm at k.
func quotaNormAt(t *testing.T, env *Env, k float64) float64 {
	t.Helper()
	test, err := env.Test()
	if err != nil {
		t.Fatal(err)
	}
	testEval, err := env.TestEval()
	if err != nil {
		t.Fatal(err)
	}
	member := make([]bool, test.N())
	for _, c := range schoolBinaryCols {
		col := test.FairColumn(c)
		for i, v := range col {
			if v > 0.5 {
				member[i] = true
			}
		}
	}
	var union int
	for _, m := range member {
		if m {
			union++
		}
	}
	q := baselines.Quota{
		Reserve:    float64(union) / float64(test.N()),
		MemberCols: schoolBinaryCols,
	}
	sel, err := q.Select(test, testEval.BaseScores(), k)
	if err != nil {
		t.Fatal(err)
	}
	return metrics.Norm(metrics.Disparity(test, sel))
}

// Figure 5's claim: disparity decreases (weakly) as the bonus cap rises,
// then plateaus.
func TestCapsMonotone(t *testing.T) {
	env := shapeEnv(t)
	train, err := env.Train()
	if err != nil {
		t.Fatal(err)
	}
	testEval, err := env.TestEval()
	if err != nil {
		t.Fatal(err)
	}
	points := metrics.DefaultPoints(0.01, 0.05)
	obj := core.LogDiscounted{Points: points, Metric: core.DisparityMetric{}}
	ld := metrics.LogDiscount{Points: points}
	var prev float64 = 10
	for _, capVal := range []float64{2.5, 7.5, 15} {
		opts := env.SchoolOptions(0.01)
		opts.MaxBonus = capVal
		res, err := core.Run(train, env.SchoolScorer(), obj, opts)
		if err != nil {
			t.Fatal(err)
		}
		disc, err := testEval.LogDiscounted(res.Bonus, ld)
		if err != nil {
			t.Fatal(err)
		}
		norm := metrics.Norm(disc)
		if norm > prev+0.03 {
			t.Errorf("cap %v worsened discounted norm: %.3f after %.3f", capVal, norm, prev)
		}
		for _, b := range res.Bonus {
			if b > capVal {
				t.Errorf("bonus %v exceeds cap %v", b, capVal)
			}
		}
		prev = norm
	}
}

// Table II's claim: DCA beats Multinomial FA*IR, and both beat the
// baseline.
func TestTable2Ordering(t *testing.T) {
	env := shapeEnv(t)
	r, err := Table2(env)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "passes all prefixes") {
		t.Errorf("FA*IR verification did not pass:\n%s", out)
	}
}
