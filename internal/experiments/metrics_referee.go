package experiments

import (
	"fairrank/internal/metrics"
	"fairrank/internal/report"
)

// AblationReferee evaluates the Table I bonus vector under the external
// rank-fairness measures of Yang & Stoyanovich (the paper's reference [3]
// and the source of its log-discounting): rND, rKL and rRD per binary
// fairness attribute, before and after compensation, on the test cohort.
// A vector trained purely on the disparity objective should also shrink
// these independent referees.
func AblationReferee(env *Env) (Renderable, error) {
	const k = 0.05
	testEval, err := env.TestEval()
	if err != nil {
		return nil, err
	}
	res, err := env.DCAAtK(k)
	if err != nil {
		return nil, err
	}
	test := testEval.Dataset()
	ys := metrics.YangStoyanovich{Points: metrics.DefaultPoints(0.1, 1)}
	before, err := testEval.Order(nil)
	if err != nil {
		return nil, err
	}
	after, err := testEval.Order(res.Bonus)
	if err != nil {
		return nil, err
	}

	t := &report.Table{
		Title:   "Ablation: external referees (Yang & Stoyanovich rND/rKL/rRD), test cohort",
		Headers: []string{"attribute", "rND before", "rND after", "rKL before", "rKL after", "rRD before", "rRD after"},
	}
	for _, col := range schoolBinaryCols {
		name := test.FairNames()[col]
		var vals []float64
		for _, pair := range []struct {
			f     func(order []int) (float64, error)
			order []int
		}{
			{func(o []int) (float64, error) { return ys.RND(test, o, col) }, before},
			{func(o []int) (float64, error) { return ys.RND(test, o, col) }, after},
			{func(o []int) (float64, error) { return ys.RKL(test, o, col) }, before},
			{func(o []int) (float64, error) { return ys.RKL(test, o, col) }, after},
			{func(o []int) (float64, error) { return ys.RRD(test, o, col) }, before},
			{func(o []int) (float64, error) { return ys.RRD(test, o, col) }, after},
		} {
			v, err := pair.f(pair.order)
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
		}
		t.AddFloatRow(name, vals...)
	}
	return t, nil
}
