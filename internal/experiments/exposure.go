package experiments

import (
	"fairrank/internal/core"
	"fairrank/internal/metrics"
	"fairrank/internal/rank"
	"fairrank/internal/report"
)

// Exposure reproduces Section VI-C4: the DDP (demographic disparity of
// per-capita exposure) of the school ranking before and after a
// log-discounted DCA vector, computed without the ENI attribute (DDP does
// not handle non-binary attributes). The paper reports a roughly five-fold
// DDP reduction (0.00899 -> 0.00166).
func Exposure(env *Env) (Renderable, error) {
	train, err := env.Train()
	if err != nil {
		return nil, err
	}
	test, err := env.Test()
	if err != nil {
		return nil, err
	}
	trainView := train.WithFairColumns(schoolBinaryCols)
	testView := test.WithFairColumns(schoolBinaryCols)
	scorer := env.SchoolScorer()

	obj := core.LogDiscounted{Points: metrics.DefaultPoints(0.1, 0.5), Metric: core.DisparityMetric{}}
	res, err := core.Run(trainView, scorer, obj, env.SchoolOptions(0.1))
	if err != nil {
		return nil, err
	}

	ev := core.NewEvaluator(testView, scorer, rank.Beneficial)
	allCols := make([]int, testView.NumFair())
	for j := range allCols {
		allCols[j] = j
	}
	baseOrder, err := ev.Order(nil)
	if err != nil {
		return nil, err
	}
	before, err := metrics.DDP(testView, baseOrder, allCols)
	if err != nil {
		return nil, err
	}
	order, err := ev.Order(res.Bonus)
	if err != nil {
		return nil, err
	}
	after, err := metrics.DDP(testView, order, allCols)
	if err != nil {
		return nil, err
	}

	t := &report.Table{Title: "Exposure (Section VI-C4): DDP before/after log-discounted DCA (test cohort, no ENI)",
		Headers: []string{"", "DDP"}}
	t.AddRow("Baseline", report.Float6(before))
	t.AddRow("DCA", report.Float6(after))
	if after > 0 {
		t.AddRow("Reduction factor", report.Float(before/after))
	}
	vec := &report.Table{Title: "Bonus vector", Headers: testView.FairNames()}
	cells := make([]string, len(res.Bonus))
	for j, b := range res.Bonus {
		cells[j] = report.Float(b)
	}
	vec.AddRow(cells...)
	return Multi{t, vec}, nil
}
