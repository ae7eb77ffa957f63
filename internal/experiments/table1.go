package experiments

import (
	"context"
	"io"

	"fairrank/internal/core"
	"fairrank/internal/metrics"
	"fairrank/internal/report"
)

// Table1Result reproduces Table I: the disparity vectors of the NYC high
// schools data before and after bonus points, for Core DCA and refined
// DCA, on the training and test cohorts, at the paper's default 5%
// selection.
type Table1Result struct {
	Names         []string
	BaselineTrain []float64
	BaselineTest  []float64

	CoreBonus []float64
	CoreTrain []float64
	CoreTest  []float64

	DCABonus []float64
	DCATrain []float64
	DCATest  []float64
}

// Table1 runs the experiment at k = 5%.
func Table1(env *Env) (Renderable, error) {
	const k = 0.05
	trainEval, err := env.TrainEval()
	if err != nil {
		return nil, err
	}
	testEval, err := env.TestEval()
	if err != nil {
		return nil, err
	}
	res := &Table1Result{Names: trainEval.Dataset().FairNames()}
	if res.BaselineTrain, err = trainEval.DisparityCtx(context.Background(), nil, k); err != nil {
		return nil, err
	}
	if res.BaselineTest, err = testEval.DisparityCtx(context.Background(), nil, k); err != nil {
		return nil, err
	}

	coreRes, err := env.CoreDCAAtK(k)
	if err != nil {
		return nil, err
	}
	res.CoreBonus = core.RoundTo(append([]float64(nil), coreRes.Raw...), 0.5)
	if res.CoreTrain, err = trainEval.DisparityCtx(context.Background(), res.CoreBonus, k); err != nil {
		return nil, err
	}
	if res.CoreTest, err = testEval.DisparityCtx(context.Background(), res.CoreBonus, k); err != nil {
		return nil, err
	}

	dcaRes, err := env.DCAAtK(k)
	if err != nil {
		return nil, err
	}
	res.DCABonus = dcaRes.Bonus
	if res.DCATrain, err = trainEval.DisparityCtx(context.Background(), res.DCABonus, k); err != nil {
		return nil, err
	}
	if res.DCATest, err = testEval.DisparityCtx(context.Background(), res.DCABonus, k); err != nil {
		return nil, err
	}
	return res, nil
}

// Render implements Renderable with the three-section layout of Table I.
func (r *Table1Result) Render(w io.Writer) error {
	headers := append([]string{""}, r.Names...)
	headers = append(headers, "Norm")

	section := func(title string, rows ...[2]interface{}) *report.Table {
		t := &report.Table{Title: title, Headers: headers}
		for _, row := range rows {
			label := row[0].(string)
			vec := row[1].([]float64)
			vals := append(append([]float64(nil), vec...), metrics.Norm(vec))
			t.AddFloatRow(label, vals...)
		}
		return t
	}
	bonusRow := func(t *report.Table, b []float64) {
		cells := append([]float64(nil), b...)
		t.Rows = append(t.Rows, append([]string{"Bonus Points"}, floatCellsNoNorm(cells)...))
	}

	base := section("Baseline Disparity (top 5%)",
		[2]interface{}{"Training", r.BaselineTrain},
		[2]interface{}{"Test", r.BaselineTest},
	)
	coreT := &report.Table{Title: "Core DCA", Headers: headers}
	bonusRow(coreT, r.CoreBonus)
	coreT.AddFloatRow("Training", append(append([]float64(nil), r.CoreTrain...), metrics.Norm(r.CoreTrain))...)
	coreT.AddFloatRow("Test", append(append([]float64(nil), r.CoreTest...), metrics.Norm(r.CoreTest))...)

	dcaT := &report.Table{Title: "DCA (with refinement)", Headers: headers}
	bonusRow(dcaT, r.DCABonus)
	dcaT.AddFloatRow("Training", append(append([]float64(nil), r.DCATrain...), metrics.Norm(r.DCATrain))...)
	dcaT.AddFloatRow("Test", append(append([]float64(nil), r.DCATest...), metrics.Norm(r.DCATest))...)

	return Multi{base, coreT, dcaT}.Render(w)
}

func floatCellsNoNorm(vals []float64) []string {
	cells := make([]string, 0, len(vals)+1)
	for _, v := range vals {
		cells = append(cells, report.Float(v))
	}
	cells = append(cells, "-")
	return cells
}
