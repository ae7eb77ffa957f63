package experiments

import (
	"context"
	"time"

	"fairrank/internal/core"
	"fairrank/internal/metrics"
	"fairrank/internal/optimize"
	"fairrank/internal/report"
)

// AblationOptimizer reproduces the argument of the paper's challenge #4:
// derivative-free optimizers must re-rank the whole dataset at every
// objective evaluation, while DCA touches only small samples. It runs
// Nelder-Mead on the exact full-dataset objective
// norm(disparity@5%) and compares evaluations, full-dataset-re-rank
// equivalents, wall-clock time and achieved disparity against DCA.
func AblationOptimizer(env *Env) (Renderable, error) {
	const k = 0.05
	trainEval, err := env.TrainEval()
	if err != nil {
		return nil, err
	}
	n := trainEval.Dataset().N()
	dims := trainEval.Dataset().NumFair()

	// Nelder-Mead over the full-dataset objective.
	nmStart := time.Now()
	obj := func(b []float64) float64 {
		disp, err := trainEval.DisparityCtx(context.Background(), b, k)
		if err != nil {
			return 1
		}
		return metrics.Norm(disp)
	}
	nm := optimize.NelderMead(obj, make([]float64, dims), optimize.NelderMeadOptions{
		MaxIterations: 300,
		InitialStep:   5,
		Tolerance:     1e-4,
		Lower:         make([]float64, dims),
	})
	nmElapsed := time.Since(nmStart)
	nmBonus := core.RoundTo(append([]float64(nil), nm.X...), 0.5)
	nmDisp, err := trainEval.DisparityCtx(context.Background(), nmBonus, k)
	if err != nil {
		return nil, err
	}

	// DCA with the paper's settings.
	dcaRes, err := env.DCAAtK(k)
	if err != nil {
		return nil, err
	}
	dcaDisp, err := trainEval.DisparityCtx(context.Background(), dcaRes.Bonus, k)
	if err != nil {
		return nil, err
	}
	opts := env.SchoolOptions(k)
	// Objects touched per DCA run, expressed as full-dataset re-rank
	// equivalents.
	dcaEquiv := float64(dcaRes.Steps*opts.SampleSize) / float64(n)

	t := &report.Table{
		Title:   "Ablation: DCA vs derivative-free optimization (Nelder-Mead), disparity@5%, training cohort",
		Headers: []string{"method", "disparity-norm", "full-re-rank-equivalents", "wall-clock-s", "converged"},
	}
	t.AddRow("DCA", report.Float(metrics.Norm(dcaDisp)), report.Float(dcaEquiv), report.Float(dcaRes.Elapsed.Seconds()), "n/a")
	conv := "false"
	if nm.Converged {
		conv = "true"
	}
	t.AddRow("Nelder-Mead", report.Float(metrics.Norm(nmDisp)), report.Float(float64(nm.Evaluations)), report.Float(nmElapsed.Seconds()), conv)
	return t, nil
}
