package experiments

import (
	"context"
	"fmt"
	"math"

	"fairrank/internal/core"
	"fairrank/internal/metrics"
	"fairrank/internal/rank"
	"fairrank/internal/report"
	"fairrank/internal/sample"
)

// AblationSampleSize sweeps DCA's sample size at k = 5% and reports the
// achieved test disparity and the training wall-clock, validating the
// paper's claim that accuracy is governed by the sample-size bound
// max(1/k, 1/r) — beyond it, larger samples buy time, not fairness.
func AblationSampleSize(env *Env) (Renderable, error) {
	const k = 0.05
	train, err := env.Train()
	if err != nil {
		return nil, err
	}
	testEval, err := env.TestEval()
	if err != nil {
		return nil, err
	}
	sizes := []float64{50, 100, 250, 500, 1000, 2000}
	s := &report.Series{Title: "Ablation: DCA sample size vs achieved disparity (test cohort, k=5%)", XName: "sample-size", X: sizes}
	var norms, secs []float64
	for _, size := range sizes {
		opts := env.SchoolOptions(k)
		opts.SampleSize = int(size)
		res, err := core.Run(train, env.SchoolScorer(), core.DisparityObjective(k), opts)
		if err != nil {
			return nil, err
		}
		disp, err := testEval.DisparityCtx(context.Background(), res.Bonus, k)
		if err != nil {
			return nil, err
		}
		norms = append(norms, metrics.Norm(disp))
		secs = append(secs, res.Elapsed.Seconds())
	}
	s.Add("disparity-norm", norms)
	s.Add("train-seconds", secs)
	return s, nil
}

// AblationStability quantifies the seed-to-seed variability of Core DCA vs
// refined DCA across an 8-seed ensemble — the Section VI-A5 claim that the
// refinement pass produces smoother, more consistent vectors.
func AblationStability(env *Env) (Renderable, error) {
	const k, runs = 0.05, 8
	train, err := env.Train()
	if err != nil {
		return nil, err
	}
	names := train.FairNames()
	opts := env.SchoolOptions(k)

	refined, err := core.Ensemble(train, env.SchoolScorer(), core.DisparityObjective(k), opts, runs)
	if err != nil {
		return nil, err
	}
	coreOpts := opts
	coreOpts.RefineSteps = 0
	unrefined, err := core.Ensemble(train, env.SchoolScorer(), core.DisparityObjective(k), coreOpts, runs)
	if err != nil {
		return nil, err
	}

	t := &report.Table{
		Title:   fmt.Sprintf("Ablation: bonus-vector stability across %d seeds (k=5%%)", runs),
		Headers: append([]string{""}, names...),
	}
	t.AddFloatRow("Core DCA mean", unrefined.Mean...)
	t.AddFloatRow("Core DCA std", unrefined.Std...)
	t.AddFloatRow("DCA mean", refined.Mean...)
	t.AddFloatRow("DCA std", refined.Std...)
	return t, nil
}

// AblationEstimator validates Theorem 4.5 empirically: the sample disparity
// of the top-5% selection is an unbiased estimator of the full-dataset
// disparity, with standard error shrinking as the sample grows. Reported
// for the Low-Income dimension on the training cohort, 200 samples per
// size.
func AblationEstimator(env *Env) (Renderable, error) {
	const k, trials = 0.05, 200
	train, err := env.Train()
	if err != nil {
		return nil, err
	}
	trainEval, err := env.TrainEval()
	if err != nil {
		return nil, err
	}
	truth, err := trainEval.DisparityCtx(context.Background(), nil, k)
	if err != nil {
		return nil, err
	}
	base := trainEval.BaseScores()

	sizes := []float64{100, 300, 500, 1000, 3000}
	s := &report.Series{
		Title: fmt.Sprintf("Ablation: sample disparity as estimator (Low-Income, truth=%s, %d samples/size)",
			report.Float(truth[0]), trials),
		XName: "sample-size", X: sizes,
	}
	var means, stds []float64
	smp := sample.New(train.N(), env.Cfg.Seed)
	obj := core.DisparityObjective(k)
	zero := make([]float64, train.NumFair())
	for _, size := range sizes {
		n := int(size)
		eff := make([]float64, n)
		var sum, sumSq float64
		for tr := 0; tr < trials; tr++ {
			idx := smp.Uniform(n)
			rank.EffectiveScores(train, base, idx, zero, rank.Beneficial, eff)
			v, err := obj.Eval(train, idx, eff)
			if err != nil {
				return nil, err
			}
			sum += v[0]
			sumSq += v[0] * v[0]
		}
		mean := sum / trials
		variance := (sumSq - trials*mean*mean) / (trials - 1)
		if variance < 0 {
			variance = 0
		}
		means = append(means, mean)
		stds = append(stds, math.Sqrt(variance))
	}
	s.Add("estimate-mean", means)
	s.Add("estimate-std", stds)
	return s, nil
}
