package experiments

import (
	"context"
	"fairrank/internal/core"
	"fairrank/internal/metrics"
	"fairrank/internal/report"
)

// Fig1 reproduces Figure 1: nDCG@k on the test cohort for varying
// selection fraction k, each k served by the vector DCA trained for it.
func Fig1(env *Env) (Renderable, error) {
	testEval, err := env.TestEval()
	if err != nil {
		return nil, err
	}
	s := &report.Series{Title: "Figure 1: nDCG@k on the school test cohort", XName: "k", X: env.Cfg.KSweep}
	points := make([]core.SweepPoint, 0, len(env.Cfg.KSweep))
	for _, k := range env.Cfg.KSweep {
		res, err := env.DCAAtK(k)
		if err != nil {
			return nil, err
		}
		points = append(points, core.SweepPoint{Bonus: res.Bonus, K: k})
	}
	ndcg, err := testEval.NDCGSweepCtx(context.Background(), points)
	if err != nil {
		return nil, err
	}
	s.Add("nDCG", ndcg)
	return s, nil
}

// Fig2 reproduces Figure 2: nDCG@0.05 and disparity norm on the test
// cohort as the DCA bonus vector is proportionally scaled down.
func Fig2(env *Env) (Renderable, error) {
	const k = 0.05
	testEval, err := env.TestEval()
	if err != nil {
		return nil, err
	}
	res, err := env.DCAAtK(k)
	if err != nil {
		return nil, err
	}
	s := &report.Series{Title: "Figure 2: utility vs disparity across bonus proportion (test cohort, k=5%)", XName: "proportion", X: env.Cfg.WSweep}
	points := make([]core.SweepPoint, len(env.Cfg.WSweep))
	for i, w := range env.Cfg.WSweep {
		points[i] = core.SweepPoint{Bonus: core.Scale(res.Bonus, w, 0.5), K: k}
	}
	disps, err := testEval.DisparitySweepCtx(context.Background(), points)
	if err != nil {
		return nil, err
	}
	ndcgs, err := testEval.NDCGSweepCtx(context.Background(), points)
	if err != nil {
		return nil, err
	}
	norms := make([]float64, len(disps))
	for i, disp := range disps {
		norms[i] = metrics.Norm(disp)
	}
	s.Add("disparity-norm", norms)
	s.Add("nDCG", ndcgs)
	return s, nil
}

// Fig3 reproduces Figure 3: the per-dimension disparity breakdown across
// the bonus proportion (the 0.5-point granularity gives the series its
// step shape).
func Fig3(env *Env) (Renderable, error) {
	const k = 0.05
	testEval, err := env.TestEval()
	if err != nil {
		return nil, err
	}
	res, err := env.DCAAtK(k)
	if err != nil {
		return nil, err
	}
	names := testEval.Dataset().FairNames()
	s := &report.Series{Title: "Figure 3: per-dimension disparity across bonus proportion (test cohort, k=5%)", XName: "proportion", X: env.Cfg.WSweep}
	points := make([]core.SweepPoint, len(env.Cfg.WSweep))
	for i, w := range env.Cfg.WSweep {
		points[i] = core.SweepPoint{Bonus: core.Scale(res.Bonus, w, 0.5), K: k}
	}
	disps, err := testEval.DisparitySweepCtx(context.Background(), points)
	if err != nil {
		return nil, err
	}
	series := make([][]float64, len(names)+1)
	for _, disp := range disps {
		for j := range names {
			series[j] = append(series[j], disp[j])
		}
		series[len(names)] = append(series[len(names)], metrics.Norm(disp))
	}
	for j, n := range names {
		s.Add(n, series[j])
	}
	s.Add("Norm", series[len(names)])
	return s, nil
}

// disparitySweep evaluates a per-k bonus supplier across the k sweep on
// the evaluator's parallel sweep layer and returns per-dimension + norm
// series. bonusFor runs sequentially (it may train memoized vectors); only
// the evaluations fan out.
func disparitySweep(env *Env, ev *core.Evaluator, bonusFor func(k float64) ([]float64, error)) (map[string][]float64, error) {
	names := ev.Dataset().FairNames()
	points := make([]core.SweepPoint, 0, len(env.Cfg.KSweep))
	for _, k := range env.Cfg.KSweep {
		b, err := bonusFor(k)
		if err != nil {
			return nil, err
		}
		points = append(points, core.SweepPoint{Bonus: b, K: k})
	}
	disps, err := ev.DisparitySweepCtx(context.Background(), points)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]float64, len(names)+1)
	for _, disp := range disps {
		for j, n := range names {
			out[n] = append(out[n], disp[j])
		}
		out["Norm"] = append(out["Norm"], metrics.Norm(disp))
	}
	return out, nil
}

func addDisparitySeries(s *report.Series, names []string, m map[string][]float64, prefix string) {
	for _, n := range names {
		s.Add(prefix+n, m[n])
	}
	s.Add(prefix+"Norm", m["Norm"])
}

// Fig4a reproduces Figure 4a: disparity across k when k is known in
// advance — DCA retrained per k — together with the uncorrected baseline
// (the paper's dashed lines), evaluated on the test cohort.
func Fig4a(env *Env) (Renderable, error) {
	testEval, err := env.TestEval()
	if err != nil {
		return nil, err
	}
	names := testEval.Dataset().FairNames()
	s := &report.Series{Title: "Figure 4a: disparity across k, k known (retrained per k, test cohort)", XName: "k", X: env.Cfg.KSweep}
	baseline, err := disparitySweep(env, testEval, func(float64) ([]float64, error) { return nil, nil })
	if err != nil {
		return nil, err
	}
	addDisparitySeries(s, names, baseline, "base:")
	after, err := disparitySweep(env, testEval, func(k float64) ([]float64, error) {
		res, err := env.DCAAtK(k)
		if err != nil {
			return nil, err
		}
		return res.Bonus, nil
	})
	if err != nil {
		return nil, err
	}
	addDisparitySeries(s, names, after, "dca:")
	return s, nil
}

// Fig4b reproduces Figure 4b: disparity across all k when the bonus vector
// was optimized for k = 5% only.
func Fig4b(env *Env) (Renderable, error) {
	testEval, err := env.TestEval()
	if err != nil {
		return nil, err
	}
	res, err := env.DCAAtK(0.05)
	if err != nil {
		return nil, err
	}
	s := &report.Series{Title: "Figure 4b: disparity across k, vector trained at k=5% (test cohort)", XName: "k", X: env.Cfg.KSweep}
	after, err := disparitySweep(env, testEval, func(float64) ([]float64, error) { return res.Bonus, nil })
	if err != nil {
		return nil, err
	}
	addDisparitySeries(s, testEval.Dataset().FairNames(), after, "")
	return s, nil
}

// Fig4c reproduces Figure 4c: disparity across k under the logarithmically
// discounted training mode (points 0.1..0.5).
func Fig4c(env *Env) (Renderable, error) {
	testEval, err := env.TestEval()
	if err != nil {
		return nil, err
	}
	res, err := env.LogDiscDCA()
	if err != nil {
		return nil, err
	}
	s := &report.Series{Title: "Figure 4c: disparity across k, log-discounted training (test cohort)", XName: "k", X: env.Cfg.KSweep}
	after, err := disparitySweep(env, testEval, func(float64) ([]float64, error) { return res.Bonus, nil })
	if err != nil {
		return nil, err
	}
	addDisparitySeries(s, testEval.Dataset().FairNames(), after, "")
	return s, nil
}

// Fig5 reproduces Figure 5: the log-discounted disparity (points
// 0.01..0.05, weighting the very top of the ranking) as a function of the
// maximum number of bonus points DCA may allocate per dimension.
func Fig5(env *Env) (Renderable, error) {
	train, err := env.Train()
	if err != nil {
		return nil, err
	}
	testEval, err := env.TestEval()
	if err != nil {
		return nil, err
	}
	names := testEval.Dataset().FairNames()
	points := metrics.DefaultPoints(0.01, 0.05)
	obj := core.LogDiscounted{Points: points, Metric: core.DisparityMetric{}}
	ld := metrics.LogDiscount{Points: points}

	s := &report.Series{Title: "Figure 5: log-discounted disparity vs maximum bonus cap (test cohort)", XName: "max-bonus", X: env.Cfg.CapSweep}
	series := make([][]float64, len(names)+1)
	for _, capVal := range env.Cfg.CapSweep {
		opts := env.SchoolOptions(0.01)
		opts.MaxBonus = capVal
		if capVal == 0 {
			// A zero cap means "no bonus at all" for this sweep: report the
			// uncorrected baseline rather than an unbounded run.
			opts.MaxBonus = 1e-9
		}
		res, err := core.Run(train, env.SchoolScorer(), obj, opts)
		if err != nil {
			return nil, err
		}
		disc, err := testEval.LogDiscounted(res.Bonus, ld)
		if err != nil {
			return nil, err
		}
		for j := range names {
			series[j] = append(series[j], disc[j])
		}
		series[len(names)] = append(series[len(names)], metrics.Norm(disc))
	}
	for j, n := range names {
		s.Add(n, series[j])
	}
	s.Add("Norm", series[len(names)])
	return s, nil
}

// Fig8a reproduces Figure 8a: the per-k disparity of Core DCA (Algorithm 1
// without refinement), the rougher cousin of Figure 4a.
func Fig8a(env *Env) (Renderable, error) {
	testEval, err := env.TestEval()
	if err != nil {
		return nil, err
	}
	s := &report.Series{Title: "Figure 8a: disparity across k, Core DCA without refinement (test cohort)", XName: "k", X: env.Cfg.KSweep}
	after, err := disparitySweep(env, testEval, func(k float64) ([]float64, error) {
		res, err := env.CoreDCAAtK(k)
		if err != nil {
			return nil, err
		}
		return core.RoundTo(append([]float64(nil), res.Raw...), 0.5), nil
	})
	if err != nil {
		return nil, err
	}
	addDisparitySeries(s, testEval.Dataset().FairNames(), after, "")
	return s, nil
}

// Fig8b reproduces Figure 8b: wall-clock time of Core DCA vs refined DCA
// across k. Two extra small-k points (1%, 2%) are included because that is
// where the sample-size bound max(1/k, 1/r) drives the cost up.
func Fig8b(env *Env) (Renderable, error) {
	train, err := env.Train()
	if err != nil {
		return nil, err
	}
	ks := append([]float64{0.01, 0.02}, env.Cfg.KSweep...)
	s := &report.Series{Title: "Figure 8b: DCA wall-clock seconds across k", XName: "k", X: ks}
	var unrefined, refined []float64
	for _, k := range ks {
		opts := env.SchoolOptions(k)
		obj := core.DisparityObjective(k)
		cr, err := core.CoreDCA(train, env.SchoolScorer(), obj, opts)
		if err != nil {
			return nil, err
		}
		unrefined = append(unrefined, cr.Elapsed.Seconds())
		rr, err := core.Run(train, env.SchoolScorer(), obj, opts)
		if err != nil {
			return nil, err
		}
		refined = append(refined, rr.Elapsed.Seconds())
	}
	s.Add("Unrefined", unrefined)
	s.Add("Refined", refined)
	return s, nil
}
