package experiments

import (
	"context"
	"fmt"

	"fairrank/internal/baselines"
	"fairrank/internal/core"
	"fairrank/internal/dataset"
	"fairrank/internal/metrics"
	"fairrank/internal/rank"
	"fairrank/internal/report"
)

// schoolBinaryCols are the binary fairness columns of the school datasets
// (Low-Income, ELL, Special-Ed), excluding the continuous ENI.
var schoolBinaryCols = []int{0, 1, 3}

// Fig6 reproduces Figure 6: the disparity reduction achieved by the
// real-world single-quota system — one set-aside shared by every
// disadvantaged dimension, sized at the population share of the
// disadvantaged union.
func Fig6(env *Env) (Renderable, error) {
	test, err := env.Test()
	if err != nil {
		return nil, err
	}
	testEval, err := env.TestEval()
	if err != nil {
		return nil, err
	}
	// Reserve seats in proportion to the disadvantaged union share.
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
	reserve := float64(union) / float64(test.N())
	q := baselines.Quota{Reserve: reserve, MemberCols: schoolBinaryCols}

	names := test.FairNames()
	s := &report.Series{
		Title: fmt.Sprintf("Figure 6: single-quota baseline across k (reserve=%.2f, test cohort)", reserve),
		XName: "k", X: env.Cfg.KSweep,
	}
	origOrder, err := testEval.Order(nil) // cached: one ranking for every k
	if err != nil {
		return nil, err
	}
	series := make([][]float64, len(names)+1)
	for _, k := range env.Cfg.KSweep {
		sel, err := q.SelectOrdered(test, origOrder, k)
		if err != nil {
			return nil, err
		}
		disp := metrics.Disparity(test, sel)
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

// cellTypes flattens the binary fairness attributes of each object into a
// Cartesian-product cell id (LSB = first listed column).
func cellTypes(d *dataset.Dataset, cols []int) []int {
	types := make([]int, d.N())
	for bit, c := range cols {
		col := d.FairColumn(c)
		for i, v := range col {
			if v > 0.5 {
				types[i] |= 1 << bit
			}
		}
	}
	return types
}

// Fig7 reproduces Figure 7: the accuracy-vs-disparity frontier of DCA
// against the (Δ+2)-approximation of Celis et al. For every bonus
// proportion w, the (Δ+2) greedy receives the selection composition DCA
// achieves at w as its fairness caps ("we gave (Δ+2) the disparity
// achieved by DCA as its input preset fairness constraint"), so both
// systems target the same fairness level and differ only in utility and
// mechanism. Run on the training cohort like the paper.
func Fig7(env *Env) (Renderable, error) {
	const k = 0.05
	train, err := env.Train()
	if err != nil {
		return nil, err
	}
	trainEval, err := env.TrainEval()
	if err != nil {
		return nil, err
	}
	res, err := env.DCAAtK(k)
	if err != nil {
		return nil, err
	}
	types := cellTypes(train, schoolBinaryCols)
	nCells := 1 << len(schoolBinaryCols)
	origOrder, err := trainEval.Order(nil)
	if err != nil {
		return nil, err
	}
	base := trainEval.BaseScores()
	tau, err := rank.SelectCount(train.N(), k)
	if err != nil {
		return nil, err
	}
	typesInOrder := make([]int, len(origOrder))
	for pos, obj := range origOrder {
		typesInOrder[pos] = types[obj]
	}

	s := &report.Series{Title: "Figure 7: accuracy vs disparity, DCA and (Δ+2)-approximation (training cohort, k=5%)", XName: "proportion", X: env.Cfg.WSweep}
	var dcaNorm, dcaNDCG, celisNorm, celisNDCG []float64
	for _, w := range env.Cfg.WSweep {
		scaled := core.Scale(res.Bonus, w, 0.5)
		sel, err := trainEval.SelectCtx(context.Background(), scaled, k)
		if err != nil {
			return nil, err
		}
		disp := metrics.Disparity(train, sel)
		dcaNorm = append(dcaNorm, metrics.Norm(disp))
		u, err := trainEval.NDCGCtx(context.Background(), scaled, k)
		if err != nil {
			return nil, err
		}
		dcaNDCG = append(dcaNDCG, u)

		// Caps = DCA's achieved per-cell composition.
		caps := make([]int, nCells)
		for _, i := range sel {
			caps[types[i]]++
		}
		greedy := baselines.CelisGreedy{Caps: caps}
		positions, err := greedy.ReRank(typesInOrder, tau)
		if err != nil {
			return nil, err
		}
		celisSel := make([]int, len(positions))
		for r, p := range positions {
			celisSel[r] = origOrder[p]
		}
		cd := metrics.Disparity(train, celisSel)
		celisNorm = append(celisNorm, metrics.Norm(cd))
		// nDCG of the re-ranked selection against the unconstrained top-tau.
		got := metrics.DCG(base, celisSel, tau)
		ideal := metrics.DCG(base, origOrder, tau)
		celisNDCG = append(celisNDCG, got/ideal)
	}
	s.Add("DCA-norm", dcaNorm)
	s.Add("Celis-norm", celisNorm)
	s.Add("DCA-nDCG", dcaNDCG)
	s.Add("Celis-nDCG", celisNDCG)
	return s, nil
}

// Fig9 reproduces Figure 9: DCA optimizing Disparity vs optimizing the
// scaled Disparate Impact (Section VI-C5), both in log-discounted mode on
// the binary school attributes (ENI dropped: DI is a group metric). Each
// trained vector is then evaluated across k on both metrics.
func Fig9(env *Env) (Renderable, error) {
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
	opts := env.SchoolOptions(0.1)

	dispObj := core.LogDiscounted{Points: metrics.DefaultPoints(0.1, 0.5), Metric: core.DisparityMetric{}}
	diObj := core.LogDiscounted{Points: metrics.DefaultPoints(0.1, 0.5), Metric: core.DisparateImpactMetric{}}
	dispRes, err := core.Run(trainView, scorer, dispObj, opts)
	if err != nil {
		return nil, err
	}
	diRes, err := core.Run(trainView, scorer, diObj, opts)
	if err != nil {
		return nil, err
	}

	ev := core.NewEvaluator(testView, scorer, rank.Beneficial)
	s := &report.Series{Title: "Figure 9: disparity norm and disparate impact, optimizing either metric (test cohort)", XName: "k", X: env.Cfg.KSweep}
	// Both trained vectors at every k, evaluated on the parallel sweep
	// layer: points alternate (disparity-trained, DI-trained) per k.
	points := make([]core.SweepPoint, 0, 2*len(env.Cfg.KSweep))
	for _, k := range env.Cfg.KSweep {
		points = append(points,
			core.SweepPoint{Bonus: dispRes.Bonus, K: k},
			core.SweepPoint{Bonus: diRes.Bonus, K: k})
	}
	disps, err := ev.DisparitySweepCtx(context.Background(), points)
	if err != nil {
		return nil, err
	}
	impacts, err := ev.DisparateImpactSweepCtx(context.Background(), points)
	if err != nil {
		return nil, err
	}
	var ddNorm, ddDI, diNorm, diDI []float64
	for i := 0; i < len(points); i += 2 {
		ddNorm = append(ddNorm, metrics.Norm(disps[i]))
		ddDI = append(ddDI, metrics.Norm(impacts[i]))
		diNorm = append(diNorm, metrics.Norm(disps[i+1]))
		diDI = append(diDI, metrics.Norm(impacts[i+1]))
	}
	s.Add("DCA(disparity):disparity-norm", ddNorm)
	s.Add("DCA(disparity):DI-norm", ddDI)
	s.Add("DCA(DI):disparity-norm", diNorm)
	s.Add("DCA(DI):DI-norm", diDI)

	vec := &report.Table{Title: "Trained bonus vectors", Headers: append([]string{"objective"}, trainView.FairNames()...)}
	vec.AddFloatRow("disparity", dispRes.Bonus...)
	vec.AddFloatRow("disparate-impact", diRes.Bonus...)
	return Multi{s, vec}, nil
}
