package experiments

import (
	"context"
	"fairrank/internal/baselines"
	"fairrank/internal/core"
	"fairrank/internal/metrics"
	"fairrank/internal/rank"
	"fairrank/internal/report"
)

// Table2 reproduces Table II: DCA against Multinomial FA*IR on a single
// 2,500-student district, over the three binary fairness attributes
// (Low-Income, ELL, Special-Ed). FA*IR needs non-overlapping groups, so —
// following the paper and Zehlike et al.'s suggestion — the three
// most-discriminated cells of the Cartesian attribute product become the
// protected groups.
func Table2(env *Env) (Renderable, error) {
	const k, alpha = 0.05, 0.10
	district, err := env.District()
	if err != nil {
		return nil, err
	}
	view := district.WithFairColumns(schoolBinaryCols)
	scorer := env.SchoolScorer()
	ev := core.NewEvaluator(view, scorer, rank.Beneficial)
	tau, err := rank.SelectCount(view.N(), k)
	if err != nil {
		return nil, err
	}

	baseline, err := ev.DisparityCtx(context.Background(), nil, k)
	if err != nil {
		return nil, err
	}

	// DCA on the district, binary attributes only (like Table II's rubric).
	opts := env.SchoolOptions(k)
	dcaRes, err := core.Run(view, scorer, core.DisparityObjective(k), opts)
	if err != nil {
		return nil, err
	}
	dcaDisp, err := ev.DisparityCtx(context.Background(), dcaRes.Bonus, k)
	if err != nil {
		return nil, err
	}

	// Multinomial FA*IR: protected groups = 3 most-discriminated cells of
	// the attribute Cartesian product under the uncorrected selection.
	memberships := make([][]bool, view.N())
	for i := range memberships {
		m := make([]bool, view.NumFair())
		for j := range m {
			m[j] = view.Fair(i, j) > 0.5
		}
		memberships[i] = m
	}
	baseSel, err := ev.SelectCtx(context.Background(), nil, k)
	if err != nil {
		return nil, err
	}
	selected := make([]bool, view.N())
	for _, i := range baseSel {
		selected[i] = true
	}
	cells := baselines.RankCellsByDisparity(memberships, selected)
	if len(cells) > 3 {
		cells = cells[:3]
	}
	groups := baselines.SubgroupAssignment(memberships, cells)

	// Population proportions per group (group 0 = everyone else).
	props := make([]float64, len(cells)+1)
	for _, g := range groups {
		props[g] += 1 / float64(len(groups))
	}
	fa := baselines.FAStarIR{Proportions: props, Alpha: alpha}

	origOrder, err := ev.Order(nil)
	if err != nil {
		return nil, err
	}
	groupsInOrder := make([]int, len(origOrder))
	for pos, obj := range origOrder {
		groupsInOrder[pos] = groups[obj]
	}
	positions, err := fa.ReRank(groupsInOrder, tau)
	if err != nil {
		return nil, err
	}
	faSel := make([]int, len(positions))
	faGroups := make([]int, len(positions))
	for r, p := range positions {
		faSel[r] = origOrder[p]
		faGroups[r] = groupsInOrder[p]
	}
	failAt, err := fa.Verify(faGroups)
	if err != nil {
		return nil, err
	}
	faDisp := metrics.Disparity(view, faSel)

	// Binomial FA*IR protecting Low-Income only — the single-group
	// predecessor, shown to document why the paper needs multi-dimensional
	// methods: the unprotected dimensions stay disparate.
	liCol := view.FairIndex("Low-Income")
	liShare := view.FairCentroid()[liCol]
	binFair := baselines.FAIR{P: liShare, Alpha: alpha}
	_, binM, err := binFair.AdjustAlpha(tau)
	if err != nil {
		return nil, err
	}
	protectedInOrder := make([]bool, len(origOrder))
	for pos, obj := range origOrder {
		protectedInOrder[pos] = view.Fair(obj, liCol) > 0.5
	}
	binPositions, err := binFair.ReRank(protectedInOrder, tau, binM)
	if err != nil {
		return nil, err
	}
	binSel := make([]int, len(binPositions))
	for r, p := range binPositions {
		binSel[r] = origOrder[p]
	}
	binDisp := metrics.Disparity(view, binSel)

	headers := append([]string{""}, view.FairNames()...)
	headers = append(headers, "Norm")
	t := &report.Table{Title: "Table II: DCA vs Multinomial FA*IR (single district, 2,500 students, k=5%)", Headers: headers}
	t.AddFloatRow("Baseline", append(append([]float64(nil), baseline...), metrics.Norm(baseline))...)
	t.Rows = append(t.Rows, append([]string{"Bonus Points"}, floatCellsNoNorm(dcaRes.Bonus)...))
	t.AddFloatRow("DCA", append(append([]float64(nil), dcaDisp...), metrics.Norm(dcaDisp))...)
	t.AddFloatRow("Mult. FA*IR", append(append([]float64(nil), faDisp...), metrics.Norm(faDisp))...)
	t.AddFloatRow("Binom. FA*IR (Low-Inc only)", append(append([]float64(nil), binDisp...), metrics.Norm(binDisp))...)
	if failAt == 0 {
		t.AddRow("FA*IR multinomial test", "passes all prefixes")
	} else {
		t.AddRow("FA*IR multinomial test", "fails at prefix "+report.Float(float64(failAt)))
	}
	return t, nil
}
