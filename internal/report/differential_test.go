package report

import (
	"slices"
	"testing"

	"fairrank/internal/core"
	"fairrank/internal/rank"
)

// pointwiseBundle assembles the audit bundle exactly the way BuildBundle
// did before the BundleData rewrite: one independent pointwise evaluator
// call per quantity (Explain, AttributeDisparity, NDCG, FPRDiff, and a
// counterfactual batch over the boundary window of the full sorted
// order). It exists only as the differential reference; every field it
// produces must be reproduced bit for bit by the rank-once path.
func pointwiseBundle(t testing.TB, ev *core.Evaluator, cfg BundleConfig) *Bundle {
	t.Helper()
	d := ev.Dataset()
	margins := cfg.Margins
	if margins == 0 {
		margins = DefaultMargins
	}
	exp, err := ev.ExplainCtx(t.Context(), cfg.Bonus, cfg.K)
	if err != nil {
		t.Fatal(err)
	}
	att, err := ev.AttributeDisparity(cfg.Bonus, cfg.K)
	if err != nil {
		t.Fatal(err)
	}
	ndcg, err := ev.NDCGCtx(t.Context(), cfg.Bonus, cfg.K)
	if err != nil {
		t.Fatal(err)
	}
	b := &Bundle{
		Version:          BundleVersion,
		Dataset:          cfg.Dataset,
		N:                d.N(),
		Polarity:         ev.Polarity().String(),
		K:                cfg.K,
		Selected:         exp.Selected,
		Cutoff:           exp.Cutoff,
		BaseCutoff:       exp.BaseCutoff,
		NormBefore:       att.NormBase,
		NormAfter:        att.NormFull,
		NDCG:             ndcg,
		AdmittedCount:    len(exp.AdmittedByBonus),
		DisplacedCount:   len(exp.DisplacedByBonus),
		AdmittedByBonus:  capIDs(exp.AdmittedByBonus),
		DisplacedByBonus: capIDs(exp.DisplacedByBonus),
	}
	b.Policy = make([]PolicyLine, d.NumFair())
	for j := range b.Policy {
		b.Policy[j] = PolicyLine{
			Attribute:       exp.FairNames[j],
			Points:          cfg.Bonus[j],
			GroupSize:       d.GroupSize(j),
			SelectedWith:    exp.GroupCounts[j],
			SelectedWithout: exp.BaseGroupCounts[j],
			LeaveOneOutNorm: att.LeaveOneOut[j],
			Contribution:    att.Contribution[j],
		}
	}
	if cfg.IncludeFPR {
		if b.FPRDiff, err = ev.FPRDiff(cfg.Bonus, cfg.K); err != nil {
			t.Fatal(err)
		}
	}
	cnt, err := rank.SelectCount(d.N(), cfg.K)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := cnt-margins, cnt+margins
	if lo < 0 {
		lo = 0
	}
	if hi > d.N() {
		hi = d.N()
	}
	order, err := ev.Order(cfg.Bonus)
	if err != nil {
		t.Fatal(err)
	}
	window := order[lo:hi]
	cfs, err := ev.CounterfactualBatchCtx(t.Context(), cfg.Bonus, cfg.K, window)
	if err != nil {
		t.Fatal(err)
	}
	b.Margins = make([]MarginLine, len(cfs))
	for i, cf := range cfs {
		b.Margins[i] = MarginLine{
			Object:     cf.Object,
			Rank:       cf.Rank,
			Selected:   cf.Selected,
			Effective:  cf.Effective,
			ScoreDelta: cf.ScoreDelta,
			BonusDelta: cf.BonusDelta,
			Feasible:   cf.Feasible,
		}
	}
	return b
}

// requireBundlesIdentical compares two bundles field by field with exact
// (bit-level) float equality.
func requireBundlesIdentical(t *testing.T, got, want *Bundle) {
	t.Helper()
	if got.Version != want.Version || got.Dataset != want.Dataset || got.N != want.N ||
		got.Polarity != want.Polarity || got.K != want.K || got.Selected != want.Selected {
		t.Errorf("metadata: got %+v, want %+v", got, want)
	}
	if got.Cutoff != want.Cutoff || got.BaseCutoff != want.BaseCutoff {
		t.Errorf("cutoffs: got (%v, %v), want (%v, %v)", got.Cutoff, got.BaseCutoff, want.Cutoff, want.BaseCutoff)
	}
	if got.NormBefore != want.NormBefore || got.NormAfter != want.NormAfter || got.NDCG != want.NDCG {
		t.Errorf("norms: got (%v, %v, %v), want (%v, %v, %v)",
			got.NormBefore, got.NormAfter, got.NDCG, want.NormBefore, want.NormAfter, want.NDCG)
	}
	if !slices.Equal(got.Policy, want.Policy) {
		t.Errorf("policy: got %+v, want %+v", got.Policy, want.Policy)
	}
	if !slices.Equal(got.FPRDiff, want.FPRDiff) {
		t.Errorf("fpr: got %v, want %v", got.FPRDiff, want.FPRDiff)
	}
	if got.AdmittedCount != want.AdmittedCount || got.DisplacedCount != want.DisplacedCount ||
		!slices.Equal(got.AdmittedByBonus, want.AdmittedByBonus) ||
		!slices.Equal(got.DisplacedByBonus, want.DisplacedByBonus) {
		t.Errorf("beneficiaries: got %d/%d, want %d/%d",
			got.AdmittedCount, got.DisplacedCount, want.AdmittedCount, want.DisplacedCount)
	}
	if !slices.Equal(got.Margins, want.Margins) {
		t.Errorf("margins: got %+v, want %+v", got.Margins, want.Margins)
	}
}

// TestBuildBundleBitIdentical is the differential harness of the
// BundleData rewrite: on representative cohorts (outcomes, tied scores,
// adverse polarity, sparse bonus vectors, one-object populations) the
// rank-once BuildBundle must reproduce the one-evaluator-call-per-field
// assembly bit for bit.
func TestBuildBundleBitIdentical(t *testing.T) {
	cases := []struct {
		name     string
		n        int
		outcomes bool
		cfg      BundleConfig
	}{
		{"default margins", 900, true, BundleConfig{Dataset: "a", Bonus: []float64{5, 3}, K: 0.1, IncludeFPR: true}},
		{"wide margins", 900, true, BundleConfig{Dataset: "b", Bonus: []float64{5, 3}, K: 0.1, Margins: 40}},
		{"sparse bonus", 500, false, BundleConfig{Dataset: "c", Bonus: []float64{0, 7}, K: 0.05, Margins: 3}},
		{"k covers everyone", 300, false, BundleConfig{Dataset: "d", Bonus: []float64{2, 1}, K: 1, Margins: 2}},
		{"one object", 1, false, BundleConfig{Dataset: "e", Bonus: []float64{1, 1}, K: 1, Margins: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := auditDataset(t, tc.n, tc.outcomes)
			ev := auditEvaluator(t, d)
			got, err := BuildBundleCtx(t.Context(), ev, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireBundlesIdentical(t, got, pointwiseBundle(t, ev, tc.cfg))
		})
	}
}

// TestBuildBundleRankingBudget80k is the acceptance gate of the merge
// ranking: on the production-scale 80k school cohort (4 fairness
// dimensions, combo-run partition available) a cold bundle must perform
// ZERO full-population ranking passes — every distinct order it needs
// (one compensated prefix plus one leave-one-out prefix per non-zero
// bonus dimension; the base order is cached and free) is answered by
// the combo-run merge, measured through the RankingCount/MergeCount
// hooks.
func TestBuildBundleRankingBudget80k(t *testing.T) {
	if testing.Short() {
		t.Skip("80k cohort generation in -short mode")
	}
	ev := benchBundleEvaluator(t)
	dims := ev.Dataset().NumFair()
	if _, ok := ev.RunStats(); !ok {
		t.Fatal("school cohort built no combo runs; merge path unavailable")
	}
	beforeRank, beforeMerge := ev.RankingCount(), ev.MergeCount()
	if _, err := BuildBundleCtx(t.Context(), ev, BundleConfig{
		Dataset: "school",
		Bonus:   []float64{2, 11, 10.5, 12.5},
		K:       0.05,
	}); err != nil {
		t.Fatal(err)
	}
	if got := ev.RankingCount() - beforeRank; got != 0 {
		t.Errorf("cold bundle performed %d full-population rankings, expected 0 (merge path)", got)
	}
	merges := ev.MergeCount() - beforeMerge
	if want := int64(dims + 1); merges != want {
		t.Errorf("cold bundle performed %d merges, expected exactly %d (one compensated + dims leave-one-out)", merges, want)
	}
}
