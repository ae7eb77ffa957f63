package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/metrics"
	"fairrank/internal/rank"
)

// bundleCohort builds a random audit cohort. ties draws base scores from
// a coarse integer grid so the selection cutoff lands inside a tie run;
// singleGroup makes fairness attribute 0 cover the entire population
// (its disparity is structurally zero — a degenerate column the bundle
// must survive).
func bundleCohort(t testing.TB, rng *rand.Rand, n, dims int, outcomes, ties, singleGroup bool) *dataset.Dataset {
	t.Helper()
	fairNames := make([]string, dims)
	for j := range fairNames {
		fairNames[j] = string(rune('a' + j))
	}
	b := dataset.NewBuilder([]string{"s"}, fairNames)
	for i := 0; i < n; i++ {
		var score float64
		if ties {
			score = float64(1 + rng.Intn(4))
		} else {
			score = 50 + 10*rng.NormFloat64()
		}
		fair := make([]float64, dims)
		for j := range fair {
			if j == 0 && singleGroup {
				fair[j] = 1
				continue
			}
			if rng.Float64() < 0.4 {
				fair[j] = 1
			}
		}
		if outcomes {
			b.AddWithOutcome([]float64{score}, fair, rng.Float64() < 0.5)
		} else {
			b.Add([]float64{score}, fair)
		}
	}
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// checkBundleStatsAgainstPointwise asserts, field by field and bit for
// bit, that one BundleStats pass agrees with the independent pointwise
// evaluators it replaces: Explain, AttributeDisparity, NDCG, FPRDiff,
// and CounterfactualBatch over the boundary window of the full sorted
// order. Any float compared here is compared with ==; "close" is a bug.
func checkBundleStatsAgainstPointwise(t *testing.T, ev *Evaluator, cfg BundleStatsConfig) {
	t.Helper()
	st, err := ev.BundleStatsCtx(t.Context(), cfg)
	if err != nil {
		t.Fatalf("BundleStats(%+v): %v", cfg, err)
	}
	ref := newReference(ev)
	ref.checkBundle(t, st, cfg)

	exp, err := ev.ExplainCtx(t.Context(), cfg.Bonus, cfg.K)
	if err != nil {
		t.Fatal(err)
	}
	ref.checkSelection(t, "Explain", cfg.Bonus, cfg.K, exp.Cutoff, exp.BaseCutoff, exp.GroupCounts, exp.BaseGroupCounts, exp.AdmittedByBonus, exp.DisplacedByBonus)
	if st.Selected != exp.Selected || st.Cutoff != exp.Cutoff || st.BaseCutoff != exp.BaseCutoff {
		t.Errorf("cutoffs: stats (%d %v %v) vs Explain (%d %v %v)",
			st.Selected, st.Cutoff, st.BaseCutoff, exp.Selected, exp.Cutoff, exp.BaseCutoff)
	}
	if !slices.Equal(st.GroupCounts, exp.GroupCounts) || !slices.Equal(st.BaseGroupCounts, exp.BaseGroupCounts) {
		t.Errorf("group counts: stats %v/%v vs Explain %v/%v",
			st.GroupCounts, st.BaseGroupCounts, exp.GroupCounts, exp.BaseGroupCounts)
	}
	if !slices.Equal(st.AdmittedByBonus, exp.AdmittedByBonus) || !slices.Equal(st.DisplacedByBonus, exp.DisplacedByBonus) {
		t.Errorf("beneficiary sets: stats %v/%v vs Explain %v/%v",
			st.AdmittedByBonus, st.DisplacedByBonus, exp.AdmittedByBonus, exp.DisplacedByBonus)
	}

	att, err := ev.AttributeDisparity(cfg.Bonus, cfg.K)
	if err != nil {
		t.Fatal(err)
	}
	if st.NormBefore != att.NormBase || st.NormAfter != att.NormFull || st.Reduction != att.Reduction {
		t.Errorf("norms: stats (%v %v %v) vs AttributeDisparity (%v %v %v)",
			st.NormBefore, st.NormAfter, st.Reduction, att.NormBase, att.NormFull, att.Reduction)
	}
	if !slices.Equal(st.LeaveOneOut, att.LeaveOneOut) {
		t.Errorf("leave-one-out: stats %v vs AttributeDisparity %v", st.LeaveOneOut, att.LeaveOneOut)
	}
	if !slices.Equal(st.Contribution, att.Contribution) {
		t.Errorf("contribution: stats %v vs AttributeDisparity %v", st.Contribution, att.Contribution)
	}

	ndcg, err := ev.NDCGCtx(t.Context(), cfg.Bonus, cfg.K)
	if err != nil {
		t.Fatal(err)
	}
	if st.NDCG != ndcg {
		t.Errorf("nDCG: stats %v vs pointwise %v", st.NDCG, ndcg)
	}

	if cfg.IncludeFPR {
		fpr, err := ev.FPRDiff(cfg.Bonus, cfg.K)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(st.FPRDiff, fpr) {
			t.Errorf("FPR diff: stats %v vs pointwise %v", st.FPRDiff, fpr)
		}
	} else if st.FPRDiff != nil {
		t.Errorf("FPRDiff = %v without being requested", st.FPRDiff)
	}

	// Margins against CounterfactualBatch over the window of the full
	// sorted order — the batch path sorts the entire population, so this
	// also pins the ranked prefix against the full sort.
	n := ev.Dataset().N()
	cnt, err := rank.SelectCount(n, cfg.K)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := cnt-cfg.Margins, cnt+cfg.Margins
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	window := append([]int(nil), mustOrder(t, ev, cfg.Bonus)[lo:hi]...)
	want, err := ev.CounterfactualBatchCtx(t.Context(), cfg.Bonus, cfg.K, window)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Margins) != len(want) {
		t.Fatalf("margin window has %d lines, want %d", len(st.Margins), len(want))
	}
	for i, got := range st.Margins {
		w := want[i]
		if got.Object != w.Object || got.Rank != w.Rank || got.Selected != w.Selected ||
			got.Effective != w.Effective || got.Cutoff != w.Cutoff || got.Competitor != w.Competitor ||
			got.ScoreDelta != w.ScoreDelta || got.BonusDelta != w.BonusDelta || got.Feasible != w.Feasible ||
			!slices.Equal(got.PerAttribute, w.PerAttribute) {
			t.Errorf("margin %d: stats %+v vs CounterfactualBatch %+v", i, got, w)
		}
	}
}

// TestBundleStatsDifferential pins the shared-order BundleData pass
// against the independent pointwise evaluators on fixed representative
// cohorts: with and without outcomes, both polarities, tied scores at the
// cutoff, a single-group attribute, and a one-object population.
func TestBundleStatsDifferential(t *testing.T) {
	cases := []struct {
		name        string
		n, dims     int
		outcomes    bool
		ties        bool
		singleGroup bool
		pol         rank.Polarity
		cfg         BundleStatsConfig
	}{
		{"beneficial", 600, 3, false, false, false, rank.Beneficial,
			BundleStatsConfig{Bonus: []float64{4, 0, 1.5}, K: 0.1, Margins: 5}},
		{"adverse with outcomes", 600, 3, true, false, false, rank.Adverse,
			BundleStatsConfig{Bonus: []float64{2, 1, 0.5}, K: 0.2, Margins: 3, IncludeFPR: true}},
		{"tied scores at the cutoff", 400, 2, false, true, false, rank.Beneficial,
			BundleStatsConfig{Bonus: []float64{1, 2}, K: 0.25, Margins: 6}},
		{"single-group attribute", 300, 2, true, false, true, rank.Beneficial,
			BundleStatsConfig{Bonus: []float64{3, 1}, K: 0.1, Margins: 4, IncludeFPR: true}},
		{"one object", 1, 2, false, false, false, rank.Beneficial,
			BundleStatsConfig{Bonus: []float64{1, 1}, K: 1, Margins: 2}},
		{"k=1 covers everyone", 120, 2, false, false, false, rank.Beneficial,
			BundleStatsConfig{Bonus: []float64{5, 2}, K: 1, Margins: 2}},
		{"single non-zero bonus (leave-one-out hits the zero vector)", 500, 2, false, false, false, rank.Adverse,
			BundleStatsConfig{Bonus: []float64{0, 7}, K: 0.05, Margins: 2}},
		{"zero bonus", 200, 2, false, false, false, rank.Beneficial,
			BundleStatsConfig{Bonus: []float64{0, 0}, K: 0.1, Margins: 3}},
		{"no margins requested", 200, 2, false, false, false, rank.Beneficial,
			BundleStatsConfig{Bonus: []float64{2, 1}, K: 0.1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(tc.name)) * 77))
			d := bundleCohort(t, rng, tc.n, tc.dims, tc.outcomes, tc.ties, tc.singleGroup)
			ev := NewEvaluator(d, rank.WeightedSum{Weights: []float64{1}}, tc.pol)
			checkBundleStatsAgainstPointwise(t, ev, tc.cfg)
		})
	}
}

// TestBundleStatsProperty is the randomized form of the differential:
// random cohorts, polarities, outcome availability, tie structure, bonus
// sparsity, margin widths, and a k-grid that always includes the k=1/n
// and k=1.0 extremes. Every trial must agree with the pointwise
// evaluators bit for bit, and must stay within the rank-once budget of
// dims+1 ranking passes (asserted through the engine's ranking-count
// hook).
func TestBundleStatsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260730))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(250)
		dims := 1 + rng.Intn(5)
		outcomes := rng.Intn(2) == 0
		ties := rng.Intn(3) == 0
		singleGroup := rng.Intn(4) == 0
		pol := rank.Beneficial
		if rng.Intn(2) == 0 {
			pol = rank.Adverse
		}
		d := bundleCohort(t, rng, n, dims, outcomes, ties, singleGroup)
		ev := NewEvaluator(d, rank.WeightedSum{Weights: []float64{1}}, pol)

		bonus := make([]float64, dims)
		nonzero := 0
		for j := range bonus {
			if rng.Intn(3) > 0 { // ~2/3 of the dimensions carry points
				bonus[j] = float64(rng.Intn(8)) / 2
			}
			if bonus[j] != 0 {
				nonzero++
			}
		}
		ks := []float64{1.0 / float64(2*n), 1, rng.Float64()}
		for _, k := range ks {
			if k <= 0 {
				k = 0.5
			}
			cfg := BundleStatsConfig{
				Bonus:      bonus,
				K:          k,
				Margins:    rng.Intn(6),
				IncludeFPR: outcomes && rng.Intn(2) == 0,
			}
			checkBundleStatsAgainstPointwise(t, ev, cfg)
			// The pointwise evaluators the check compares against perform
			// many rankings of their own, so the rank-once budget is
			// asserted on a fresh, identical evaluator.
			fresh := NewEvaluator(d, rank.WeightedSum{Weights: []float64{1}}, pol)
			if _, err := fresh.BundleStatsCtx(t.Context(), cfg); err != nil {
				t.Fatal(err)
			}
			if got, budget := fresh.RankingCount(), int64(1+nonzero); got > budget {
				t.Fatalf("trial %d k=%v: cold bundle performed %d rankings, budget %d (dims=%d)",
					trial, k, got, budget, dims)
			}
		}
	}
}

// TestBundleStatsNilBonusAligned: a nil config bonus audits the
// uncompensated ranking, and the result's Bonus copy must still be dims
// long (the zero vector) so every per-dimension slice stays aligned for
// consumers that index them in lockstep (report.FromStats).
func TestBundleStatsNilBonusAligned(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := bundleCohort(t, rng, 40, 3, false, false, false)
	ev := NewEvaluator(d, rank.WeightedSum{Weights: []float64{1}}, rank.Beneficial)
	st, err := ev.BundleStatsCtx(t.Context(), BundleStatsConfig{Bonus: nil, K: 0.5, Margins: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Bonus) != d.NumFair() {
		t.Fatalf("Bonus has %d dimensions for a nil config bonus, want %d", len(st.Bonus), d.NumFair())
	}
	for j, b := range st.Bonus {
		if b != 0 {
			t.Errorf("Bonus[%d] = %v, want 0", j, b)
		}
	}
	if st.NormAfter != st.NormBefore || len(st.AdmittedByBonus) != 0 || len(st.DisplacedByBonus) != 0 {
		t.Errorf("nil bonus changed the selection: %+v", st)
	}
}

// TestBundleStatsValidation covers the pass's own rejections (the report
// layer screens audit-policy mistakes; these are the evaluator-level
// ones) and the zero-ideal-DCG propagation.
func TestBundleStatsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := bundleCohort(t, rng, 50, 2, false, false, false)
	ev := NewEvaluator(d, rank.WeightedSum{Weights: []float64{1}}, rank.Beneficial)

	if _, err := ev.BundleStatsCtx(t.Context(), BundleStatsConfig{Bonus: []float64{1}, K: 0.1}); err == nil {
		t.Error("mis-sized bonus accepted")
	}
	if _, err := ev.BundleStatsCtx(t.Context(), BundleStatsConfig{Bonus: []float64{1, 1}, K: 0}); err == nil {
		t.Error("zero fraction accepted")
	}
	if _, err := ev.BundleStatsCtx(t.Context(), BundleStatsConfig{Bonus: []float64{1, 1}, K: 0.1, Margins: -1}); err == nil {
		t.Error("negative margins accepted")
	}
	if _, err := ev.BundleStatsCtx(t.Context(), BundleStatsConfig{Bonus: []float64{1, 1}, K: 0.1, IncludeFPR: true}); err == nil {
		t.Error("FPR without outcomes accepted")
	}

	// All-zero base scores make the ideal DCG zero; the pass must surface
	// the same sentinel the pointwise NDCG returns.
	zb := dataset.NewBuilder([]string{"s"}, []string{"g"})
	for i := 0; i < 10; i++ {
		zb.Add([]float64{0}, []float64{float64(i % 2)})
	}
	zd, err := zb.Build()
	if err != nil {
		t.Fatal(err)
	}
	zev := NewEvaluator(zd, rank.WeightedSum{Weights: []float64{1}}, rank.Beneficial)
	if _, err := zev.BundleStatsCtx(t.Context(), BundleStatsConfig{Bonus: []float64{1}, K: 0.5}); !errors.Is(err, metrics.ErrZeroIdealDCG) {
		t.Errorf("zero ideal DCG: err = %v, want ErrZeroIdealDCG", err)
	}
}

// TestRankedPrefixMatchesFullSort pins the bounded-heap prefix selection
// against the full sort for every prefix length on a tie-heavy cohort —
// the comparator is a total order, so the prefix must be the full order's
// leading segment element for element.
func TestRankedPrefixMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := bundleCohort(t, rng, 120, 2, false, true, false)
	ev := NewEvaluator(d, rank.WeightedSum{Weights: []float64{1}}, rank.Beneficial)
	bonus := []float64{1.5, 0.5}
	full := mustOrder(t, ev, bonus)
	ws := ev.ws()
	defer ev.put(ws)
	for p := 1; p <= d.N(); p++ {
		got, _, _, err := ev.rankedPrefixWS(context.Background(), ws, bonus, p, false)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, full[:p]) {
			t.Fatalf("prefix %d diverges from the full sort:\n got %v\nwant %v", p, got, full[:p])
		}
	}
}
