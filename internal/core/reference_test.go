package core

import (
	"errors"
	"slices"
	"sort"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/metrics"
	"fairrank/internal/rank"
)

// The reference evaluator of the differential suites. Every sweep, batch,
// bundle, counterfactual, explanation and pointwise answer is a query on
// the one evaluation plan, so comparing those entry points with each other
// compares the plan with itself. The reference answers the same questions
// without the Evaluator:
//
//   - a full rank.Order of rank.EffectiveScoresAll (no combo-run merge,
//     no bounded heap, no prefix);
//   - the internal/metrics pointwise functions on its prefix: Disparity,
//     DisparateImpact, FPRDiff, NDCGAtFrac and DDP;
//   - single-cut prefix folds where metrics has no pointwise form (the
//     per-capita exposure row, exposure/merit ratios, top-k shares);
//   - map-based set differences for the beneficiary sets.
type reference struct {
	d         *dataset.Dataset
	base      []float64
	pol       rank.Polarity
	baseOrder []int
}

func newReference(ev *Evaluator) *reference {
	return &reference{d: ev.Dataset(), base: ev.BaseScores(), pol: ev.Polarity(), baseOrder: rank.Order(ev.BaseScores())}
}

// eff scores the whole population under bonus (nil is the zero vector).
func (r *reference) eff(bonus []float64) []float64 {
	b := make([]float64, r.d.NumFair())
	copy(b, bonus)
	return rank.EffectiveScoresAll(r.d, r.base, b, r.pol, nil)
}

func (r *reference) order(bonus []float64) []int { return rank.Order(r.eff(bonus)) }

func (r *reference) count(t testing.TB, k float64) int {
	t.Helper()
	cnt, err := rank.SelectCount(r.d.N(), k)
	if err != nil {
		t.Fatal(err)
	}
	return cnt
}

// metric answers one metric query the way a BatchAnswer carries it.
func (r *reference) metric(t testing.TB, kind BatchKind, bonus []float64, k float64) BatchAnswer {
	t.Helper()
	d, n, dims := r.d, r.d.N(), r.d.NumFair()
	order := r.order(bonus)
	cnt := r.count(t, k)
	sel, cuts := order[:cnt], []int{cnt}
	switch kind {
	case BatchDisparity:
		return BatchAnswer{Vector: metrics.Disparity(d, sel)}
	case BatchNDCG:
		v, err := metrics.NDCGAtFrac(r.base, order, r.baseOrder, k)
		return BatchAnswer{Value: v, Err: err}
	case BatchDisparateImpact:
		return BatchAnswer{Vector: metrics.DisparateImpact(d, sel)}
	case BatchFPRDiff:
		return BatchAnswer{Vector: metrics.FPRDiff(d, sel)}
	case BatchExposure:
		cols := make([]int, dims)
		for j := range cols {
			cols[j] = j
		}
		ddp, err := metrics.DDP(d, sel, cols)
		if err != nil {
			return BatchAnswer{Err: err}
		}
		expo := metrics.PrefixExposureInto(d, order, cuts, make([]float64, dims+1), make([]float64, dims+1))
		sizes := metrics.PrefixExposureCountsInto(d, order, cuts, make([]int, dims+1))
		return BatchAnswer{Vector: metrics.ExposurePerCapitaInto(expo, sizes, make([]float64, dims+1)), Value: ddp}
	case BatchExpRatio, BatchTopK:
		expo := metrics.PrefixExposureInto(d, order, cuts, make([]float64, dims+1), make([]float64, dims+1))
		counts := metrics.PrefixGroupCountsInto(d, order, cuts, make([]int, dims))
		out := make([]float64, dims)
		for j := range out {
			size, pos := 0, 0
			for i := 0; i < n; i++ {
				if d.Fair(i, j) > 0.5 {
					size++
					if d.HasOutcomes() && d.Outcome(i) {
						pos++
					}
				}
			}
			if kind == BatchTopK {
				out[j] = metrics.TopKFromCounts(counts[j], cnt, size, n)
			} else {
				out[j] = metrics.ExpRatioFromCounts(expo[j], counts[j], pos, size)
			}
		}
		return BatchAnswer{Vector: out}
	}
	t.Fatalf("reference: kind %d is not a metric", kind)
	return BatchAnswer{}
}

// checkMetric compares a metric answer with the reference bit for bit.
func (r *reference) checkMetric(t testing.TB, label string, kind BatchKind, bonus []float64, k float64, got BatchAnswer) {
	t.Helper()
	want := r.metric(t, kind, bonus, k)
	if !errors.Is(got.Err, want.Err) && !errors.Is(want.Err, got.Err) {
		t.Fatalf("%s (kind %d, k=%g): err %v, reference %v", label, kind, k, got.Err, want.Err)
	}
	if want.Err != nil {
		return
	}
	if !slices.Equal(got.Vector, want.Vector) || got.Value != want.Value {
		t.Errorf("%s (kind %d, k=%g): got (%v, %v), reference (%v, %v)", label, kind, k, got.Vector, got.Value, want.Vector, want.Value)
	}
}

// checkCounterfactuals compares the identity fields of counterfactuals —
// rank, selection, effective score, boundary competitor and its cutoff —
// with the reference order.
func (r *reference) checkCounterfactuals(t testing.TB, label string, bonus []float64, k float64, objs []int, got []Counterfactual) {
	t.Helper()
	order, eff := r.order(bonus), r.eff(bonus)
	cnt, n := r.count(t, k), r.d.N()
	rankOf := make(map[int]int, n)
	for pos, o := range order {
		rankOf[o] = pos
	}
	if len(got) != len(objs) {
		t.Fatalf("%s: %d counterfactuals for %d objects", label, len(got), len(objs))
	}
	for i, obj := range objs {
		g := got[i]
		want := Counterfactual{Object: obj, Rank: rankOf[obj], Selected: rankOf[obj] < cnt, Effective: eff[obj], Competitor: -1}
		switch {
		case !want.Selected:
			want.Competitor = order[cnt-1]
		case cnt < n:
			want.Competitor = order[cnt]
		}
		if want.Competitor >= 0 {
			want.Cutoff = eff[want.Competitor]
		}
		if g.Object != want.Object || g.Rank != want.Rank || g.Selected != want.Selected || g.Effective != want.Effective ||
			g.Competitor != want.Competitor || g.Cutoff != want.Cutoff {
			t.Errorf("%s (k=%g) object %d: got %+v, reference identity %+v", label, k, obj, g, want)
		}
	}
}

// checkSelection compares the published-selection quantities Explanation
// and BundleStats share with the reference.
func (r *reference) checkSelection(t testing.TB, label string, bonus []float64, k float64, cutoff, baseCutoff float64, groups, baseGroups, admitted, displaced []int) {
	t.Helper()
	order, eff := r.order(bonus), r.eff(bonus)
	cnt := r.count(t, k)
	sel, base := order[:cnt], r.baseOrder[:cnt]
	if cutoff != eff[sel[cnt-1]] || baseCutoff != r.base[base[cnt-1]] {
		t.Errorf("%s: cutoffs (%v, %v), reference (%v, %v)", label, cutoff, baseCutoff, eff[sel[cnt-1]], r.base[base[cnt-1]])
	}
	for j := 0; j < r.d.NumFair(); j++ {
		var in, inBase int
		for c := 0; c < cnt; c++ {
			if r.d.Fair(sel[c], j) > 0.5 {
				in++
			}
			if r.d.Fair(base[c], j) > 0.5 {
				inBase++
			}
		}
		if groups[j] != in || baseGroups[j] != inBase {
			t.Errorf("%s dim %d: group counts (%d, %d), reference (%d, %d)", label, j, groups[j], baseGroups[j], in, inBase)
		}
	}
	diff := func(a, b []int) []int {
		inB := make(map[int]bool, len(b))
		for _, o := range b {
			inB[o] = true
		}
		var out []int
		for _, o := range a {
			if !inB[o] {
				out = append(out, o)
			}
		}
		sort.Ints(out)
		return out
	}
	if want := diff(sel, base); !slices.Equal(admitted, want) {
		t.Errorf("%s: admitted %v, reference %v", label, admitted, want)
	}
	if want := diff(base, sel); !slices.Equal(displaced, want) {
		t.Errorf("%s: displaced %v, reference %v", label, displaced, want)
	}
}

// checkBundle compares every BundleStats field with the reference.
func (r *reference) checkBundle(t testing.TB, st *BundleStats, cfg BundleStatsConfig) {
	t.Helper()
	d, dims, n := r.d, r.d.NumFair(), r.d.N()
	cnt := r.count(t, cfg.K)
	r.checkSelection(t, "bundle", cfg.Bonus, cfg.K, st.Cutoff, st.BaseCutoff, st.GroupCounts, st.BaseGroupCounts, st.AdmittedByBonus, st.DisplacedByBonus)
	norm := func(bonus []float64) float64 { return metrics.Norm(metrics.Disparity(d, r.order(bonus)[:cnt])) }
	normAfter := norm(cfg.Bonus)
	if st.Selected != cnt || st.NormAfter != normAfter || st.NormBefore != norm(nil) || st.Reduction != st.NormBefore-normAfter {
		t.Errorf("bundle (k=%g): selected/norms (%d %v %v %v), reference (%d %v %v)", cfg.K, st.Selected, st.NormBefore, st.NormAfter, st.Reduction, cnt, norm(nil), normAfter)
	}
	for j := 0; j < dims; j++ {
		loo := make([]float64, dims)
		copy(loo, cfg.Bonus)
		loo[j] = 0
		if want := norm(loo); st.LeaveOneOut[j] != want || st.Contribution[j] != want-normAfter {
			t.Errorf("bundle (k=%g) dim %d: leave-one-out %v (contribution %v), reference %v", cfg.K, j, st.LeaveOneOut[j], st.Contribution[j], want)
		}
	}
	r.checkMetric(t, "bundle nDCG", BatchNDCG, cfg.Bonus, cfg.K, BatchAnswer{Value: st.NDCG})
	if cfg.IncludeFPR {
		r.checkMetric(t, "bundle FPR", BatchFPRDiff, cfg.Bonus, cfg.K, BatchAnswer{Vector: st.FPRDiff})
	}
	if cfg.IncludeExposure {
		r.checkMetric(t, "bundle exposure", BatchExposure, cfg.Bonus, cfg.K, BatchAnswer{Vector: st.Exposure, Value: st.ExposureDDP})
		r.checkMetric(t, "bundle base exposure", BatchExposure, nil, cfg.K, BatchAnswer{Vector: st.BaseExposure, Value: st.BaseExposureDDP})
	}
	lo, hi := max(cnt-cfg.Margins, 0), min(cnt+cfg.Margins, n)
	if cfg.Margins == 0 {
		lo, hi = cnt, cnt
	}
	r.checkCounterfactuals(t, "bundle margins", cfg.Bonus, cfg.K, r.order(cfg.Bonus)[lo:hi], st.Margins)
}
