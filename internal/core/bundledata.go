package core

import (
	"cmp"
	"context"

	"fairrank/internal/engine"
	"fairrank/internal/metrics"
)

// BundleData pass. Because bonus points enter the effective score
// additively (Definition 2), every fixed-(bonus, k) audit quantity — the
// published cutoff, per-group selection counts, disparity norms, nDCG,
// FPR differences, exposure rows, the beneficiary and displaced sets, and
// the counterfactual margin window — is a deterministic function of one
// ranked order per score vector. A bundle is therefore one BatchBundle
// query of the evaluation plan (batch.go): the plan ranks the compensated
// prefix once, reads the base side off the cached uncompensated order,
// and fans one leave-one-attribute-out prefix per non-zero bonus
// dimension out beside that primary pass — a cold audit bundle costs at
// most dims+1 ranking passes, each a prefix of only the leading
// cnt+margins positions (O(n log p) at worst, a combo-run merge where
// eligible), not a full sort.
//
// The metric quantities are the plan's own folds at one cut, so a bundle
// is bit-identical to the pointwise evaluators by construction, and
// TestBundleStatsDifferential / TestBundleStatsProperty pin both against
// the reference evaluator.

// BundleStatsConfig parameterizes one BundleStatsCtx pass.
type BundleStatsConfig struct {
	// Bonus is the audited bonus vector; nil or all-zero audits the
	// uncompensated ranking (the compensated side degenerates to the base
	// order and the attribution is flat).
	Bonus []float64
	// K is the audited selection fraction, in (0, 1].
	K float64
	// Margins is how many objects on each side of the cutoff receive
	// counterfactual margin lines (0 = none); the window is clamped to
	// the population.
	Margins int
	// IncludeFPR adds the per-group false-positive-rate differences; the
	// dataset must carry ground-truth outcomes.
	IncludeFPR bool
	// IncludeExposure adds the per-capita exposure rows and DDP scalars for
	// both the compensated and the uncompensated selection; every fairness
	// attribute must be binary (see Evaluator.ExposureCtx).
	IncludeExposure bool
}

// BundleStats is every fixed-(bonus, k) audit quantity of one bonus
// policy, computed from shared ranked orders by Evaluator.BundleStatsCtx.
// It is the data layer of report.BuildBundleCtx; the service layer also
// reuses its Margins to answer per-object counterfactual requests.
type BundleStats struct {
	// K is the audited selection fraction; Selected the resulting count.
	K        float64
	Selected int

	// Cutoff is the effective score of the last selected object under the
	// policy; BaseCutoff the same for the uncompensated ranking.
	Cutoff     float64
	BaseCutoff float64

	// FairNames are the fairness attribute names; Bonus the audited vector
	// (copied), aligned with every per-dimension slice below.
	FairNames []string
	Bonus     []float64

	// GroupCounts[j] counts selected members of binary fairness attribute
	// j (value > 0.5) under the policy; BaseGroupCounts is the same for
	// the uncompensated selection.
	GroupCounts     []int
	BaseGroupCounts []int

	// AdmittedByBonus lists objects selected under the policy but not in
	// the uncompensated selection, ascending; DisplacedByBonus the
	// reverse.
	AdmittedByBonus  []int
	DisplacedByBonus []int

	// NormBefore/NormAfter are the disparity norms without and with the
	// policy; Reduction their difference. LeaveOneOut[j] is the norm with
	// attribute j's bonus withdrawn and Contribution[j] how much worse
	// that is than NormAfter — the leave-one-attribute-out attribution.
	NormBefore   float64
	NormAfter    float64
	Reduction    float64
	LeaveOneOut  []float64
	Contribution []float64

	// NDCG is the utility retained relative to the uncompensated ranking.
	NDCG float64

	// FPRDiff carries the per-group false-positive-rate differences under
	// the policy when the config asked for them; nil otherwise.
	FPRDiff []float64

	// Exposure/BaseExposure carry the per-capita exposure rows (NumFair
	// named groups plus the unprotected rest, so one entry wider than the
	// other per-dimension slices) of the compensated and uncompensated
	// selections when the config asked for them; nil otherwise.
	// ExposureDDP/BaseExposureDDP are the matching maximum pairwise
	// per-capita gaps.
	Exposure        []float64
	ExposureDDP     float64
	BaseExposure    []float64
	BaseExposureDDP float64

	// Margins are exact counterfactuals for the boundary window — the
	// Margins last selected and Margins first excluded objects, in rank
	// order.
	Margins []Counterfactual
}

// BundleStatsCtx computes every audit-bundle quantity for a bonus vector
// at selection fraction k in one shared-order pass: the compensated
// prefix, the cached base order, and one leave-one-out prefix per
// attribute with a non-zero bonus, fanned over the engine worker pool. See
// the package comment above for the cost model and the bit-identity
// contract. It is one BatchBundle query. Once ctx is done, no further
// ranking task is dispatched, in-flight tasks stop at their next
// checkpoint, and the context's error is returned — no partial bundle
// escapes.
func (e *Evaluator) BundleStatsCtx(ctx context.Context, cfg BundleStatsConfig) (*BundleStats, error) {
	a, err := e.answerOne(ctx, cfg.Bonus, BatchQuery{Kind: BatchBundle, Bundle: &cfg})
	return a.Bundle, err
}

// bundleWS answers one bundle query from a plan's order; finishBundles
// adds the leave-one-out attribution once the fan is in. The metric
// quantities are one-cut metric folds over the compensated order and the
// cached uncompensated one. Only the data-dependent failures (zero ideal
// DCG, degenerate exposure groups) are possible, and they are the query's
// own.
func (e *Evaluator) bundleWS(ws *engine.Workspace, order []int, eff []float64, cfg *BundleStatsConfig, g *batchGeom) (*BundleStats, error) {
	dims, cnt := e.d.NumFair(), g.cnt
	// The Bonus copy is always dims long (a nil config bonus means the
	// zero vector), so every per-dimension slice in the result is
	// aligned — consumers like report.FromStats index them in lockstep.
	st := &BundleStats{
		K:               cfg.K,
		Selected:        cnt,
		FairNames:       e.d.FairNames(),
		Bonus:           make([]float64, dims),
		GroupCounts:     make([]int, dims),
		BaseGroupCounts: make([]int, dims),
		LeaveOneOut:     make([]float64, dims),
		Contribution:    make([]float64, dims),
	}
	copy(st.Bonus, cfg.Bonus)
	st.Cutoff, st.BaseCutoff, st.AdmittedByBonus, st.DisplacedByBonus = e.selectionWS(ws, order, eff, cnt, st.GroupCounts, st.BaseGroupCounts)
	st.NormAfter = metrics.Norm(e.foldOne(ws, order, BatchDisparity, cnt).Vector)
	st.NormBefore = metrics.Norm(e.foldOne(ws, e.origOrd, BatchDisparity, cnt).Vector)
	ndcg := e.foldOne(ws, order, BatchNDCG, g.ndcgCut)
	if ndcg.Err != nil {
		return nil, ndcg.Err
	}
	st.NDCG = ndcg.Value
	if cfg.IncludeFPR {
		st.FPRDiff = e.foldOne(ws, order, BatchFPRDiff, cnt).Vector
	}
	if cfg.IncludeExposure {
		x, bx := e.foldOne(ws, order, BatchExposure, cnt), e.foldOne(ws, e.origOrd, BatchExposure, cnt)
		if err := cmp.Or(x.Err, bx.Err); err != nil {
			return nil, err
		}
		st.Exposure, st.ExposureDDP, st.BaseExposure, st.BaseExposureDDP = x.Vector, x.Value, bx.Vector, bx.Value
	}
	if cfg.Margins > 0 {
		lo, hi := max(cnt-cfg.Margins, 0), min(cnt+cfg.Margins, e.d.N())
		st.Margins, _ = e.counterfactualsWS(ws, order, eff, nil, false, cnt, order[lo:hi])
	}
	return st, nil
}
