package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"time"

	"fairrank/internal/core"
	"fairrank/internal/metrics"
	"fairrank/internal/rank"
	"fairrank/internal/report"
	"fairrank/internal/service"
)

// parse checks that a 200 body is well formed for its request and returns
// the trained bonus (train requests only) and how many of the request's
// cacheable units the service answered from its cache.
func parse(r *request, body []byte) (bonus []float64, cached int, err error) {
	switch r.kind {
	case kTrain:
		var v service.TrainResponse
		if err := json.Unmarshal(body, &v); err != nil {
			return nil, 0, err
		}
		if len(v.Bonus) == 0 {
			return nil, 0, fmt.Errorf("train response without a bonus")
		}
		if v.Cached {
			cached = 1
		}
		return v.Bonus, cached, nil
	case kEvaluate:
		var v service.EvaluateResponse
		if err := json.Unmarshal(body, &v); err != nil {
			return nil, 0, err
		}
		if len(v.Vectors)+len(v.Values) != len(r.ks) {
			return nil, 0, fmt.Errorf("evaluate answered %d rows for %d points", len(v.Vectors)+len(v.Values), len(r.ks))
		}
		return nil, v.CachedPoints, nil
	case kCounterfactual:
		var v service.CounterfactualResponse
		if err := json.Unmarshal(body, &v); err != nil {
			return nil, 0, err
		}
		if len(v.Results) != len(r.objects) {
			return nil, 0, fmt.Errorf("counterfactual answered %d results for %d objects", len(v.Results), len(r.objects))
		}
		return nil, v.CachedObjects, nil
	case kExplain:
		var v service.ExplainResponse
		if err := json.Unmarshal(body, &v); err != nil {
			return nil, 0, err
		}
		if v.Selected <= 0 {
			return nil, 0, fmt.Errorf("explanation selects %d objects", v.Selected)
		}
		return nil, 0, nil
	default:
		if r.format == "json" {
			var v report.Bundle
			if err := json.Unmarshal(body, &v); err != nil {
				return nil, 0, err
			}
			if v.Version != report.BundleVersion {
				return nil, 0, fmt.Errorf("report version %q, want %q", v.Version, report.BundleVersion)
			}
		} else if len(body) == 0 {
			return nil, 0, fmt.Errorf("empty %s report", r.format)
		}
		return nil, 0, nil
	}
}

// attrib routes the direct-library timings of one verified request into
// the trace. cold says the service computed the answer instead of reading
// it from its cache; only cold work is attributed to the core layers. A
// nil attrib verifies without timing.
type attrib struct {
	t      *tracer
	op     int
	parent int
	cold   bool
}

// rec records a core span under the request's handler when the request
// was cold, returning its id (0 when nothing was recorded).
func (a *attrib) rec(name string, start time.Time, count int64) int {
	if a == nil || !a.cold {
		return 0
	}
	return a.t.record(a.op, a.parent, name, start, count)
}

// verify recomputes a request's answer through the library and compares
// it with the service's body, bit for bit.
func verify(ctx context.Context, c *cohort, r *request, body []byte, at *attrib) error {
	switch r.kind {
	case kTrain:
		return verifyTrain(ctx, c, r, body, at)
	case kEvaluate:
		return verifyEvaluate(ctx, c, r, body, at)
	case kCounterfactual:
		return verifyCounterfactual(ctx, c, r, body, at)
	case kExplain:
		return verifyExplain(ctx, c, r, body, at)
	default:
		return verifyReport(ctx, c, r, body, at)
	}
}

func verifyTrain(ctx context.Context, c *cohort, r *request, body []byte, at *attrib) error {
	var got service.TrainResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	obj, err := core.ObjectiveByName("disparity", r.k)
	if err != nil {
		return err
	}
	opts := core.DefaultOptions()
	opts.Seed = r.seed
	opts.Polarity = c.pol
	start := time.Now()
	res, err := c.tr.TrainCtx(ctx, obj, opts)
	if err != nil {
		return err
	}
	at.rec("core.train", start, int64(res.Steps))
	before, err := c.ev.DisparityCtx(ctx, nil, r.k)
	if err != nil {
		return err
	}
	start = time.Now()
	after, err := c.ev.DisparityCtx(ctx, res.Bonus, r.k)
	if err != nil {
		return err
	}
	ndcg, err := c.ev.NDCGCtx(ctx, res.Bonus, r.k)
	if err != nil {
		return err
	}
	at.rec("core.eval", start, 0)
	switch {
	case !sameBits(got.Bonus, res.Bonus), !sameBits(got.Raw, res.Raw), !sameBits(got.CoreBonus, res.CoreBonus):
		return fmt.Errorf("train seed %d: bonus %v, library %v", r.seed, got.Bonus, res.Bonus)
	case got.Steps != res.Steps:
		return fmt.Errorf("train seed %d: %d steps, library %d", r.seed, got.Steps, res.Steps)
	case !sameBits(got.DisparityBefore, before), !sameBits(got.DisparityAfter, after),
		!sameBits([]float64{got.NormBefore, got.NormAfter, got.NDCG}, []float64{metrics.Norm(before), metrics.Norm(after), ndcg}):
		return fmt.Errorf("train seed %d: diagnostics differ from the library", r.seed)
	}
	return nil
}

// sweep runs the evaluator sweep the service dispatches metric to.
func sweep(ctx context.Context, ev *core.Evaluator, metric string, pts []core.SweepPoint) ([][]float64, []float64, error) {
	var vecs [][]float64
	var err error
	switch metric {
	case "disparity":
		vecs, err = ev.DisparitySweepCtx(ctx, pts)
	case "di":
		vecs, err = ev.DisparateImpactSweepCtx(ctx, pts)
	case "fpr":
		vecs, err = ev.FPRDiffSweepCtx(ctx, pts)
	case "exposure":
		vecs, err = ev.ExposureSweepCtx(ctx, pts)
	case "topk":
		vecs, err = ev.TopKSweepCtx(ctx, pts)
	case "ndcg":
		vals, err := ev.NDCGSweepCtx(ctx, pts)
		return nil, vals, err
	default:
		err = fmt.Errorf("no sweep for metric %q", metric)
	}
	return vecs, nil, err
}

func verifyEvaluate(ctx context.Context, c *cohort, r *request, body []byte, at *attrib) error {
	var got service.EvaluateResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	pts := make([]core.SweepPoint, len(r.ks))
	for i, k := range r.ks {
		pts[i] = core.SweepPoint{Bonus: r.bonus, K: k}
	}
	start := time.Now()
	vecs, vals, err := sweep(ctx, c.ev, r.metric, pts)
	if err != nil {
		return err
	}
	if id := at.rec("core.sweep", start, 0); id != 0 {
		p, err := rank.SelectCount(c.d.N(), slices.Max(r.ks))
		if err != nil {
			return err
		}
		start = time.Now()
		c.prefix(r.bonus, p)
		at.t.record(at.op, id, "rank.prefix", start, 0)
	}
	if vals != nil {
		if !sameBits(got.Values, vals) {
			return fmt.Errorf("%s sweep on %s: values differ from the library", r.metric, r.dataset)
		}
		return nil
	}
	if len(got.Vectors) != len(vecs) || len(got.Norms) != len(vecs) {
		return fmt.Errorf("%s sweep on %s: %d rows, library %d", r.metric, r.dataset, len(got.Vectors), len(vecs))
	}
	for i, v := range vecs {
		norm := metrics.Norm(v)
		if r.metric == "exposure" {
			if norm, err = metrics.DDPFromPerCapita(v); err != nil {
				return err
			}
		}
		if !sameBits(got.Vectors[i], v) || !sameBits(got.Norms[i:i+1], []float64{norm}) {
			return fmt.Errorf("%s sweep on %s: row %d (k=%g) differs from the library", r.metric, r.dataset, i, r.ks[i])
		}
	}
	return nil
}

func verifyCounterfactual(ctx context.Context, c *cohort, r *request, body []byte, at *attrib) error {
	var got service.CounterfactualResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	start := time.Now()
	cfs, err := c.ev.CounterfactualBatchCtx(ctx, r.bonus, r.k, r.objects)
	if err != nil {
		return err
	}
	at.rec("core.counterfactual", start, 0)
	if len(got.Results) != len(cfs) {
		return fmt.Errorf("counterfactual: %d results, library %d", len(got.Results), len(cfs))
	}
	for i, cf := range cfs {
		g := got.Results[i]
		if g.Object != cf.Object || g.Selected != cf.Selected || g.Rank != cf.Rank ||
			g.Competitor != cf.Competitor || g.Feasible != cf.Feasible ||
			!sameBits([]float64{g.Effective, g.Cutoff, g.ScoreDelta, g.BonusDelta}, []float64{cf.Effective, cf.Cutoff, cf.ScoreDelta, cf.BonusDelta}) ||
			!sameBits(g.PerAttribute, cf.PerAttribute) {
			return fmt.Errorf("counterfactual for object %d differs from the library", cf.Object)
		}
	}
	return nil
}

func verifyExplain(ctx context.Context, c *cohort, r *request, body []byte, at *attrib) error {
	var got service.ExplainResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	start := time.Now()
	exp, err := c.ev.ExplainCtx(ctx, r.bonus, r.k)
	if err != nil {
		return err
	}
	at.rec("core.explain", start, 0)
	if got.Selected != exp.Selected ||
		!sameBits([]float64{got.K, got.Cutoff, got.BaseCutoff}, []float64{exp.K, exp.Cutoff, exp.BaseCutoff}) ||
		!sameBits(got.Bonus, exp.Bonus) ||
		!reflect.DeepEqual([][]int{got.GroupCounts, got.BaseGroupCounts, got.AdmittedByBonus, got.DisplacedByBonus},
			[][]int{exp.GroupCounts, exp.BaseGroupCounts, exp.AdmittedByBonus, exp.DisplacedByBonus}) ||
		!slices.Equal(got.Summary, exp.Summary()) {
		return fmt.Errorf("explanation at k=%g differs from the library", r.k)
	}
	return nil
}

// verifyReport rebuilds the bundle with the configuration the service
// derives from a query that sets only dataset, k, bonus and format. The
// bundle build and presentation are attributed only when the service
// built the bundle too; every request renders.
func verifyReport(ctx context.Context, c *cohort, r *request, body []byte, at *attrib) error {
	binary, _ := c.d.BinaryFairColumns()
	cfg := report.BundleConfig{
		Dataset:         c.name,
		Bonus:           r.bonus,
		K:               r.k,
		Margins:         report.DefaultMargins,
		IncludeFPR:      c.d.HasOutcomes(),
		IncludeExposure: binary && c.d.NumFair() > 0,
	}
	start := time.Now()
	st, err := report.BuildBundleStatsCtx(ctx, c.ev, cfg)
	if err != nil {
		return err
	}
	at.rec("core.bundle", start, 0)
	// The service caches the presented bundle and renders it per request,
	// so a cached report costs only the Render.
	start = time.Now()
	b := report.FromStats(c.ev, c.name, st)
	if at != nil && !at.cold {
		start = time.Now()
	}
	var buf bytes.Buffer
	if err := b.Render(&buf, r.format); err != nil {
		return err
	}
	if at != nil {
		at.t.record(at.op, at.parent, "report.render", start, int64(buf.Len()))
	}
	if !bytes.Equal(buf.Bytes(), body) {
		return fmt.Errorf("%s report at k=%g differs from the library", r.format, r.k)
	}
	return nil
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
