package service

import (
	"fmt"
	"math"
	"strconv"

	"fairrank/internal/core"
	"fairrank/internal/rank"
)

// MaxSweepPoints bounds one /v1/evaluate request: enough for a dense
// trade-off curve, small enough that a single request cannot monopolize
// the worker pool.
const MaxSweepPoints = 4096

// Train modes.
const (
	// ModeFull is the paper's full pipeline: Algorithm 1 + Adam refinement
	// + rounding. The default.
	ModeFull = "full"
	// ModeCore is Algorithm 1 only — faster, rougher.
	ModeCore = "core"
	// ModeWhole is the whole-dataset variant of Section IV-C.
	ModeWhole = "whole"
)

// TrainRequest is the body of POST /v1/train: one what-if DCA run.
// Omitted fields default to the paper's settings (sample 500, seed 1,
// granularity 0.5, 100 refinement steps, objective "disparity").
type TrainRequest struct {
	Dataset   string  `json:"dataset"`
	Objective string  `json:"objective,omitempty"`
	K         float64 `json:"k"`
	Mode      string  `json:"mode,omitempty"`
	// SampleSize is the per-step sample size (ignored by mode "whole").
	SampleSize int   `json:"sample_size,omitempty"`
	Seed       int64 `json:"seed,omitempty"`
	// Granularity and RefineSteps are pointers so an explicit 0 (disable
	// rounding / skip refinement) is distinguishable from absent.
	Granularity *float64 `json:"granularity,omitempty"`
	MaxBonus    float64  `json:"max_bonus,omitempty"`
	RefineSteps *int     `json:"refine_steps,omitempty"`
}

// trainParams is a normalized, validated TrainRequest: defaults applied,
// objective constructed, ready to key the cache and drive a trainer.
type trainParams struct {
	req  TrainRequest // normalized copy (defaults filled in)
	mode string
	obj  core.Objective
	opts core.Options
}

// normalize validates the request and applies the paper defaults. All
// validation happens here — before any dataset or trainer is touched — so
// a malformed what-if query costs nothing but the parse.
func (r TrainRequest) normalize() (*trainParams, error) {
	p := &trainParams{req: r}
	if p.req.Dataset == "" {
		return nil, fmt.Errorf("missing dataset")
	}
	if p.req.Objective == "" {
		p.req.Objective = "disparity"
	}
	obj, err := core.ObjectiveByName(p.req.Objective, p.req.K)
	if err != nil {
		return nil, err
	}
	p.obj = obj
	switch p.req.Mode {
	case "", ModeFull:
		p.req.Mode = ModeFull
	case ModeCore, ModeWhole:
	default:
		return nil, fmt.Errorf("unknown mode %q (want %s, %s or %s)", p.req.Mode, ModeFull, ModeCore, ModeWhole)
	}
	p.mode = p.req.Mode

	p.opts = core.DefaultOptions()
	if p.req.SampleSize != 0 {
		if p.req.SampleSize < 0 {
			return nil, fmt.Errorf("sample_size must be positive, got %d", p.req.SampleSize)
		}
		p.opts.SampleSize = p.req.SampleSize
	}
	p.req.SampleSize = p.opts.SampleSize
	if p.req.Seed != 0 {
		p.opts.Seed = p.req.Seed
	}
	p.req.Seed = p.opts.Seed
	if p.req.Granularity != nil {
		g := *p.req.Granularity
		if math.IsNaN(g) || math.IsInf(g, 0) || g < 0 {
			return nil, fmt.Errorf("granularity must be finite and non-negative, got %v", g)
		}
		p.opts.Granularity = g
	} else {
		g := p.opts.Granularity
		p.req.Granularity = &g
	}
	if math.IsNaN(p.req.MaxBonus) || math.IsInf(p.req.MaxBonus, 0) || p.req.MaxBonus < 0 {
		return nil, fmt.Errorf("max_bonus must be finite and non-negative, got %v", p.req.MaxBonus)
	}
	p.opts.MaxBonus = p.req.MaxBonus
	if p.req.RefineSteps != nil {
		if *p.req.RefineSteps < 0 {
			return nil, fmt.Errorf("refine_steps must be non-negative, got %d", *p.req.RefineSteps)
		}
		p.opts.RefineSteps = *p.req.RefineSteps
	} else {
		rs := p.opts.RefineSteps
		p.req.RefineSteps = &rs
	}
	// Canonicalize fields the chosen mode ignores, so equal what-ifs
	// share one cache entry: "whole" trains on the entire population
	// (sample size and refinement are overridden by TrainFullCtx), "core"
	// skips refinement.
	zero := 0
	switch p.mode {
	case ModeWhole:
		p.req.SampleSize = 0
		p.req.RefineSteps = &zero
	case ModeCore:
		p.req.RefineSteps = &zero
	}
	return p, nil
}

// cacheKey identifies a normalized request. Training is deterministic in
// these fields (plus the dataset's registered polarity, implied by the
// dataset name), so equal keys mean bit-identical results.
func (p *trainParams) cacheKey() string {
	return fmt.Sprintf("%s|%s|%g|%s|%d|%d|%g|%g|%d",
		p.req.Dataset, p.req.Objective, p.req.K, p.mode,
		p.req.SampleSize, p.req.Seed, *p.req.Granularity, p.req.MaxBonus, *p.req.RefineSteps)
}

// TrainResponse is the answer to one what-if run: the bonus vector plus
// its measured full-population effect at the requested fraction.
type TrainResponse struct {
	Dataset   string  `json:"dataset"`
	Objective string  `json:"objective"`
	K         float64 `json:"k"`
	Mode      string  `json:"mode"`
	Seed      int64   `json:"seed"`
	Polarity  string  `json:"polarity"`

	FairNames []string  `json:"fair_names"`
	Bonus     []float64 `json:"bonus"`
	Raw       []float64 `json:"raw"`
	CoreBonus []float64 `json:"core_bonus"`
	Steps     int       `json:"steps"`

	DisparityBefore []float64 `json:"disparity_before"`
	DisparityAfter  []float64 `json:"disparity_after"`
	NormBefore      float64   `json:"norm_before"`
	NormAfter       float64   `json:"norm_after"`
	NDCG            float64   `json:"ndcg"`

	ElapsedMicros int64 `json:"elapsed_us"`
	// Cached reports whether this response was served from the result
	// cache (training skipped entirely).
	Cached bool `json:"cached"`
}

// SweepPointRequest is one (bonus, k) evaluation point.
type SweepPointRequest struct {
	Bonus []float64 `json:"bonus"`
	K     float64   `json:"k"`
}

// EvaluateRequest is the body of POST /v1/evaluate: a metric sweep over
// evaluation points, answered by the prefix-sweep engine (points sharing a
// bonus vector are ranked once; every k comes from prefix aggregates).
type EvaluateRequest struct {
	Dataset string `json:"dataset"`
	// Metric names a row of the service metric registry (metrics.go):
	// "disparity", "di" (vectors + L2 norms), "ndcg" (values), "fpr"
	// (vectors + L2 norms; the dataset must carry outcomes), "exposure"
	// (per-capita vectors + DDP norms; binary fairness attributes),
	// "expratio" (vectors; binary attributes AND outcomes), or "topk"
	// (vectors; binary attributes).
	Metric string              `json:"metric"`
	Points []SweepPointRequest `json:"points"`
}

// validate checks everything that does not need the dataset; dims is the
// fairness dimensionality of the resolved dataset.
func (r EvaluateRequest) validate(dims int) error {
	if _, ok := metricByName(r.Metric); !ok {
		return fmt.Errorf("unknown metric %q (want %s)", r.Metric, metricWantList())
	}
	if len(r.Points) == 0 {
		return fmt.Errorf("no evaluation points")
	}
	if len(r.Points) > MaxSweepPoints {
		return fmt.Errorf("%d evaluation points exceed the limit of %d", len(r.Points), MaxSweepPoints)
	}
	for i, pt := range r.Points {
		if err := rank.CheckFraction(pt.K); err != nil {
			return fmt.Errorf("point %d: %v", i, err)
		}
		// A nil bonus means "the uncompensated ranking"; anything else
		// must be a full non-negative vector.
		if pt.Bonus == nil {
			continue
		}
		if len(pt.Bonus) != dims {
			return fmt.Errorf("point %d: bonus has %d dimensions, dataset has %d", i, len(pt.Bonus), dims)
		}
		for j, b := range pt.Bonus {
			if math.IsNaN(b) || math.IsInf(b, 0) || b < 0 {
				return fmt.Errorf("point %d: bonus dimension %d is %v, want finite and non-negative", i, j, b)
			}
		}
	}
	return nil
}

// EvaluateResponse carries the sweep results in point order. Vector
// metrics set Vectors and Norms ("exposure" norms are the DDP of the
// per-capita vector; every other vector metric norms with L2); scalar
// metrics ("ndcg") set Values.
type EvaluateResponse struct {
	Dataset   string      `json:"dataset"`
	Metric    string      `json:"metric"`
	FairNames []string    `json:"fair_names"`
	Vectors   [][]float64 `json:"vectors,omitempty"`
	Norms     []float64   `json:"norms,omitempty"`
	Values    []float64   `json:"values,omitempty"`
	// CachedPoints reports how many of the requested points were answered
	// from the per-point sweep cache (a cached sweep answers any subset of
	// its k-grid; only the remaining cuts are computed).
	CachedPoints int `json:"cached_points"`
}

// appendBonusSig appends the canonical signature of a bonus vector: "0"
// for nil or all-zero (both mean the uncompensated ranking), otherwise the
// exact bit pattern of every dimension. Exact bits make the sweep cache
// exact: equal signatures imply bit-identical rows.
func appendBonusSig(b []byte, bonus []float64) []byte {
	zero := true
	for _, v := range bonus {
		if v != 0 {
			zero = false
			break
		}
	}
	if zero {
		return append(b, '0')
	}
	for j, v := range bonus {
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, math.Float64bits(v), 16)
	}
	return b
}

// pointKey identifies one (dataset, metric, bonus, k) sweep row in the
// result cache.
func pointKey(dataset, metric string, pt SweepPointRequest) string {
	b := make([]byte, 0, 64)
	b = append(b, "sweep|"...)
	b = append(b, dataset...)
	b = append(b, '|')
	b = append(b, metric...)
	b = append(b, '|')
	b = appendBonusSig(b, pt.Bonus)
	b = append(b, '|')
	b = strconv.AppendUint(b, math.Float64bits(pt.K), 16)
	return string(b)
}

// requestKey identifies a whole evaluate request for coalescing: two
// requests coalesce only when dataset, metric, and every point agree
// exactly.
func (r EvaluateRequest) requestKey() string {
	b := make([]byte, 0, 64+32*len(r.Points))
	b = append(b, "eval|"...)
	b = append(b, r.Dataset...)
	b = append(b, '|')
	b = append(b, r.Metric...)
	for _, pt := range r.Points {
		b = append(b, '|')
		b = appendBonusSig(b, pt.Bonus)
		b = append(b, '@')
		b = strconv.AppendUint(b, math.Float64bits(pt.K), 16)
	}
	return string(b)
}

// MaxCounterfactualObjects bounds one /v1/counterfactual request, mirroring
// MaxSweepPoints: a request pays one ranking regardless of how many objects
// it asks about, but the response size stays bounded.
const MaxCounterfactualObjects = 4096

// MaxReportMargins bounds the ?margins= window of /v1/report on each side
// of the cutoff, so a single audit bundle cannot carry a
// population-sized margin table into the shared LRU.
const MaxReportMargins = MaxCounterfactualObjects / 2

// CounterfactualRequest is the body of POST /v1/counterfactual: for each
// listed object, the minimal score/bonus change that flips its selection
// under the bonus vector at fraction k. A nil bonus audits the
// uncompensated ranking.
type CounterfactualRequest struct {
	Dataset string    `json:"dataset"`
	Bonus   []float64 `json:"bonus"`
	K       float64   `json:"k"`
	Objects []int     `json:"objects"`
}

// validate checks everything that does not need the dataset; dims is the
// fairness dimensionality of the resolved dataset. Object-range checks
// need the population size and happen in the handler.
func (r CounterfactualRequest) validate(dims int) error {
	if err := rank.CheckFraction(r.K); err != nil {
		return err
	}
	if len(r.Objects) == 0 {
		return fmt.Errorf("no objects")
	}
	if len(r.Objects) > MaxCounterfactualObjects {
		return fmt.Errorf("%d objects exceed the limit of %d", len(r.Objects), MaxCounterfactualObjects)
	}
	if r.Bonus != nil {
		if len(r.Bonus) != dims {
			return fmt.Errorf("bonus has %d dimensions, dataset has %d", len(r.Bonus), dims)
		}
		for j, b := range r.Bonus {
			if math.IsNaN(b) || math.IsInf(b, 0) || b < 0 {
				return fmt.Errorf("bonus dimension %d is %v, want finite and non-negative", j, b)
			}
		}
	}
	return nil
}

// objectKey identifies one (dataset, bonus, k, object) counterfactual in
// the result cache; like sweep rows, counterfactuals are cached per object
// so any earlier request that covered an object answers it.
func (r CounterfactualRequest) objectKey(obj int) string {
	b := make([]byte, 0, 64)
	b = append(b, "cf|"...)
	b = append(b, r.Dataset...)
	b = append(b, '|')
	b = appendBonusSig(b, r.Bonus)
	b = append(b, '|')
	b = strconv.AppendUint(b, math.Float64bits(r.K), 16)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(obj), 10)
	return string(b)
}

// requestKey identifies a whole counterfactual request for coalescing.
func (r CounterfactualRequest) requestKey() string {
	b := make([]byte, 0, 64+8*len(r.Objects))
	b = append(b, "cfreq|"...)
	b = append(b, r.Dataset...)
	b = append(b, '|')
	b = appendBonusSig(b, r.Bonus)
	b = append(b, '@')
	b = strconv.AppendUint(b, math.Float64bits(r.K), 16)
	for _, obj := range r.Objects {
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(obj), 10)
	}
	return string(b)
}

// CounterfactualResult is one object's answer: its standing relative to
// the published cutoff and the minimal deltas that flip it. Fields mirror
// core.Counterfactual.
type CounterfactualResult struct {
	Object       int       `json:"object"`
	Selected     bool      `json:"selected"`
	Rank         int       `json:"rank"`
	Effective    float64   `json:"effective"`
	Cutoff       float64   `json:"cutoff"`
	Competitor   int       `json:"competitor"`
	ScoreDelta   float64   `json:"score_delta"`
	BonusDelta   float64   `json:"bonus_delta"`
	PerAttribute []float64 `json:"per_attribute"`
	Feasible     bool      `json:"feasible"`
}

// CounterfactualResponse carries the per-object results in request order.
type CounterfactualResponse struct {
	Dataset   string                 `json:"dataset"`
	K         float64                `json:"k"`
	FairNames []string               `json:"fair_names"`
	Results   []CounterfactualResult `json:"results"`
	// CachedObjects reports how many objects were answered from the
	// per-object cache; only the rest paid for the shared ranking.
	CachedObjects int `json:"cached_objects"`
}

// reportKey identifies a built audit bundle in the result cache. The
// rendering format is deliberately absent: the cache stores the bundle,
// and each request renders its own format from it.
func reportKey(dataset string, bonus []float64, k float64, margins int, fpr, exposure bool) string {
	b := make([]byte, 0, 64)
	b = append(b, "report|"...)
	b = append(b, dataset...)
	b = append(b, '|')
	b = appendBonusSig(b, bonus)
	b = append(b, '|')
	b = strconv.AppendUint(b, math.Float64bits(k), 16)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(margins), 10)
	b = append(b, '|')
	if fpr {
		b = append(b, '1')
	} else {
		b = append(b, '0')
	}
	if exposure {
		b = append(b, 'e')
	}
	return string(b)
}

// httpError carries a status code through the coalescing layer, so every
// caller sharing a failed flight answers with the leader's status.
type httpError struct {
	status int
	msg    string
	// retryAfter, when positive, becomes a Retry-After header (seconds).
	// Set on load-shed and drain rejections: those are transient by
	// construction, and the header tells clients to back off instead of
	// hammering a saturated server.
	retryAfter int
}

func (e *httpError) Error() string { return e.msg }

// ObjectExplainResponse breaks one object's effective score into its
// published components (GET /v1/explain with ?object=).
type ObjectExplainResponse struct {
	Object       int       `json:"object"`
	BaseScore    float64   `json:"base_score"`
	BonusTotal   float64   `json:"bonus_total"`
	PerAttribute []float64 `json:"per_attribute"`
	Effective    float64   `json:"effective"`
	Selected     bool      `json:"selected"`
	Margin       float64   `json:"margin"`
}

// ExplainResponse is the transparency report as JSON: the published
// cutoff, per-group selection counts, and the objects admitted or
// displaced by the compensation.
type ExplainResponse struct {
	Dataset          string                 `json:"dataset"`
	K                float64                `json:"k"`
	Selected         int                    `json:"selected"`
	Cutoff           float64                `json:"cutoff"`
	BaseCutoff       float64                `json:"base_cutoff"`
	Bonus            []float64              `json:"bonus"`
	FairNames        []string               `json:"fair_names"`
	GroupCounts      []int                  `json:"group_counts"`
	BaseGroupCounts  []int                  `json:"base_group_counts"`
	AdmittedByBonus  []int                  `json:"admitted_by_bonus"`
	DisplacedByBonus []int                  `json:"displaced_by_bonus"`
	Summary          []string               `json:"summary"`
	Object           *ObjectExplainResponse `json:"object,omitempty"`
}

// DatasetInfo is one /v1/datasets listing entry.
type DatasetInfo struct {
	Name        string   `json:"name"`
	N           int      `json:"n"`
	ScoreNames  []string `json:"score_names"`
	FairNames   []string `json:"fair_names"`
	Polarity    string   `json:"polarity"`
	HasOutcomes bool     `json:"has_outcomes"`
	// RankStats describes the dataset's combo-run merge decomposition;
	// absent when the partition declined (too many distinct fairness
	// rows) and every request takes the full-sort path.
	RankStats *RankStatsInfo `json:"rank_stats,omitempty"`
}

// RankStatsInfo reports a dataset's combo-run decomposition — the
// pre-sorted run structure behind merge-served cold rankings.
type RankStatsInfo struct {
	// Runs is g, the number of distinct fairness-attribute combinations.
	Runs int `json:"runs"`
	// MinRunLen/MedianRunLen/MaxRunLen summarize run sizes.
	MinRunLen    int `json:"min_run_len"`
	MedianRunLen int `json:"median_run_len"`
	MaxRunLen    int `json:"max_run_len"`
	// BuildMicros is the one-time registration cost of partitioning the
	// cohort into runs dealt from the evaluator's cached base order, in
	// microseconds.
	BuildMicros int64 `json:"build_us"`
	// MergeCount, RankingCount and MemoHits are the evaluator's lifetime
	// counters: prefix requests answered by the g-way merge, by a
	// full-population ranking pass, and by the ranked-order memo (a
	// bonus vector an earlier request had already ranked far enough).
	MergeCount   int64 `json:"merge_count"`
	RankingCount int64 `json:"ranking_count"`
	MemoHits     int64 `json:"memo_hits"`
	// BatchFlushes counts this dataset's micro-batch flushes and
	// BatchedRequests the member requests they served; their ratio is the
	// coalesce factor. Both stay zero with micro-batching disabled.
	BatchFlushes    int64 `json:"batch_flushes"`
	BatchedRequests int64 `json:"batched_requests"`
}

// HealthResponse is the /healthz body: liveness plus the handful of
// gauges the serve-smoke CI job and operators watch. Goroutines is the
// leak canary — it must return to its baseline once in-flight work
// drains.
type HealthResponse struct {
	Status        string `json:"status"`
	UptimeMillis  int64  `json:"uptime_ms"`
	Datasets      int    `json:"datasets"`
	CachedResults int    `json:"cached_results"`
	Goroutines    int    `json:"goroutines"`
	InFlight      int    `json:"in_flight"`
	ShedTotal     int64  `json:"shed_total"`
	// Micro-batching gauges: windows flushed, member requests served
	// through a batch, the largest batch so far, and the windows open
	// right now. All zero with batching disabled.
	BatchFlushes    int64 `json:"batch_flushes"`
	BatchedRequests int64 `json:"batched_requests"`
	BatchLargest    int64 `json:"batch_largest"`
	BatchWindows    int   `json:"batch_windows"`
	Draining        bool  `json:"draining"`
}

// ReadyResponse is the /readyz body. Ready means registration finished
// (MarkReady was called) and the server is not draining; load balancers
// route on it, so it flips to false at the first drain signal while
// /healthz stays "ok" for the whole shutdown.
type ReadyResponse struct {
	Ready    bool `json:"ready"`
	Draining bool `json:"draining"`
	Datasets int  `json:"datasets"`
}

// ErrorResponse is every non-2xx JSON body.
type ErrorResponse struct {
	Error string `json:"error"`
}
