// Package fairrank is a Go implementation of "Explainable Disparity
// Compensation for Efficient Fair Ranking" (Gale & Marian, ICDE 2024): a
// data-driven, explainable fairness intervention for score-based ranking
// functions.
//
// # The idea
//
// A ranking process selects the top k% of objects by a score f(o). When the
// underlying data is biased, the selection under- or over-represents
// protected groups; the disparity vector (Disparity) measures that gap as
// the centroid difference between the selected set and the population, one
// dimension per fairness attribute, each in [-1, 1] with 0 at statistical
// parity.
//
// Instead of opaquely re-ranking, fairrank computes compensatory bonus
// points: a vector B >= 0, one entry per fairness attribute, applied as
// f_b(o) = f(o) + A_f(o)·B (or subtracted for adverse selections such as
// risk flagging). Bonus points are transparent — they can be published in
// advance, compose across overlapping groups, and are directly
// interpretable ("English learners receive 11.5 points").
//
// The Disparity Compensation Algorithm (Train) finds B by a sampling-based
// descent that never touches the full dataset: its cost depends on the
// sample size max(1/k, 1/r), not on the population, making it sub-linear
// and fast enough for interactive what-if iteration.
//
// # The engine layer
//
// Underneath the training entry points sits internal/engine: a reusable,
// allocation-free selection and evaluation engine. Every descent step runs
// through a preallocated engine workspace (effective-score buffer,
// selection index buffer, per-dimension objective accumulators) and a
// single shared descent loop parameterized by a sample source and an
// update rule, so a step allocates nothing; objectives are validated once
// at bind time, not per step. Concurrency follows the same shape: ensemble
// training and the Evaluator's sweep methods fan out over a worker pool
// with one workspace per goroutine, and an Evaluator is safe for
// concurrent use. Results are bit-identical to a naive single-threaded
// implementation — aggregation is always done in deterministic order.
//
// Hold a Trainer to reuse the workspace across repeated runs on the same
// dataset (the interactive what-if loop); one-shot calls can keep using
// Train/TrainCore/TrainFull. Trainer and Evaluator methods take a
// context.Context first (TrainCtx, DisparityCtx, DisparitySweepCtx, ...);
// pass context.Background() where nothing cancels.
//
// # Quick start
//
//	d, _ := fairrank.GenerateSchool(fairrank.DefaultSchoolConfig())
//	scorer := fairrank.WeightedSum{Weights: fairrank.SchoolScoreWeights()}
//	res, _ := fairrank.Train(d, scorer, fairrank.DisparityObjective(0.05), fairrank.DefaultOptions())
//	fmt.Println(res.Bonus) // e.g. [1 11.5 12 12] for Low-Income, ELL, ENI, Special-Ed
//
// See the examples/ directory for complete programs, and internal/
// packages for the substrates (statistics, optimizers, baselines, deferred
// acceptance matching) the library is built on.
package fairrank

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"fairrank/internal/core"
	"fairrank/internal/csvio"
	"fairrank/internal/dataset"
	"fairrank/internal/matching"
	"fairrank/internal/metrics"
	"fairrank/internal/rank"
	"fairrank/internal/report"
	"fairrank/internal/service"
	"fairrank/internal/synth"
)

// Dataset is a columnar population of objects with score attributes,
// fairness attributes in [0, 1], and optional ground-truth outcomes.
type Dataset = dataset.Dataset

// Builder accumulates dataset rows.
type Builder = dataset.Builder

// NewBuilder returns a Builder for datasets with the given score and
// fairness attribute names.
func NewBuilder(scoreNames, fairNames []string) *Builder {
	return dataset.NewBuilder(scoreNames, fairNames)
}

// NewDataset assembles a dataset from column-major data; see
// dataset.New for the validation rules.
func NewDataset(scoreNames, fairNames []string, score, fair [][]float64, outcome []bool) (*Dataset, error) {
	return dataset.New(scoreNames, fairNames, score, fair, outcome)
}

// Scorer computes base (uncompensated) scores for every object.
type Scorer = rank.Scorer

// WeightedSum is a weighted-sum ranking function over score attributes.
type WeightedSum = rank.WeightedSum

// Precomputed wraps externally computed scores (e.g. a black-box model).
type Precomputed = rank.Precomputed

// Polarity states whether selection is beneficial (bonus added) or adverse
// (bonus subtracted; e.g. recidivism flagging).
type Polarity = rank.Polarity

// Selection polarities.
const (
	Beneficial = rank.Beneficial
	Adverse    = rank.Adverse
)

// Options configures a DCA run; see DefaultOptions for the paper's
// settings.
type Options = core.Options

// Result is the outcome of a DCA run: the rounded bonus vector plus
// diagnostics.
type Result = core.Result

// Objective is a pluggable fairness objective; DCA drives its vector to
// zero.
type Objective = core.Objective

// PrefixMetric is a per-selection fairness vector usable at a fixed k or
// under logarithmic discounting.
type PrefixMetric = core.PrefixMetric

// Evaluator measures the effect of bonus vectors on a full dataset.
type Evaluator = core.Evaluator

// DefaultOptions returns the paper's empirical DCA settings (sample size
// 500, learning-rate ladder {1.0, 0.1} x 100 steps, 100 Adam refinement
// steps, 0.5-point granularity).
func DefaultOptions() Options { return core.DefaultOptions() }

// Trainer runs DCA repeatedly over one dataset and ranking function,
// reusing the engine workspace and the precomputed base scores across
// runs — the cheapest way to drive interactive what-if iteration. Not
// safe for concurrent use; create one per goroutine.
type Trainer = core.Trainer

// NewTrainer returns a Trainer for the dataset under the given ranking
// function.
func NewTrainer(d *Dataset, scorer Scorer) *Trainer { return core.NewTrainer(d, scorer) }

// SweepPoint is one (bonus vector, selection fraction) evaluation of an
// Evaluator sweep (DisparitySweepCtx, NDCGSweepCtx, SweepCtx, ...); the
// sweep methods fan points over a worker pool.
type SweepPoint = core.SweepPoint

// Train runs the full DCA pipeline (Algorithm 1, Algorithm 2, rounding)
// and returns the bonus-point vector minimizing the objective.
func Train(d *Dataset, scorer Scorer, obj Objective, opts Options) (Result, error) {
	return core.Run(d, scorer, obj, opts)
}

// TrainCore runs Algorithm 1 only (no Adam refinement) — faster, rougher.
func TrainCore(d *Dataset, scorer Scorer, obj Objective, opts Options) (Result, error) {
	return core.CoreDCA(d, scorer, obj, opts)
}

// TrainFull runs the whole-dataset variant (Section IV-C), which satisfies
// the Theorem 4.1 swap guarantee exactly; O(n log n) per step.
func TrainFull(d *Dataset, scorer Scorer, obj Objective, opts Options) (Result, error) {
	return core.FullDCA(d, scorer, obj, opts)
}

// DisparityObjective returns the paper's primary objective: the disparity
// of the top-k selection (k a fraction in (0, 1]).
func DisparityObjective(k float64) Objective { return core.DisparityObjective(k) }

// ObjectiveByName constructs one of the named objectives at selection
// fraction k: "disparity", "logdisc", "di" or "fpr". It is the textual
// vocabulary shared by cmd/dca and the fairrankd service; validation (name
// and fraction) happens here, before any dataset is touched.
func ObjectiveByName(name string, k float64) (Objective, error) {
	return core.ObjectiveByName(name, k)
}

// ObjectiveNames lists the objective names ObjectiveByName understands.
func ObjectiveNames() []string { return core.ObjectiveNames() }

// LogDiscountedDisparity returns the whole-ranking objective of
// Section IV-E for unknown selection sizes, evaluated at fractions
// {step, 2*step, ..., maxK}.
func LogDiscountedDisparity(step, maxK float64) Objective {
	return core.LogDiscountedDisparity(step, maxK)
}

// DisparateImpactObjective returns the scaled disparate-impact objective
// at selection fraction k (binary fairness attributes only).
func DisparateImpactObjective(k float64) Objective { return core.DisparateImpactObjective(k) }

// FPRObjective returns the equalized-odds objective at selection fraction
// k: per-group false positive rates are driven toward the population FPR.
// The dataset must carry outcomes.
func FPRObjective(k float64) Objective { return core.FPRObjective(k) }

// RankStats summarizes an Evaluator's combo-run merge structure: the
// number of distinct fairness-combination runs g, the run-length spread,
// and the one-time partition + pre-sort cost paid at registration. Read
// it with Evaluator.RunStats or Service.RankStats; ok=false means the
// evaluator serves requests off the full-sort path instead.
type RankStats = rank.RunStats

// NewEvaluator builds an evaluator for measuring bonus vectors on a full
// dataset: disparity, nDCG utility, disparate impact, FPR differences, and
// nDCG-targeted proportional scaling.
func NewEvaluator(d *Dataset, scorer Scorer, pol Polarity) *Evaluator {
	return core.NewEvaluator(d, scorer, pol)
}

// ScaleBonus multiplies a bonus vector by w and rounds it to granularity —
// the utility/fairness trade-off knob of Section VI-A2.
func ScaleBonus(b []float64, w, granularity float64) []float64 {
	return core.Scale(b, w, granularity)
}

// Explanation is the transparency report of a bonus vector: the published
// cutoff, per-group selection counts, and the objects admitted or
// displaced by the compensation.
type Explanation = core.Explanation

// ObjectExplanation breaks one object's effective score into its published
// components.
type ObjectExplanation = core.ObjectExplanation

// Counterfactual is one object's answer to "what is the smallest change
// that flips my selection?": its standing against the published cutoff
// and the minimal score/bonus-point deltas, exact at float64 resolution.
// Compute them from a single ranking with
// Evaluator.CounterfactualBatchCtx, one or many objects at a time.
type Counterfactual = core.Counterfactual

// DisparityAttribution is the group-level leave-one-attribute-out
// decomposition of a bonus vector's disparity reduction, from
// Evaluator.AttributeDisparity.
type DisparityAttribution = core.Attribution

// AuditBundle is the versioned audit bundle of a bonus-point policy:
// published cutoff, per-attribute policy lines with attribution,
// beneficiary lists, and counterfactual margins at the cutoff. Render it
// as JSON, CSV, or Markdown.
type AuditBundle = report.Bundle

// AuditConfig parameterizes BuildAuditBundle.
type AuditConfig = report.BundleConfig

// AuditBundleVersion is the schema version BuildAuditBundle stamps into
// bundles.
const AuditBundleVersion = report.BundleVersion

// BuildAuditBundle assembles the audit bundle for a bonus policy at
// fraction cfg.K on the evaluator's dataset. It rejects empty datasets,
// missing or all-zero policies, and FPR requests without outcomes — an
// audit must have something real to audit.
func BuildAuditBundle(ev *Evaluator, cfg AuditConfig) (*AuditBundle, error) {
	return report.BuildBundleCtx(context.Background(), ev, cfg)
}

// EnsembleResult aggregates DCA runs across independent seeds.
type EnsembleResult = core.EnsembleResult

// TrainEnsemble runs DCA under `runs` consecutive seeds and returns the
// per-dimension mean/std of the raw vectors plus the stabilized cross-seed
// bonus vector.
func TrainEnsemble(d *Dataset, scorer Scorer, obj Objective, opts Options, runs int) (EnsembleResult, error) {
	return core.Ensemble(d, scorer, obj, opts, runs)
}

// Disparity returns the disparity vector of a selection over the dataset
// (Definition 3 of the paper).
func Disparity(d *Dataset, selected []int) []float64 { return metrics.Disparity(d, selected) }

// Norm returns the L2 norm of a fairness vector, the scalar DCA minimizes.
func Norm(v []float64) float64 { return metrics.Norm(v) }

// SchoolConfig parameterizes the synthetic NYC-schools-like generator.
type SchoolConfig = synth.SchoolConfig

// CompasConfig parameterizes the synthetic COMPAS-like generator.
type CompasConfig = synth.CompasConfig

// DefaultSchoolConfig returns the generator configuration calibrated to
// the paper's Table I baseline disparity.
func DefaultSchoolConfig() SchoolConfig { return synth.DefaultSchoolConfig() }

// DefaultCompasConfig returns the generator configuration calibrated to
// the published COMPAS marginals.
func DefaultCompasConfig() CompasConfig { return synth.DefaultCompasConfig() }

// GenerateSchool synthesizes a school cohort; see the synth package for
// the substitution rationale (the original records are IRB-protected).
func GenerateSchool(cfg SchoolConfig) (*Dataset, error) { return synth.GenerateSchool(cfg) }

// GenerateCompas synthesizes a recidivism dataset with ground-truth
// outcomes.
func GenerateCompas(cfg CompasConfig) (*Dataset, error) { return synth.GenerateCompas(cfg) }

// SchoolScoreWeights is the paper's admission rubric over the school score
// columns: f = 0.55*GPA + 0.45*TestScores.
func SchoolScoreWeights() []float64 { return synth.SchoolScoreWeights() }

// CompasScoreWeights ranks by decile score with an infinitesimal
// tie-break.
func CompasScoreWeights() []float64 { return synth.CompasScoreWeights() }

// WriteCSV serializes a dataset with the self-describing score:/fair:
// header convention.
func WriteCSV(w io.Writer, d *Dataset) error { return csvio.Write(w, d) }

// ReadCSV parses a dataset written by WriteCSV.
func ReadCSV(r io.Reader) (*Dataset, error) { return csvio.Read(r) }

// ParseWeights parses a comma-separated score-weight list (the -weights
// flag vocabulary of cmd/dca and cmd/fairrankd) into a WeightedSum weight
// vector, rejecting non-finite entries: a single NaN or Inf weight would
// silently poison every base score. An empty spec returns nil (callers
// substitute equal weights).
func ParseWeights(spec string) ([]float64, error) {
	if spec == "" {
		return nil, nil
	}
	parts := strings.Split(spec, ",")
	out := make([]float64, len(parts))
	for j, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("fairrank: bad weight %q: %w", p, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("fairrank: weight %q is not finite", p)
		}
		out[j] = v
	}
	return out, nil
}

// EqualWeights returns the uniform weight vector over n score columns.
func EqualWeights(n int) []float64 {
	w := make([]float64, n)
	for j := range w {
		w[j] = 1 / float64(n)
	}
	return w
}

// ReadCSVFile loads a dataset from a CSV file, propagating the Close
// error when the parse succeeded (a failed close can mean truncated reads
// on some filesystems).
func ReadCSVFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	d, err := csvio.Read(f)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("fairrank: closing %s: %w", path, cerr)
	}
	return d, err
}

// Service is the HTTP layer behind cmd/fairrankd: a registry of datasets
// (each with a shared concurrent Evaluator and a pooled set of Trainers),
// an LRU cache of deterministic train results, and JSON handlers for
// what-if training, evaluation sweeps, and transparency reports. Embed it
// to mount fair-ranking endpoints inside an existing server:
//
//	s := fairrank.NewService(fairrank.ServiceConfig{})
//	s.Register("school", d, scorer, fairrank.Beneficial)
//	http.ListenAndServe(":8080", s.Handler())
type Service = service.Server

// ServiceConfig parameterizes a Service; the zero value is usable.
type ServiceConfig = service.Config

// ServiceTimeouts carries the per-endpoint request deadlines of a
// ServiceConfig; zero fields mean no deadline for that endpoint.
type ServiceTimeouts = service.Timeouts

// NewService returns a Service with no datasets registered.
func NewService(cfg ServiceConfig) *Service { return service.New(cfg) }

// School is one school in a deferred-acceptance match: a capacity, an
// optional number of set-aside seats, and a rubric score per student.
// Bonus-adjusted rubrics are expressed by passing adjusted scores.
type School = matching.School

// Match is the outcome of a deferred-acceptance run.
type Match = matching.Match

// DeferredAcceptance runs student-proposing deferred acceptance — the NYC
// admissions mechanism of the paper's motivating scenario — over the
// students' preference lists and the schools' (possibly bonus-adjusted)
// rubrics. Because the mechanism decides how far down each school's list
// admission reaches, the selection fraction k is unknown in advance; pair
// it with LogDiscountedDisparity.
func DeferredAcceptance(prefs [][]int, schools []School, disadvantaged []bool) (Match, error) {
	return matching.DeferredAcceptance(prefs, schools, disadvantaged)
}

// BlockingPair reports a student-school pair violating stability of a
// match, or (-1, -1) if the match is stable.
func BlockingPair(prefs [][]int, schools []School, disadvantaged []bool, m Match) (student, school int) {
	return matching.BlockingPair(prefs, schools, disadvantaged, m)
}
