// Package core implements the paper's primary contribution: the Disparity
// Compensation Algorithm (DCA).
//
// DCA searches for a vector of compensatory bonus points B >= 0 that, when
// combined with the fairness attributes of each object
// (f_b(o) = f(o) ± A_f·B, Definition 2), minimizes the L2 norm of a
// fairness objective vector. The search cannot use gradients — top-k
// selection makes the objective a step function — so DCA descends along the
// objective vector itself, evaluated on small random samples:
//
//   - CoreDCA (Algorithm 1): a ladder of decreasing learning rates; each
//     step draws a fresh sample, measures the objective of the top-k
//     selection under the current bonus vector, and moves the vector
//     against it.
//   - Refine (Algorithm 2): Adam-driven steps on epoch samples followed by
//     a rolling average of the iterates and rounding to a stakeholder
//     granularity.
//   - Run: the full pipeline (Core + Refine + rounding) the paper calls
//     "DCA".
//   - FullDCA: the whole-dataset variant of Section IV-C, which satisfies
//     the swap guarantee of Theorem 4.1 and is used to validate the sampled
//     algorithm.
//
// The objective is pluggable (Section VI-C5). Any PrefixMetric — a
// fairness vector of a selected prefix, one dimension per fairness
// attribute, bounded in [-1, 1] and zero at parity — can be optimized at a
// fixed selection fraction or under the logarithmic discounting of
// Section IV-E, which covers every combination the paper evaluates:
// disparity@k, log-discounted disparity, disparate impact, and false
// positive rate differences.
//
// # Evaluation and explanation
//
// Measuring a bonus vector's full-population effect goes through the
// Evaluator, which precomputes the base scores and the uncompensated
// ranking once and is safe for concurrent use (pooled engine workspaces).
// Every evaluator entry point is a query on one evaluation plan
// (batch.go): a plan validates its queries once, ranks once through
// rankedPrefixWS (ranked-order memo, combo-run merge, bounded-heap prefix
// or full order), and answers each query from that order — metric kinds
// through one prefix fold and finisher each, counterfactuals,
// explanations and audit bundles through their own readers of the same
// order. The plan leaves its order in the evaluator's one-slot memo, so
// the next request on the same bonus vector reads it instead of ranking.
//
//   - Pointwise metrics (DisparityCtx, NDCGCtx, DisparateImpact, FPRDiff,
//     ExposureCtx, ExposureRatioCtx, TopKShareCtx) are one-query plans.
//   - SweepCtx and the seven *SweepCtx adapters group points by bonus
//     vector and run one plan per group on the worker pool, answering
//     every selection fraction from prefix aggregates.
//   - AnswerBatchCtx runs a caller's heterogeneous queries as one plan;
//     the service micro-batcher is built on it.
//
// The explainability workloads are queries of the same plan:
//
//   - ExplainCtx publishes the transparency report of Section III-C (cutoff,
//     per-group counts, beneficiaries); ExplainObject breaks one object's
//     effective score into its published components.
//   - CounterfactualBatchCtx answers "what is the smallest
//     score or bonus change that flips this object's selection?" exactly:
//     the flip is decided against a single boundary competitor in the
//     ranked order, and a binary search over float64 bit patterns returns
//     the smallest representable delta that flips (counterfactual.go).
//   - BundleStatsCtx computes every audit-bundle quantity, adding one
//     leave-one-out prefix per attribute with a non-zero bonus.
//   - AttributeDisparity decomposes the policy's disparity reduction by
//     leaving each attribute's bonus out in turn — the group-level
//     attribution behind the audit bundles of internal/report.
//
// Every entry point that takes a bonus vector treats nil as the zero
// vector and rejects any other length than NumFair before ranking. Entry
// points that rank or train take a context.Context first and have no
// context-free twin: callers with nothing to cancel pass
// context.Background(), and a guard test keeps it that way.
package core
