// Package service implements fairrankd: an HTTP JSON layer that serves
// what-if DCA training, evaluation sweeps, transparency reports,
// counterfactual explanations, and audit bundles over a registry of
// in-memory datasets.
//
// The paper's efficiency argument — sampled DCA is cheap enough for
// interactive what-if iteration — is realized here as a request/response
// loop: a policy maker posts an objective, a selection fraction, and a
// granularity, and gets a bonus vector plus its measured effect back in
// milliseconds. The layer mirrors the deployment framing of exposure-style
// fair ranking services, where the fairness intervention must answer per
// request, not per batch.
//
// Concurrency model:
//
//   - Each registered dataset owns one shared core.Evaluator (safe for
//     concurrent use; its sweeps already fan over the engine worker pool)
//     and a bounded pool of core.Trainers (a Trainer owns a workspace and
//     serves one train at a time; the pool hands one to each in-flight
//     train request, cloning the prototype — which shares the precomputed
//     base scores — when the pool runs dry). A train prefetches its sample
//     schedule on a helper goroutine while (trains in flight) × 2 ≤
//     GOMAXPROCS, and returns only after the helper has exited.
//   - Train results are cached in an LRU keyed by the normalized request,
//     so repeated what-if queries cost a map lookup. Training is
//     deterministic given (dataset, objective, options, seed), which makes
//     the cache exact, not heuristic.
//   - Evaluate sweeps are cached per point: each (dataset, metric, bonus,
//     k) row is its own LRU entry, so a cached sweep answers any subset of
//     its k-grid and a widened grid only computes the new cuts — on one
//     ranking, through the core evaluation plan.
//   - Every read endpoint and the post-train diagnostics reach the core
//     through Server.answer: one plan per request, or one per micro-batch
//     window when batching is enabled and the bonus is non-zero.
//   - Counterfactuals are cached per object — each (dataset, bonus, k,
//     object) answer is its own LRU entry — and audit bundles per
//     (dataset, bonus, k, margins, fpr) build, independent of the
//     rendering format: one build serves JSON, CSV, and Markdown.
//   - Concurrent identical cold requests (train, evaluate,
//     counterfactual, report) are coalesced: one leader runs the
//     pipeline, the rest share its result.
//
// Handlers:
//
//	POST /v1/train           what-if DCA run (objective, k, granularity, seed…)
//	POST /v1/evaluate        disparity/nDCG/disparate-impact/FPR sweep over points
//	POST /v1/counterfactual  per-object minimal flip deltas (cached per object)
//	GET  /v1/explain         transparency report for a bonus vector
//	GET  /v1/report          versioned audit bundle (JSON/CSV/Markdown)
//	GET  /v1/datasets        registry listing
//	GET  /healthz            liveness + registry size
package service
