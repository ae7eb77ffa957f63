package core

import (
	"context"
	"fmt"
)

// Exposure-family evaluators (Section VI-C4/C5): per-capita exposure with
// its demographic disparity (DDP), the exposure/merit ratio, and the top-K
// rank-fairness share. All three are group metrics over the member sets of
// binary fairness attributes plus the unprotected rest, so they refuse
// continuous attributes up front instead of silently thresholding them —
// the paper drops the continuous ENI column for its exposure experiment,
// and callers do the same here by registering a dataset.WithFairColumns
// view restricted to the binary columns.
//
// Every entry point here is a query on the evaluation plan (batch.go):
// pointwise calls are one-query plans and sweeps run one plan per bonus
// group, so each metric's prefix fold and finisher exist once.

// exposureGuard validates the dataset capability every exposure-family
// metric needs: at least one fairness attribute, and all of them binary.
func (e *Evaluator) exposureGuard() error {
	if e.d.NumFair() == 0 {
		return fmt.Errorf("core: exposure metrics require at least one fairness attribute")
	}
	if ok, off := e.d.BinaryFairColumns(); !ok {
		return fmt.Errorf("core: exposure metrics require binary fairness attributes; %q is continuous (register a WithFairColumns view of the binary columns)", off)
	}
	return nil
}

// ExposureCtx returns the per-capita exposure vector of the top-k
// selection under the bonus vector — one entry per named group plus a
// trailing entry for the unprotected rest — together with the DDP, the
// maximum pairwise per-capita gap. Unpopulated groups map to 0; when fewer
// than two groups are populated the DDP is undefined and
// metrics.ErrDegenerateGroups is returned.
func (e *Evaluator) ExposureCtx(ctx context.Context, bonus []float64, k float64) ([]float64, float64, error) {
	a, err := e.answerOne(ctx, bonus, BatchQuery{Kind: BatchExposure, K: k})
	return a.Vector, a.Value, err
}

// ExposureRatioCtx returns the exposure/merit ratio vector of the top-k
// selection under the bonus vector: each named group's per-capita exposure
// within the prefix divided by its ground-truth-positive rate in the
// population. The dataset must carry outcomes. Zero denominators — a group
// absent from the prefix, empty, or without positives — yield 0, the FPR
// convention.
func (e *Evaluator) ExposureRatioCtx(ctx context.Context, bonus []float64, k float64) ([]float64, error) {
	a, err := e.answerOne(ctx, bonus, BatchQuery{Kind: BatchExpRatio, K: k})
	return a.Vector, err
}

// TopKShareCtx returns the top-K rank-fairness vector of the top-k
// selection under the bonus vector: each named group's share of the prefix
// minus its share of the whole cohort (positive means over-representation).
func (e *Evaluator) TopKShareCtx(ctx context.Context, bonus []float64, k float64) ([]float64, error) {
	a, err := e.answerOne(ctx, bonus, BatchQuery{Kind: BatchTopK, K: k})
	return a.Vector, err
}

// ExposureSweepCtx evaluates the per-capita exposure vector of every
// sweep point and returns the NumFair+1-wide rows in point order. A point
// whose prefix populates fewer than two groups fails the sweep with
// metrics.ErrDegenerateGroups wrapped with the point's index, like the
// nDCG sweep's zero-ideal case. See SweepCtx.
func (e *Evaluator) ExposureSweepCtx(ctx context.Context, points []SweepPoint) ([][]float64, error) {
	rows, _, err := e.SweepCtx(ctx, BatchExposure, points)
	return rows, err
}

// ExpRatioSweepCtx evaluates the exposure/merit ratio of every sweep
// point and returns the vectors in point order. The dataset must carry
// outcomes. See SweepCtx.
func (e *Evaluator) ExpRatioSweepCtx(ctx context.Context, points []SweepPoint) ([][]float64, error) {
	rows, _, err := e.SweepCtx(ctx, BatchExpRatio, points)
	return rows, err
}

// TopKSweepCtx evaluates the top-K rank-fairness share of every sweep
// point and returns the vectors in point order. See SweepCtx.
func (e *Evaluator) TopKSweepCtx(ctx context.Context, points []SweepPoint) ([][]float64, error) {
	rows, _, err := e.SweepCtx(ctx, BatchTopK, points)
	return rows, err
}
