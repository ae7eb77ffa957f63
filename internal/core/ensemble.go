package core

import (
	"context"
	"fmt"
	"math"

	"fairrank/internal/dataset"
	"fairrank/internal/engine"
	"fairrank/internal/rank"
)

// EnsembleResult aggregates DCA runs across independent seeds. The paper's
// refinement pass exists to tame sampling noise (Section VI-A5); the
// ensemble quantifies the residual seed-to-seed variability and offers the
// cross-seed mean as a further-stabilized vector.
type EnsembleResult struct {
	// Bonus is the cross-seed mean of the raw (unrounded) vectors, rounded
	// to the option granularity.
	Bonus []float64
	// Mean and Std are the per-dimension statistics of the raw vectors.
	Mean []float64
	Std  []float64
	// Runs holds the individual results, in seed order.
	Runs []Result
}

// Ensemble runs DCA with seeds opts.Seed, opts.Seed+1, ..., opts.Seed+runs-1
// and aggregates the raw bonus vectors. Runs execute on the engine's
// worker pool with one workspace per goroutine, sharing the precomputed
// base scores (they are independent and the dataset is read-only); the
// result is deterministic regardless of scheduling because aggregation
// happens in seed order. runs must be at least 1.
func Ensemble(d *dataset.Dataset, scorer rank.Scorer, obj Objective, opts Options, runs int) (EnsembleResult, error) {
	if runs < 1 {
		return EnsembleResult{}, fmt.Errorf("core: ensemble of %d runs", runs)
	}
	results := make([]Result, runs)
	errs := make([]error, runs)
	base := scorer.BaseScores(d) // shared, read-only across workers
	dims := d.NumFair()
	newWS := func() *engine.Workspace { return engine.NewWorkspace(dims) }
	// A background context is never canceled, so the error is always nil.
	_ = engine.ForEachWSCtx(context.Background(), runs, newWS, func(*engine.Workspace) {}, func(ws *engine.Workspace, r int) {
		o := opts
		o.Seed = opts.Seed + int64(r)
		o.Trace = nil // trace hooks are not safe to share across goroutines
		t := newTrainer(d, base, ws)
		results[r], errs[r] = t.TrainCtx(context.Background(), obj, o)
	})

	sum := make([]float64, dims)
	sumSq := make([]float64, dims)
	out := EnsembleResult{Runs: make([]Result, 0, runs)}
	for r := 0; r < runs; r++ {
		if errs[r] != nil {
			return EnsembleResult{}, fmt.Errorf("core: ensemble run %d: %w", r, errs[r])
		}
		for j, v := range results[r].Raw {
			sum[j] += v
			sumSq[j] += v * v
		}
		out.Runs = append(out.Runs, results[r])
	}
	out.Mean = make([]float64, dims)
	out.Std = make([]float64, dims)
	for j := 0; j < dims; j++ {
		m := sum[j] / float64(runs)
		out.Mean[j] = m
		if runs > 1 {
			v := (sumSq[j] - float64(runs)*m*m) / float64(runs-1)
			if v < 0 {
				v = 0
			}
			out.Std[j] = math.Sqrt(v)
		}
	}
	out.Bonus = RoundTo(append([]float64(nil), out.Mean...), opts.Granularity)
	clampBonus(out.Bonus, opts.MaxBonus)
	return out, nil
}
