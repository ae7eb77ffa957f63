package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"fairrank/internal/engine"
)

// Sweeps. A metric sweep is a set of (bonus, k) points; in the common
// interactive shape — "how does this trained vector behave across
// selection sizes?" — every point shares one bonus vector and only k
// varies. The ranking under a bonus vector does not depend on k, so a
// sweep groups its points by distinct bonus vector and runs one plan per
// group (see batch.go): each group is ranked once and answers every k
// from prefix aggregates of that single order — an S-point sweep costs
// one prefix ranking plus O(maxCut·f + S·f) per group instead of
// S × O(n log n + n·f).
//
// Heterogeneous sweeps (every point its own bonus) degenerate to
// singleton groups, which fan over the worker pool just as the points
// themselves would: the pointwise evaluators are the same plan at S=1, so
// sweep and pointwise answers are bit-identical by construction.

// SweepPoint is one (bonus vector, selection fraction) evaluation of a
// parallel sweep.
type SweepPoint struct {
	Bonus []float64
	K     float64
}

// canonBonus maps every all-zero (or nil) bonus to nil, so that the
// uncompensated ranking forms a single group regardless of how callers
// spell "no bonus".
func canonBonus(b []float64) []float64 {
	if isZero(b) {
		return nil
	}
	return b
}

// bonusKey builds a map key from the exact bit pattern of a canonical
// bonus vector. Only the slow heterogeneous-grouping path needs it.
func bonusKey(b []float64) string {
	buf := make([]byte, 8*len(b))
	for j, v := range b {
		bits := math.Float64bits(v)
		for o := 0; o < 8; o++ {
			buf[8*j+o] = byte(bits >> (8 * o))
		}
	}
	return string(buf)
}

// groupPoints validates every sweep point in point order — its bonus
// dimensions, then its fraction for the kind — and partitions the points
// into one plan per distinct canonical bonus, in first-appearance order.
// The plans' queries and answers are consecutive slots of shared backing
// arrays, group by group; pts[s] is the point slot s answers. The
// all-points-share-one-bonus fast path is a single comparison scan with
// no map in sight.
func (e *Evaluator) groupPoints(kind BatchKind, points []SweepPoint) (plans []plan, pts []int, err error) {
	if len(points) == 0 {
		return nil, nil, nil
	}
	if e.d.N() == 0 {
		return nil, nil, fmt.Errorf("core: cannot evaluate an empty dataset")
	}
	m := len(points)
	pts = make([]int, m)
	at := pts // slot of each point: the identity for one group
	first := canonBonus(points[0].Bonus)
	homogeneous := true
	for i := 1; i < m && homogeneous; i++ {
		homogeneous = slices.Equal(first, canonBonus(points[i].Bonus))
	}
	var sizes []int
	if homogeneous {
		sizes = []int{m}
		for i := range pts {
			pts[i] = i
		}
	} else {
		byKey := make(map[string]int, m)
		gid := make([]int, m)
		for i, pt := range points {
			key := bonusKey(canonBonus(pt.Bonus))
			g, ok := byKey[key]
			if !ok {
				g = len(sizes)
				byKey[key] = g
				sizes = append(sizes, 0)
			}
			gid[i] = g
			sizes[g]++
		}
		next := make([]int, len(sizes))
		for g := 1; g < len(sizes); g++ {
			next[g] = next[g-1] + sizes[g-1]
		}
		at = make([]int, m)
		for i, g := range gid {
			at[i], pts[next[g]] = next[g], i
			next[g]++
		}
	}

	qs := make([]BatchQuery, m)
	geom := make([]batchGeom, m)
	ans := make([]BatchAnswer, m)
	for i, pt := range points {
		if err := e.checkBonusDims(pt.Bonus); err != nil {
			return nil, nil, fmt.Errorf("core: sweep point %d: %w", i, err)
		}
		s := at[i]
		qs[s] = BatchQuery{Kind: kind, K: pt.K}
		if geom[s], err = e.queryGeom(s, &qs[s], nil); err != nil {
			return nil, nil, fmt.Errorf("core: sweep point %d (k=%g): %w", i, pt.K, plainErr(err))
		}
	}
	plans = make([]plan, len(sizes))
	off := 0
	for g, size := range sizes {
		p := &plans[g]
		end := off + size
		*p = plan{e: e, bonus: canonBonus(points[pts[off]].Bonus), qs: qs[off:end], geom: geom[off:end], ans: ans[off:end]}
		for r := range p.qs {
			p.add(r, p.geom[r])
		}
		off = end
	}
	return plans, pts, nil
}

// vectorRows carves one result row of width w per point from a single
// backing slice, so a sweep performs two result allocations total instead
// of one per point.
func vectorRows(n, w int) [][]float64 {
	backing := make([]float64, n*w)
	out := make([][]float64, n)
	for i := range out {
		out[i] = backing[i*w : (i+1)*w : (i+1)*w]
	}
	return out
}

// SweepCtx evaluates one metric kind (BatchDisparity, BatchNDCG,
// BatchDisparateImpact, BatchFPRDiff, BatchExposure, BatchExpRatio or
// BatchTopK) at every sweep point: BatchNDCG answers with values, every
// other kind with rows (BatchExposure's per-capita rows are NumFair+1
// wide), both in point order. Points sharing a bonus vector are one plan,
// ranked once; distinct bonus vectors fan over the worker pool. A
// point's data-dependent failure (metrics.ErrZeroIdealDCG,
// metrics.ErrDegenerateGroups) fails the sweep, wrapped with the first
// failing point's index. Once ctx is done, no further group is ranked and
// the context's error is returned; no partial result escapes.
func (e *Evaluator) SweepCtx(ctx context.Context, kind BatchKind, points []SweepPoint) ([][]float64, []float64, error) {
	if !slices.Contains(metricKinds[:], kind) {
		return nil, nil, fmt.Errorf("core: kind %d is not a sweep metric", kind)
	}
	if err := e.kindGuard(kind); err != nil {
		return nil, nil, err
	}
	plans, pts, err := e.groupPoints(kind, points)
	if err != nil {
		return nil, nil, err
	}
	var rows [][]float64
	var vals []float64
	if kind == BatchNDCG {
		vals = make([]float64, len(points))
	} else {
		rows = vectorRows(len(points), e.vectorWidth(kind))
	}
	s := 0
	for g := range plans {
		for r := range plans[g].ans {
			if rows != nil {
				plans[g].ans[r].Vector = rows[pts[s]]
			}
			s++
		}
	}
	gerrs := make([]error, len(plans))
	perr := e.parallelCtx(ctx, len(plans), func(ws *engine.Workspace, g int) {
		gerrs[g] = plans[g].pass(ctx, ws)
	})
	if err := firstErr(perr, gerrs); err != nil {
		return nil, nil, err
	}
	bad, s := -1, 0
	var badErr error
	for g := range plans {
		for _, a := range plans[g].ans {
			pi := pts[s]
			s++
			if a.Err != nil && (bad < 0 || pi < bad) {
				bad, badErr = pi, a.Err
			}
			if vals != nil {
				vals[pi] = a.Value
			}
		}
	}
	if bad >= 0 {
		return nil, nil, fmt.Errorf("core: sweep point %d (k=%g): %w", bad, points[bad].K, badErr)
	}
	return rows, vals, nil
}

// DisparitySweepCtx evaluates the full-population disparity of every
// sweep point and returns the vectors in point order. See SweepCtx.
func (e *Evaluator) DisparitySweepCtx(ctx context.Context, points []SweepPoint) ([][]float64, error) {
	rows, _, err := e.SweepCtx(ctx, BatchDisparity, points)
	return rows, err
}

// NDCGSweepCtx evaluates the nDCG of every sweep point and returns the
// values in point order. See SweepCtx.
func (e *Evaluator) NDCGSweepCtx(ctx context.Context, points []SweepPoint) ([]float64, error) {
	_, vals, err := e.SweepCtx(ctx, BatchNDCG, points)
	return vals, err
}

// DisparateImpactSweepCtx evaluates the scaled disparate impact of every
// sweep point and returns the vectors in point order. See SweepCtx.
func (e *Evaluator) DisparateImpactSweepCtx(ctx context.Context, points []SweepPoint) ([][]float64, error) {
	rows, _, err := e.SweepCtx(ctx, BatchDisparateImpact, points)
	return rows, err
}

// FPRDiffSweepCtx evaluates the per-group false-positive-rate difference
// of every sweep point and returns the vectors in point order. The
// dataset must carry outcomes. See SweepCtx.
func (e *Evaluator) FPRDiffSweepCtx(ctx context.Context, points []SweepPoint) ([][]float64, error) {
	rows, _, err := e.SweepCtx(ctx, BatchFPRDiff, points)
	return rows, err
}

// firstErr merges the pool-level cancellation error with the per-task
// worker errors. Task errors win: they carry the site that actually
// failed (the pool error is the same context error one dispatch later).
func firstErr(poolErr error, terrs []error) error {
	for _, err := range terrs {
		if err != nil {
			return err
		}
	}
	return poolErr
}
