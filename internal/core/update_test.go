package core

import (
	"math"
	"testing"

	"fairrank/internal/metrics"
	"fairrank/internal/rank"
)

// TestCoreUpdateRuleExact verifies Algorithm 1's update equation step by
// step using the trace hook: B_{t+1} = max(0, B_t - L * D_t) under
// beneficial polarity and B_{t+1} = max(0, B_t + L * D_t) under adverse
// polarity, with the optional cap applied after every step.
func TestCoreUpdateRuleExact(t *testing.T) {
	d := tinyDataset(t, 2000, 31)
	scorer := rank.WeightedSum{Weights: []float64{1}}

	for _, pol := range []rank.Polarity{rank.Beneficial, rank.Adverse} {
		t.Run(pol.String(), func(t *testing.T) {
			var steps []TraceStep
			opts := DefaultOptions()
			opts.Polarity = pol
			opts.RefineSteps = 0
			opts.InitBonus = []float64{1}
			opts.MaxBonus = 4
			opts.Trace = func(s TraceStep) { steps = append(steps, s) }
			if _, err := CoreDCA(d, scorer, DisparityObjective(0.1), opts); err != nil {
				t.Fatal(err)
			}
			prev := 1.0
			sign := pol.Sign()
			for i, s := range steps {
				want := prev - sign*s.LR*s.Objective[0]
				if want < 0 {
					want = 0
				}
				if want > opts.MaxBonus {
					want = opts.MaxBonus
				}
				if math.Abs(s.Bonus[0]-want) > 1e-12 {
					t.Fatalf("step %d: bonus %v, want %v (prev %v, D %v, L %v)",
						i, s.Bonus[0], want, prev, s.Objective[0], s.LR)
				}
				prev = s.Bonus[0]
			}
			if len(steps) != opts.Ladder.TotalSteps() {
				t.Fatalf("traced %d steps, want %d", len(steps), opts.Ladder.TotalSteps())
			}
		})
	}
}

// TestLadderStagesDecreaseStepSize checks that the traced learning rates
// follow the configured ladder stages in order.
func TestLadderStagesDecreaseStepSize(t *testing.T) {
	d := tinyDataset(t, 500, 32)
	var rates []float64
	opts := DefaultOptions()
	opts.RefineSteps = 0
	opts.Trace = func(s TraceStep) { rates = append(rates, s.LR) }
	if _, err := CoreDCA(d, rank.WeightedSum{Weights: []float64{1}}, DisparityObjective(0.1), opts); err != nil {
		t.Fatal(err)
	}
	idx := 0
	for _, stage := range opts.Ladder {
		for s := 0; s < stage.Steps; s++ {
			if rates[idx] != stage.LR {
				t.Fatalf("step %d rate %v, want %v", idx, rates[idx], stage.LR)
			}
			idx++
		}
	}
}

// TestPointsRangeRestriction covers the Section IV-E partial-range mode.
func TestPointsRangeRestriction(t *testing.T) {
	pts := metrics.PointsRange(0.1, 0.3, 0.5)
	want := []float64{0.3, 0.4, 0.5}
	if len(pts) != len(want) {
		t.Fatalf("points = %v, want %v", pts, want)
	}
	for i := range want {
		if math.Abs(pts[i]-want[i]) > 1e-9 {
			t.Fatalf("points = %v, want %v", pts, want)
		}
	}
	// Training with a restricted range still works end to end.
	d := tinyDataset(t, 2000, 33)
	obj := LogDiscounted{Points: pts, Metric: DisparityMetric{}}
	if _, err := Run(d, rank.WeightedSum{Weights: []float64{1}}, obj, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
}

// TestRefinementImprovesOverCore reproduces the Section VI-A5 claim on the
// controlled synthetic population: across seeds, the refined vector's
// full-population disparity is at least as good on average as core-only.
func TestRefinementImprovesOverCore(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed comparison")
	}
	d := tinyDataset(t, 8000, 34)
	scorer := rank.WeightedSum{Weights: []float64{1}}
	ev := NewEvaluator(d, scorer, rank.Beneficial)
	var coreSum, refinedSum float64
	const runs = 6
	for seed := int64(0); seed < runs; seed++ {
		opts := DefaultOptions()
		opts.Seed = 100 + seed
		obj := DisparityObjective(0.05)
		cr, err := CoreDCA(d, scorer, obj, opts)
		if err != nil {
			t.Fatal(err)
		}
		cd, err := ev.DisparityCtx(t.Context(), RoundTo(append([]float64(nil), cr.Raw...), 0.5), 0.05)
		if err != nil {
			t.Fatal(err)
		}
		coreSum += metrics.Norm(cd)
		rr, err := Run(d, scorer, obj, opts)
		if err != nil {
			t.Fatal(err)
		}
		rd, err := ev.DisparityCtx(t.Context(), rr.Bonus, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		refinedSum += metrics.Norm(rd)
	}
	t.Logf("mean norm: core=%.4f refined=%.4f", coreSum/runs, refinedSum/runs)
	if refinedSum > coreSum*1.15 {
		t.Errorf("refinement materially worse on average: core %.4f, refined %.4f", coreSum/runs, refinedSum/runs)
	}
}
