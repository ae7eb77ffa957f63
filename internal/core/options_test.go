package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/metrics"
	"fairrank/internal/optimize"
	"fairrank/internal/rank"
)

func tinyDataset(t testing.TB, n int, seed int64) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	fair := make([]float64, n)
	score := make([]float64, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.3 {
			fair[i] = 1
		}
		score[i] = 50 + 10*rng.NormFloat64() - 5*fair[i]
	}
	d, err := dataset.New([]string{"s"}, []string{"f"}, [][]float64{score}, [][]float64{fair}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRunRejectsInvalidOptions(t *testing.T) {
	d := tinyDataset(t, 100, 1)
	scorer := rank.WeightedSum{Weights: []float64{1}}
	obj := DisparityObjective(0.1)

	cases := []struct {
		name   string
		mutate func(*Options)
	}{
		{"zero sample", func(o *Options) { o.SampleSize = 0 }},
		{"empty ladder", func(o *Options) { o.Ladder = nil }},
		{"negative refine steps", func(o *Options) { o.RefineSteps = -1 }},
		{"refine without lr", func(o *Options) { o.RefineSteps = 10; o.RefineLR = 0 }},
		{"negative granularity", func(o *Options) { o.Granularity = -0.5 }},
		{"negative cap", func(o *Options) { o.MaxBonus = -1 }},
		{"init bonus wrong dims", func(o *Options) { o.InitBonus = []float64{1, 2} }},
		{"increasing ladder", func(o *Options) {
			o.Ladder = optimize.Ladder{{LR: 0.1, Steps: 1}, {LR: 1, Steps: 1}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			tc.mutate(&opts)
			if _, err := Run(d, scorer, obj, opts); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestRunRejectsDegenerateDatasets(t *testing.T) {
	scorer := rank.WeightedSum{Weights: []float64{1}}
	obj := DisparityObjective(0.1)
	empty, err := dataset.New([]string{"s"}, []string{"f"}, [][]float64{{}}, [][]float64{{}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(empty, scorer, obj, DefaultOptions()); err == nil {
		t.Error("empty dataset: expected error")
	}
	noFair, err := dataset.New([]string{"s"}, nil, [][]float64{{1, 2}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(noFair, scorer, obj, DefaultOptions()); err == nil {
		t.Error("no fairness attributes: expected error")
	}
}

func TestRunSampleSizeCappedAtN(t *testing.T) {
	d := tinyDataset(t, 80, 2)
	opts := DefaultOptions()
	opts.SampleSize = 10_000 // larger than the dataset
	if _, err := Run(d, rank.WeightedSum{Weights: []float64{1}}, DisparityObjective(0.2), opts); err != nil {
		t.Fatalf("oversized sample should be capped, got %v", err)
	}
}

func TestRunRespectsMaxBonus(t *testing.T) {
	d := tinyDataset(t, 2000, 3)
	opts := DefaultOptions()
	opts.MaxBonus = 2
	res, err := Run(d, rank.WeightedSum{Weights: []float64{1}}, DisparityObjective(0.1), opts)
	if err != nil {
		t.Fatal(err)
	}
	for j, b := range res.Bonus {
		if b > 2 {
			t.Errorf("bonus[%d] = %v exceeds cap 2", j, b)
		}
		if b < 0 {
			t.Errorf("bonus[%d] = %v negative", j, b)
		}
	}
	// The structural penalty is 5 points: the cap must bind.
	if res.Bonus[0] != 2 {
		t.Errorf("bonus = %v, expected the cap to bind at 2", res.Bonus[0])
	}
}

func TestRunGranularity(t *testing.T) {
	d := tinyDataset(t, 2000, 4)
	opts := DefaultOptions()
	opts.Granularity = 0.25
	res, err := Run(d, rank.WeightedSum{Weights: []float64{1}}, DisparityObjective(0.1), opts)
	if err != nil {
		t.Fatal(err)
	}
	for j, b := range res.Bonus {
		m := math.Mod(b, 0.25)
		if m > 1e-9 && m < 0.25-1e-9 {
			t.Errorf("bonus[%d] = %v not a multiple of 0.25", j, b)
		}
	}
	// Granularity 0 disables rounding: Raw == Bonus.
	opts.Granularity = 0
	res, err = Run(d, rank.WeightedSum{Weights: []float64{1}}, DisparityObjective(0.1), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Raw, res.Bonus) {
		t.Errorf("granularity 0: Raw %v != Bonus %v", res.Raw, res.Bonus)
	}
}

func TestRunDeterministicBySeed(t *testing.T) {
	d := tinyDataset(t, 3000, 5)
	scorer := rank.WeightedSum{Weights: []float64{1}}
	opts := DefaultOptions()
	opts.Seed = 42
	a, err := Run(d, scorer, DisparityObjective(0.1), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(d, scorer, DisparityObjective(0.1), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Bonus, b.Bonus) || !reflect.DeepEqual(a.Raw, b.Raw) {
		t.Errorf("same seed diverged: %v vs %v", a.Raw, b.Raw)
	}
}

func TestRunInitBonusIsUsedAndNotMutated(t *testing.T) {
	d := tinyDataset(t, 1000, 6)
	init := []float64{3}
	opts := DefaultOptions()
	opts.InitBonus = init
	if _, err := Run(d, rank.WeightedSum{Weights: []float64{1}}, DisparityObjective(0.1), opts); err != nil {
		t.Fatal(err)
	}
	if init[0] != 3 {
		t.Errorf("InitBonus mutated to %v", init)
	}
}

func TestRunTraceObservesAllSteps(t *testing.T) {
	d := tinyDataset(t, 1000, 7)
	var coreSteps, refineSteps int
	opts := DefaultOptions()
	opts.Trace = func(s TraceStep) {
		switch s.Stage {
		case "core":
			coreSteps++
		case "refine":
			refineSteps++
		}
		if len(s.Bonus) != 1 || len(s.Objective) != 1 {
			t.Errorf("trace step with wrong dims: %+v", s)
		}
		if s.Objective[0] < -1 || s.Objective[0] > 1 {
			t.Errorf("objective %v outside [-1,1]", s.Objective[0])
		}
	}
	res, err := Run(d, rank.WeightedSum{Weights: []float64{1}}, DisparityObjective(0.1), opts)
	if err != nil {
		t.Fatal(err)
	}
	if coreSteps != opts.Ladder.TotalSteps() {
		t.Errorf("core trace steps = %d, want %d", coreSteps, opts.Ladder.TotalSteps())
	}
	if refineSteps != opts.RefineSteps {
		t.Errorf("refine trace steps = %d, want %d", refineSteps, opts.RefineSteps)
	}
	if res.Steps != coreSteps+refineSteps {
		t.Errorf("Steps = %d, want %d", res.Steps, coreSteps+refineSteps)
	}
}

func TestAdversePolarityReducesOverflagging(t *testing.T) {
	// Risk scores where the protected group is systematically scored 2
	// points higher; selection = top (flagged). Adverse DCA should award
	// points that cancel the overflagging.
	rng := rand.New(rand.NewSource(9))
	n := 4000
	fair := make([]float64, n)
	score := make([]float64, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.4 {
			fair[i] = 1
		}
		score[i] = 5 + 2*rng.NormFloat64() + 2*fair[i]
	}
	d, err := dataset.New([]string{"risk"}, []string{"f"}, [][]float64{score}, [][]float64{fair}, nil)
	if err != nil {
		t.Fatal(err)
	}
	scorer := rank.WeightedSum{Weights: []float64{1}}
	opts := DefaultOptions()
	opts.Polarity = rank.Adverse
	res, err := Run(d, scorer, DisparityObjective(0.2), opts)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(d, scorer, rank.Adverse)
	before, err := ev.DisparityCtx(t.Context(), nil, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	after, err := ev.DisparityCtx(t.Context(), res.Bonus, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if before[0] < 0.1 {
		t.Fatalf("setup broken: baseline disparity %v should be strongly positive", before[0])
	}
	if math.Abs(after[0]) > 0.05 {
		t.Errorf("adverse DCA left disparity %v (bonus %v)", after[0], res.Bonus)
	}
	if res.Bonus[0] < 1 || res.Bonus[0] > 3.5 {
		t.Errorf("adverse bonus = %v, want ≈ 2", res.Bonus[0])
	}
}

func TestRoundToAndScale(t *testing.T) {
	b := []float64{1.24, 3.76}
	got := RoundTo(append([]float64(nil), b...), 0.5)
	if got[0] != 1 || got[1] != 4 {
		t.Errorf("RoundTo = %v", got)
	}
	if got := RoundTo([]float64{1.3}, 0); got[0] != 1.3 {
		t.Errorf("RoundTo granularity 0 = %v", got)
	}
	s := Scale([]float64{10, 5}, 0.5, 0.5)
	if s[0] != 5 || s[1] != 2.5 {
		t.Errorf("Scale = %v", s)
	}
	if metrics.Norm(Scale([]float64{10, 5}, 0, 0.5)) != 0 {
		t.Error("Scale by 0 should zero the vector")
	}
}
