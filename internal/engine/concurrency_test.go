package engine_test

// Concurrency and allocation tests for the engine through its real
// consumer, the core package (an external test package, so no import
// cycle). Run with -race to exercise the shared-Evaluator guarantees.

import (
	"sync"
	"testing"

	"fairrank/internal/core"
	"fairrank/internal/rank"
	"fairrank/internal/synth"
)

// TestConcurrentEnsembleAndSweeps trains an ensemble while several
// goroutines hammer one shared Evaluator with parallel sweeps — the
// -race exercise of the ISSUE: one workspace per goroutine, a pooled
// workspace per evaluator caller, no shared mutable state.
func TestConcurrentEnsembleAndSweeps(t *testing.T) {
	cfg := synth.DefaultSchoolConfig()
	cfg.N = 3000
	cfg.Seed = 123
	d, err := synth.GenerateSchool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scorer := rank.WeightedSum{Weights: synth.SchoolScoreWeights()}
	ev := core.NewEvaluator(d, scorer, rank.Beneficial)
	obj := core.DisparityObjective(0.05)
	opts := core.DefaultOptions()
	opts.SampleSize = 200

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := core.Ensemble(d, scorer, obj, opts, 6); err != nil {
			t.Errorf("ensemble: %v", err)
		}
	}()

	bonus := []float64{1, 11.5, 12, 12}
	points := []core.SweepPoint{
		{Bonus: nil, K: 0.05},
		{Bonus: bonus, K: 0.05},
		{Bonus: bonus, K: 0.15},
		{Bonus: bonus, K: 0.30},
		{Bonus: bonus, K: 0.50},
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 5; iter++ {
				if _, err := ev.DisparitySweepCtx(t.Context(), points); err != nil {
					t.Errorf("disparity sweep: %v", err)
					return
				}
				if _, err := ev.NDCGSweepCtx(t.Context(), points); err != nil {
					t.Errorf("ndcg sweep: %v", err)
					return
				}
				if _, err := ev.FindScaleForNDCG(bonus, 0.05, 0.95, 0.5); err != nil {
					t.Errorf("find scale: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestDescentStepAllocations asserts the headline engine property: the
// per-step allocation count of the descent loop is ~0. Two core-only runs
// differing just in ladder length isolate the per-step cost from the fixed
// per-run setup.
func TestDescentStepAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting under -short")
	}
	cfg := synth.DefaultSchoolConfig()
	cfg.N = 5000
	cfg.Seed = 123
	d, err := synth.GenerateSchool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scorer := rank.WeightedSum{Weights: synth.SchoolScoreWeights()}
	obj := core.DisparityObjective(0.05)

	runWith := func(steps int) func() {
		return func() {
			opts := core.DefaultOptions()
			opts.Seed = 5
			opts.RefineSteps = 0
			opts.Ladder[0].Steps = steps
			opts.Ladder[1].Steps = steps
			if _, err := core.Run(d, scorer, obj, opts); err != nil {
				t.Fatal(err)
			}
		}
	}

	short := testing.AllocsPerRun(3, runWith(50)) // 100 descent steps
	long := testing.AllocsPerRun(3, runWith(200)) // 400 descent steps
	perStep := (long - short) / 300
	if perStep > 0.05 {
		t.Errorf("descent step allocates %.3f objects/step (short=%v, long=%v); want ~0", perStep, short, long)
	}
}

// TestTrainerSteadyStateAllocations bounds the fixed cost too: a warm
// Trainer running a full core pass (200 steps) must stay under a handful
// of allocations total — result slices, sampler state, updater — not the
// thousands the pre-engine implementation made.
func TestTrainerSteadyStateAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting under -short")
	}
	cfg := synth.DefaultSchoolConfig()
	cfg.N = 5000
	cfg.Seed = 123
	d, err := synth.GenerateSchool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scorer := rank.WeightedSum{Weights: synth.SchoolScoreWeights()}
	obj := core.DisparityObjective(0.05)
	tr := core.NewTrainer(d, scorer)
	opts := core.DefaultOptions()
	opts.Seed = 5
	if _, err := tr.TrainCoreCtx(t.Context(), obj, opts); err != nil { // warm buffers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := tr.TrainCoreCtx(t.Context(), obj, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 40 {
		t.Errorf("warm 200-step TrainCore allocates %v objects; want <= 40", allocs)
	}
}
