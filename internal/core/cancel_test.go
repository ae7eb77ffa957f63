package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"fairrank/internal/rank"
	"fairrank/internal/synth"
)

// TestTrainCtxCancelMidTrain pins the trainer's cancellation contract:
// canceling mid-descent stops the run with context.Canceled, and the same
// trainer instance afterwards produces a result bit-identical to a fresh
// trainer's — an abandoned run must not leak state into the next one.
func TestTrainCtxCancelMidTrain(t *testing.T) {
	cfg := synth.DefaultSchoolConfig()
	cfg.N = 2000
	cfg.Seed = 17
	d, err := synth.GenerateSchool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scorer := rank.WeightedSum{Weights: synth.SchoolScoreWeights()}
	obj := DisparityObjective(0.05)

	tr := NewTrainer(d, scorer)
	ctx, cancel := context.WithCancel(context.Background())
	opts := DefaultOptions()
	steps := 0
	opts.Trace = func(TraceStep) {
		steps++
		if steps == 30 {
			cancel()
		}
	}
	if _, err := tr.TrainCtx(ctx, obj, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("TrainCtx error = %v, want context.Canceled", err)
	}

	// Same trainer, fresh run under a live context: must match a
	// brand-new trainer's background-context run (the Loop branch that
	// skips checkpoints) exactly.
	got, err := tr.TrainCtx(t.Context(), obj, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewTrainer(d, scorer).TrainCtx(context.Background(), obj, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Bonus, want.Bonus) || got.Steps != want.Steps {
		t.Errorf("post-cancel train diverged: got %v (%d steps), want %v (%d steps)",
			got.Bonus, got.Steps, want.Bonus, want.Steps)
	}
}

// TestTrainCtxPreCanceled: an already-dead context trains zero steps.
func TestTrainCtxPreCanceled(t *testing.T) {
	ev := mergeEvaluator(t, 1500)
	tr := NewTrainer(ev.Dataset(), rank.WeightedSum{Weights: synth.SchoolScoreWeights()})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions()
	ran := false
	opts.Trace = func(TraceStep) { ran = true }
	if _, err := tr.TrainCtx(ctx, DisparityObjective(0.05), opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("TrainCtx error = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("pre-canceled TrainCtx executed descent steps")
	}
}

// TestEvaluatorCtxPreCanceled sweeps every context-aware evaluator entry
// point with a dead context: each must fail with context.Canceled and
// leave the evaluator fully usable (the following background-context call
// succeeds and matches the non-ctx API).
func TestEvaluatorCtxPreCanceled(t *testing.T) {
	ev := mergeEvaluator(t, 2000)
	bonus := []float64{2, 11, 10.5, 12.5}
	pts := []SweepPoint{{Bonus: bonus, K: 0.05}, {Bonus: nil, K: 0.1}}
	dead, cancel := context.WithCancel(context.Background())
	cancel()

	calls := map[string]func(ctx context.Context) error{
		"SelectCtx":            func(ctx context.Context) error { _, err := ev.SelectCtx(ctx, bonus, 0.05); return err },
		"DisparityCtx":         func(ctx context.Context) error { _, err := ev.DisparityCtx(ctx, bonus, 0.05); return err },
		"NDCGCtx":              func(ctx context.Context) error { _, err := ev.NDCGCtx(ctx, bonus, 0.05); return err },
		"ExplainCtx":           func(ctx context.Context) error { _, err := ev.ExplainCtx(ctx, bonus, 0.05); return err },
		"DisparitySweepCtx":    func(ctx context.Context) error { _, err := ev.DisparitySweepCtx(ctx, pts); return err },
		"NDCGSweepCtx":         func(ctx context.Context) error { _, err := ev.NDCGSweepCtx(ctx, pts); return err },
		"DisparateImpactSweep": func(ctx context.Context) error { _, err := ev.DisparateImpactSweepCtx(ctx, pts); return err },
		"CounterfactualBatchCtx": func(ctx context.Context) error {
			_, err := ev.CounterfactualBatchCtx(ctx, bonus, 0.05, []int{0, 7, 99})
			return err
		},
		"BundleStatsCtx": func(ctx context.Context) error {
			_, err := ev.BundleStatsCtx(ctx, BundleStatsConfig{Bonus: bonus, K: 0.05, Margins: 5})
			return err
		},
	}
	for name, call := range calls {
		if err := call(dead); !errors.Is(err, context.Canceled) {
			t.Errorf("%s with dead context: error = %v, want context.Canceled", name, err)
		}
		if err := call(context.Background()); err != nil {
			t.Errorf("%s after cancellation: %v", name, err)
		}
	}
}

// TestCtxVariantsBitIdentical pins that a background context (no
// cancellation checkpoints) and a live cancellable one answer
// bit-identically — the cancellation seams must be invisible when no one
// cancels.
func TestCtxVariantsBitIdentical(t *testing.T) {
	ev := mergeEvaluator(t, 2000)
	bonus := []float64{2, 11, 10.5, 12.5}
	bg := context.Background()
	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()

	selA, errA := ev.SelectCtx(bg, bonus, 0.05)
	selB, errB := ev.SelectCtx(ctx, bonus, 0.05)
	if errA != nil || errB != nil || !reflect.DeepEqual(selA, selB) {
		t.Errorf("SelectCtx diverged (errs %v, %v)", errA, errB)
	}
	dA, errA := ev.DisparityCtx(bg, bonus, 0.05)
	dB, errB := ev.DisparityCtx(ctx, bonus, 0.05)
	if errA != nil || errB != nil || !reflect.DeepEqual(dA, dB) {
		t.Errorf("DisparityCtx diverged (errs %v, %v)", errA, errB)
	}
	nA, errA := ev.NDCGCtx(bg, bonus, 0.05)
	nB, errB := ev.NDCGCtx(ctx, bonus, 0.05)
	if errA != nil || errB != nil || nA != nB {
		t.Errorf("NDCGCtx diverged: %v vs %v (errs %v, %v)", nA, nB, errA, errB)
	}
	cfA, errA := ev.CounterfactualBatchCtx(bg, bonus, 0.05, []int{3, 44, 500})
	cfB, errB := ev.CounterfactualBatchCtx(ctx, bonus, 0.05, []int{3, 44, 500})
	if errA != nil || errB != nil || !reflect.DeepEqual(cfA, cfB) {
		t.Errorf("CounterfactualBatchCtx diverged (errs %v, %v)", errA, errB)
	}
}
