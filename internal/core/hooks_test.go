package core

import (
	"strings"
	"sync"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/rank"
	"fairrank/internal/synth"
)

func hooksDataset(t *testing.T, seed int64) *dataset.Dataset {
	t.Helper()
	cfg := synth.DefaultSchoolConfig()
	cfg.N = 3000
	cfg.Seed = seed
	d, err := synth.GenerateSchool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestObjectiveByName(t *testing.T) {
	for _, name := range ObjectiveNames() {
		obj, err := ObjectiveByName(name, 0.05)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if obj.Name() == "" {
			t.Errorf("%s: empty objective name", name)
		}
	}
	if _, err := ObjectiveByName("banana", 0.05); err == nil || !strings.Contains(err.Error(), "banana") {
		t.Errorf("unknown objective: err = %v", err)
	}
	for _, k := range []float64{0, -0.1, 1.5} {
		if _, err := ObjectiveByName("disparity", k); err == nil {
			t.Errorf("k=%v accepted", k)
		}
	}
	// logdisc must stay valid below its default step.
	if _, err := ObjectiveByName("logdisc", 0.05); err != nil {
		t.Errorf("logdisc@0.05: %v", err)
	}
}

func TestTrainerCloneBitIdentical(t *testing.T) {
	d := hooksDataset(t, 42)
	scorer := rank.WeightedSum{Weights: synth.SchoolScoreWeights()}
	opts := DefaultOptions()
	opts.SampleSize = 200
	obj := DisparityObjective(0.05)

	proto := NewTrainer(d, scorer)
	want, err := proto.TrainCtx(t.Context(), obj, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Clones run concurrently; every one must reproduce the prototype's
	// vector bit for bit (same seed, independent workspaces).
	const clones = 4
	results := make([]Result, clones)
	errs := make([]error, clones)
	var wg sync.WaitGroup
	for c := 0; c < clones; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c], errs[c] = proto.Clone().TrainCtx(t.Context(), obj, opts)
		}(c)
	}
	wg.Wait()
	for c := 0; c < clones; c++ {
		if errs[c] != nil {
			t.Fatalf("clone %d: %v", c, errs[c])
		}
		for j := range want.Raw {
			if results[c].Raw[j] != want.Raw[j] {
				t.Fatalf("clone %d dimension %d: %v != %v", c, j, results[c].Raw[j], want.Raw[j])
			}
		}
	}
}

func TestTrainerReset(t *testing.T) {
	a := hooksDataset(t, 1)
	b := hooksDataset(t, 2)
	scorer := rank.WeightedSum{Weights: synth.SchoolScoreWeights()}
	opts := DefaultOptions()
	opts.SampleSize = 200
	obj := DisparityObjective(0.05)

	tr := NewTrainer(a, scorer)
	if _, err := tr.TrainCtx(t.Context(), obj, opts); err != nil {
		t.Fatal(err)
	}
	tr.Reset(b, scorer)
	got, err := tr.TrainCtx(t.Context(), obj, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewTrainer(b, scorer).TrainCtx(t.Context(), obj, opts)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want.Raw {
		if got.Raw[j] != want.Raw[j] {
			t.Fatalf("reset trainer diverged at dimension %d: %v != %v", j, got.Raw[j], want.Raw[j])
		}
	}
	if tr.Dataset() != b {
		t.Error("Reset did not repoint the dataset")
	}
}

func TestTrainerResetChangesDimensions(t *testing.T) {
	a := hooksDataset(t, 3) // 4 fairness dims
	narrow := a.WithFairColumns([]int{0, 1})
	scorer := rank.WeightedSum{Weights: synth.SchoolScoreWeights()}
	opts := DefaultOptions()
	opts.SampleSize = 200
	obj := DisparityObjective(0.05)

	tr := NewTrainer(a, scorer)
	if _, err := tr.TrainCtx(t.Context(), obj, opts); err != nil {
		t.Fatal(err)
	}
	tr.Reset(narrow, scorer)
	got, err := tr.TrainCtx(t.Context(), obj, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Bonus) != 2 {
		t.Fatalf("bonus has %d dimensions after reset, want 2", len(got.Bonus))
	}
	want, err := NewTrainer(narrow, scorer).TrainCtx(t.Context(), obj, opts)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want.Raw {
		if got.Raw[j] != want.Raw[j] {
			t.Fatalf("dimension-changing reset diverged at %d: %v != %v", j, got.Raw[j], want.Raw[j])
		}
	}
}
