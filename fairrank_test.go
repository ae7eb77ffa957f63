package fairrank_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"fairrank"
)

// buildPool creates a small biased population through the public API.
func buildPool(t testing.TB, n int, seed int64) *fairrank.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := fairrank.NewBuilder([]string{"score"}, []string{"protected"})
	for i := 0; i < n; i++ {
		p := 0.0
		if rng.Float64() < 0.35 {
			p = 1
		}
		b.Add([]float64{60 + 10*rng.NormFloat64() - 6*p}, []float64{p})
	}
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestPublicAPIEndToEnd exercises the documented workflow: build, train,
// evaluate, scale, explain, serialize.
func TestPublicAPIEndToEnd(t *testing.T) {
	d := buildPool(t, 5000, 1)
	scorer := fairrank.WeightedSum{Weights: []float64{1}}
	const k = 0.1

	res, err := fairrank.Train(d, scorer, fairrank.DisparityObjective(k), fairrank.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ev := fairrank.NewEvaluator(d, scorer, fairrank.Beneficial)
	before, err := ev.DisparityCtx(t.Context(), nil, k)
	if err != nil {
		t.Fatal(err)
	}
	after, err := ev.DisparityCtx(t.Context(), res.Bonus, k)
	if err != nil {
		t.Fatal(err)
	}
	if fairrank.Norm(after) > fairrank.Norm(before)/3 {
		t.Errorf("norm %v -> %v: insufficient reduction", fairrank.Norm(before), fairrank.Norm(after))
	}
	// The 6-point structural penalty should be roughly recovered.
	if res.Bonus[0] < 3 || res.Bonus[0] > 10 {
		t.Errorf("bonus = %v, want ≈ 6", res.Bonus[0])
	}

	// Scaling halves the intervention.
	half := fairrank.ScaleBonus(res.Bonus, 0.5, 0.5)
	if math.Abs(half[0]-res.Bonus[0]/2) > 0.5 {
		t.Errorf("half-scaled bonus = %v", half)
	}

	// The transparency report is consistent.
	exp, err := ev.ExplainCtx(t.Context(), res.Bonus, k)
	if err != nil {
		t.Fatal(err)
	}
	if exp.GroupCounts[0] <= exp.BaseGroupCounts[0] {
		t.Error("bonus did not admit more protected members")
	}

	// CSV round trip through the public API.
	var buf bytes.Buffer
	if err := fairrank.WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := fairrank.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != d.N() {
		t.Errorf("round trip N = %d, want %d", back.N(), d.N())
	}
}

func TestPublicTrainVariants(t *testing.T) {
	d := buildPool(t, 3000, 2)
	scorer := fairrank.WeightedSum{Weights: []float64{1}}
	opts := fairrank.DefaultOptions()

	if _, err := fairrank.TrainCore(d, scorer, fairrank.DisparityObjective(0.1), opts); err != nil {
		t.Errorf("TrainCore: %v", err)
	}
	if _, err := fairrank.TrainFull(d, scorer, fairrank.DisparityObjective(0.1), opts); err != nil {
		t.Errorf("TrainFull: %v", err)
	}
	if _, err := fairrank.Train(d, scorer, fairrank.LogDiscountedDisparity(0.1, 0.5), opts); err != nil {
		t.Errorf("log-discounted: %v", err)
	}
	if _, err := fairrank.Train(d, scorer, fairrank.DisparateImpactObjective(0.1), opts); err != nil {
		t.Errorf("disparate impact: %v", err)
	}
	ens, err := fairrank.TrainEnsemble(d, scorer, fairrank.DisparityObjective(0.1), opts, 3)
	if err != nil {
		t.Fatalf("ensemble: %v", err)
	}
	if len(ens.Runs) != 3 {
		t.Errorf("ensemble runs = %d", len(ens.Runs))
	}
}

func TestPublicSyntheticGenerators(t *testing.T) {
	school, err := fairrank.GenerateSchool(func() fairrank.SchoolConfig {
		cfg := fairrank.DefaultSchoolConfig()
		cfg.N = 2000
		return cfg
	}())
	if err != nil {
		t.Fatal(err)
	}
	if school.N() != 2000 || school.NumFair() != 4 {
		t.Errorf("school shape: %d/%d", school.N(), school.NumFair())
	}
	compas, err := fairrank.GenerateCompas(func() fairrank.CompasConfig {
		cfg := fairrank.DefaultCompasConfig()
		cfg.N = 2000
		return cfg
	}())
	if err != nil {
		t.Fatal(err)
	}
	if !compas.HasOutcomes() {
		t.Error("compas should carry outcomes")
	}
	// Adverse training through the public API.
	opts := fairrank.DefaultOptions()
	opts.Polarity = fairrank.Adverse
	opts.SampleSize = 1000
	if _, err := fairrank.Train(compas, fairrank.WeightedSum{Weights: fairrank.CompasScoreWeights()},
		fairrank.FPRObjective(0.2), opts); err != nil {
		t.Errorf("adverse FPR training: %v", err)
	}
}

func TestPublicDeferredAcceptance(t *testing.T) {
	prefs := [][]int{{0}, {0}, {0}}
	schools := []fairrank.School{{Capacity: 2, Reserved: 1, Scores: []float64{9, 8, 7}}}
	disadvantaged := []bool{false, false, true}
	m, err := fairrank.DeferredAcceptance(prefs, schools, disadvantaged)
	if err != nil {
		t.Fatal(err)
	}
	if m.Assigned[2] != 0 {
		t.Errorf("reserved seat not honored: %v", m.Assigned)
	}
	if st, sc := fairrank.BlockingPair(prefs, schools, disadvantaged, m); st != -1 {
		t.Errorf("blocking pair (%d, %d)", st, sc)
	}
}

func TestPublicDatasetConstructor(t *testing.T) {
	d, err := fairrank.NewDataset([]string{"s"}, []string{"f"},
		[][]float64{{1, 2}}, [][]float64{{0, 1}}, []bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 2 || !d.HasOutcomes() {
		t.Error("NewDataset lost data")
	}
	if _, err := fairrank.NewDataset([]string{"s"}, []string{"f"},
		[][]float64{{1}}, [][]float64{{2}}, nil); err == nil {
		t.Error("invalid fairness value: expected error")
	}
}
