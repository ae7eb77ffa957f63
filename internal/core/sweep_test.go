package core

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/rank"
)

// sweepDataset builds a population with one binary, one continuous, and
// one skewed fairness attribute plus ground-truth outcomes, so every sweep
// metric (including FPR differences) is exercised on non-trivial values.
func sweepDataset(t testing.TB, n int, seed int64) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := dataset.NewBuilder([]string{"s1", "s2"}, []string{"binary", "eni", "rare"})
	for i := 0; i < n; i++ {
		bin := float64(rng.Intn(2))
		eni := rng.Float64()
		rare := 0.0
		if rng.Float64() < 0.07 {
			rare = 1
		}
		// Correlate the score with the attributes so compensation moves
		// the ranking (disparity is non-zero and bonus-sensitive).
		score := []float64{rng.NormFloat64() - 2*bin - eni, rng.Float64()}
		b.AddWithOutcome(score, []float64{bin, eni, rare}, rng.Float64() < 0.4)
	}
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// randomBonus draws a bonus vector; with some probability it is nil or
// all-zero, the two spellings of "the uncompensated ranking".
func randomBonus(rng *rand.Rand, dims int) []float64 {
	switch rng.Intn(6) {
	case 0:
		return nil
	case 1:
		return make([]float64, dims)
	}
	b := make([]float64, dims)
	for j := range b {
		b[j] = rng.Float64() * 4
	}
	return b
}

// randomKGrid draws a k-grid including duplicates, unsorted order, and the
// extremes k→1/n and k=1.0.
func randomKGrid(rng *rand.Rand, n, size int) []float64 {
	ks := make([]float64, 0, size)
	ks = append(ks, 0.5/float64(n), 1.0) // count 1 and the whole population
	for len(ks) < size {
		k := rng.Float64()
		if k == 0 {
			k = 0.5
		}
		ks = append(ks, k)
		if rng.Intn(3) == 0 { // duplicate on purpose
			ks = append(ks, k)
		}
	}
	rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	return ks
}

// TestSweepBitIdenticalToPointwise is the property test of the prefix-sweep
// engine: for random bonus vectors, polarities, and k-grids (duplicated,
// unsorted, k=1/n and k=1.0 included), every sweep output must equal the
// pointwise evaluator bit for bit — both for homogeneous sweeps (one bonus,
// many k's: the rank-once path) and heterogeneous ones (every point its own
// bonus: the per-point fallback).
func TestSweepBitIdenticalToPointwise(t *testing.T) {
	d := sweepDataset(t, 1500, 401)
	scorer := rank.WeightedSum{Weights: []float64{0.7, 0.3}}
	for _, pol := range []rank.Polarity{rank.Beneficial, rank.Adverse} {
		ev := NewEvaluator(d, scorer, pol)
		rng := rand.New(rand.NewSource(17 + int64(pol)))
		for trial := 0; trial < 12; trial++ {
			var points []SweepPoint
			if trial%3 == 2 { // heterogeneous: every point its own bonus
				ks := randomKGrid(rng, d.N(), 6)
				for _, k := range ks {
					points = append(points, SweepPoint{Bonus: randomBonus(rng, d.NumFair()), K: k})
				}
			} else { // homogeneous: one bonus, many k's
				bonus := randomBonus(rng, d.NumFair())
				for _, k := range randomKGrid(rng, d.N(), 9) {
					points = append(points, SweepPoint{Bonus: bonus, K: k})
				}
			}
			checkSweepMatchesPointwise(t, ev, points)
			if t.Failed() {
				t.Fatalf("trial %d (polarity %v) diverged", trial, pol)
			}
		}
	}
}

func checkSweepMatchesPointwise(t *testing.T, ev *Evaluator, points []SweepPoint) {
	t.Helper()
	disp, err := ev.DisparitySweepCtx(t.Context(), points)
	if err != nil {
		t.Fatalf("DisparitySweep: %v", err)
	}
	ndcg, err := ev.NDCGSweepCtx(t.Context(), points)
	if err != nil {
		t.Fatalf("NDCGSweep: %v", err)
	}
	di, err := ev.DisparateImpactSweepCtx(t.Context(), points)
	if err != nil {
		t.Fatalf("DisparateImpactSweep: %v", err)
	}
	fpr, err := ev.FPRDiffSweepCtx(t.Context(), points)
	if err != nil {
		t.Fatalf("FPRDiffSweep: %v", err)
	}
	ref := newReference(ev)
	for i, pt := range points {
		label := "sweep point " + strconv.Itoa(i)
		ref.checkMetric(t, label, BatchDisparity, pt.Bonus, pt.K, BatchAnswer{Vector: disp[i]})
		ref.checkMetric(t, label, BatchNDCG, pt.Bonus, pt.K, BatchAnswer{Value: ndcg[i]})
		ref.checkMetric(t, label, BatchDisparateImpact, pt.Bonus, pt.K, BatchAnswer{Vector: di[i]})
		ref.checkMetric(t, label, BatchFPRDiff, pt.Bonus, pt.K, BatchAnswer{Vector: fpr[i]})
		wantDisp, err := ev.DisparityCtx(t.Context(), pt.Bonus, pt.K)
		if err != nil {
			t.Fatal(err)
		}
		wantNDCG, err := ev.NDCGCtx(t.Context(), pt.Bonus, pt.K)
		if err != nil {
			t.Fatal(err)
		}
		wantDI, err := ev.DisparateImpact(pt.Bonus, pt.K)
		if err != nil {
			t.Fatal(err)
		}
		wantFPR, err := ev.FPRDiff(pt.Bonus, pt.K)
		if err != nil {
			t.Fatal(err)
		}
		if ndcg[i] != wantNDCG {
			t.Errorf("point %d (k=%g): sweep nDCG %v != pointwise %v", i, pt.K, ndcg[i], wantNDCG)
		}
		for j := range wantDisp {
			if disp[i][j] != wantDisp[j] {
				t.Errorf("point %d (k=%g) dim %d: sweep disparity %v != pointwise %v", i, pt.K, j, disp[i][j], wantDisp[j])
			}
			if di[i][j] != wantDI[j] {
				t.Errorf("point %d (k=%g) dim %d: sweep DI %v != pointwise %v", i, pt.K, j, di[i][j], wantDI[j])
			}
			if fpr[i][j] != wantFPR[j] {
				t.Errorf("point %d (k=%g) dim %d: sweep FPR %v != pointwise %v", i, pt.K, j, fpr[i][j], wantFPR[j])
			}
		}
	}
}

func TestSweepErrors(t *testing.T) {
	d := tinyDataset(t, 200, 21)
	ev := NewEvaluator(d, rank.WeightedSum{Weights: []float64{1}}, rank.Beneficial)

	// Empty sweeps are empty answers, not errors.
	if out, err := ev.DisparitySweepCtx(t.Context(), nil); err != nil || len(out) != 0 {
		t.Errorf("empty DisparitySweep = (%v, %v)", out, err)
	}
	if out, err := ev.NDCGSweepCtx(t.Context(), nil); err != nil || len(out) != 0 {
		t.Errorf("empty NDCGSweep = (%v, %v)", out, err)
	}

	// An invalid fraction is reported with its point index.
	bad := []SweepPoint{{K: 0.5}, {K: 0}, {K: 0.1}}
	for name, call := range map[string]func([]SweepPoint) error{
		"disparity": func(p []SweepPoint) error { _, err := ev.DisparitySweepCtx(t.Context(), p); return err },
		"ndcg":      func(p []SweepPoint) error { _, err := ev.NDCGSweepCtx(t.Context(), p); return err },
		"di":        func(p []SweepPoint) error { _, err := ev.DisparateImpactSweepCtx(t.Context(), p); return err },
	} {
		err := call(bad)
		if err == nil {
			t.Fatalf("%s sweep accepted k=0", name)
		}
		if !strings.Contains(err.Error(), "sweep point 1") || !strings.Contains(err.Error(), "(0,1]") {
			t.Errorf("%s sweep error %q does not locate point 1", name, err)
		}
	}

	// FPR sweeps need outcomes (tinyDataset has none).
	if _, err := ev.FPRDiffSweepCtx(t.Context(), []SweepPoint{{K: 0.1}}); err == nil || !strings.Contains(err.Error(), "outcomes") {
		t.Errorf("FPRDiffSweep without outcomes = %v", err)
	}
}

// TestSweepAllocations pins the satellite fix: result rows are carved from
// one backing slice and prefix scratch lives in the workspace, so a
// 16-point single-bonus sweep performs a small constant number of
// allocations — strictly fewer than one per point.
func TestSweepAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode drops sync.Pool items, inflating pooled-workspace alloc counts")
	}
	d := sweepDataset(t, 4000, 77)
	ev := NewEvaluator(d, rank.WeightedSum{Weights: []float64{0.7, 0.3}}, rank.Beneficial)
	bonus := []float64{1, 0.5, 2}
	points := make([]SweepPoint, 16)
	for i := range points {
		points[i] = SweepPoint{Bonus: bonus, K: 0.01 + 0.02*float64(i)}
	}
	for name, call := range map[string]func(){
		"DisparitySweep":       func() { _, _ = ev.DisparitySweepCtx(t.Context(), points) },
		"NDCGSweep":            func() { _, _ = ev.NDCGSweepCtx(t.Context(), points) },
		"DisparateImpactSweep": func() { _, _ = ev.DisparateImpactSweepCtx(t.Context(), points) },
		"FPRDiffSweep":         func() { _, _ = ev.FPRDiffSweepCtx(t.Context(), points) },
	} {
		call() // warm the workspace pool
		allocs := testing.AllocsPerRun(10, call)
		if perPoint := allocs / float64(len(points)); perPoint >= 1 {
			t.Errorf("%s: %.1f allocs for %d points (%.2f per point), want < 1 per point",
				name, allocs, len(points), perPoint)
		}
	}
}
