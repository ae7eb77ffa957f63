package fairrank_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"fairrank"
)

// ExampleTrain shows the core workflow: build a biased population, train
// compensatory bonus points, and verify the disparity collapses.
func ExampleTrain() {
	rng := rand.New(rand.NewSource(7))
	b := fairrank.NewBuilder([]string{"score"}, []string{"protected"})
	for i := 0; i < 4000; i++ {
		p := 0.0
		if rng.Float64() < 0.4 {
			p = 1
		}
		// The protected group carries a structural 5-point penalty.
		b.Add([]float64{60 + 10*rng.NormFloat64() - 5*p}, []float64{p})
	}
	d, err := b.Build()
	if err != nil {
		panic(err)
	}
	scorer := fairrank.WeightedSum{Weights: []float64{1}}

	res, err := fairrank.Train(d, scorer, fairrank.DisparityObjective(0.1), fairrank.DefaultOptions())
	if err != nil {
		panic(err)
	}
	ev := fairrank.NewEvaluator(d, scorer, fairrank.Beneficial)
	ctx := context.Background()
	before, _ := ev.DisparityCtx(ctx, nil, 0.1)
	after, _ := ev.DisparityCtx(ctx, res.Bonus, 0.1)
	fmt.Printf("bonus recovers the penalty: %t\n", res.Bonus[0] >= 3.5 && res.Bonus[0] <= 6.5)
	fmt.Printf("disparity reduced: %t\n", fairrank.Norm(after) < fairrank.Norm(before)/3)
	// Output:
	// bonus recovers the penalty: true
	// disparity reduced: true
}

// ExampleNewEvaluator demonstrates the utility/fairness trade-off knob:
// scaling the bonus proportionally trades disparity for nDCG.
func ExampleNewEvaluator() {
	rng := rand.New(rand.NewSource(11))
	b := fairrank.NewBuilder([]string{"score"}, []string{"protected"})
	for i := 0; i < 4000; i++ {
		p := 0.0
		if rng.Float64() < 0.4 {
			p = 1
		}
		b.Add([]float64{60 + 10*rng.NormFloat64() - 5*p}, []float64{p})
	}
	d, _ := b.Build()
	scorer := fairrank.WeightedSum{Weights: []float64{1}}
	ev := fairrank.NewEvaluator(d, scorer, fairrank.Beneficial)
	ctx := context.Background()

	full := []float64{5}
	half := fairrank.ScaleBonus(full, 0.5, 0.5)
	nFull, _ := ev.DisparityCtx(ctx, full, 0.1)
	nHalf, _ := ev.DisparityCtx(ctx, half, 0.1)
	uFull, _ := ev.NDCGCtx(ctx, full, 0.1)
	uHalf, _ := ev.NDCGCtx(ctx, half, 0.1)
	fmt.Printf("half bonus leaves more disparity: %t\n", fairrank.Norm(nHalf) > fairrank.Norm(nFull))
	fmt.Printf("half bonus keeps more utility: %t\n", uHalf > uFull)
	// Output:
	// half bonus leaves more disparity: true
	// half bonus keeps more utility: true
}

// exampleCohort builds the small deterministic population the evaluator
// examples share: a protected group carrying a structural score penalty.
func exampleCohort() *fairrank.Dataset {
	rng := rand.New(rand.NewSource(3))
	b := fairrank.NewBuilder([]string{"score"}, []string{"protected"})
	for i := 0; i < 2000; i++ {
		p := 0.0
		if rng.Float64() < 0.3 {
			p = 1
		}
		b.Add([]float64{60 + 10*rng.NormFloat64() - 5*p}, []float64{p})
	}
	d, err := b.Build()
	if err != nil {
		panic(err)
	}
	return d
}

// ExampleEvaluator_DisparitySweepCtx shows the sweep engine: points sharing
// a bonus vector are ranked once, and every selection fraction is
// answered from prefix aggregates of that single ranking.
func ExampleEvaluator_DisparitySweepCtx() {
	d := exampleCohort()
	ev := fairrank.NewEvaluator(d, fairrank.WeightedSum{Weights: []float64{1}}, fairrank.Beneficial)
	ctx := context.Background()

	bonus := []float64{5}
	points := []fairrank.SweepPoint{
		{Bonus: bonus, K: 0.05}, {Bonus: bonus, K: 0.1}, {Bonus: bonus, K: 0.2},
	}
	disps, err := ev.DisparitySweepCtx(ctx, points) // one ranking, three answers
	if err != nil {
		panic(err)
	}
	base, _ := ev.DisparityCtx(ctx, nil, 0.1)
	fmt.Printf("compensation shrinks disparity at every k: %t\n",
		math.Abs(disps[0][0]) < math.Abs(base[0]) &&
			math.Abs(disps[1][0]) < math.Abs(base[0]) &&
			math.Abs(disps[2][0]) < math.Abs(base[0]))
	// Output:
	// compensation shrinks disparity at every k: true
}

// ExampleEvaluator_ExplainCtx publishes the transparency report of a bonus
// policy: the cutoff any applicant can compare their score against, and
// the per-group selection counts.
func ExampleEvaluator_ExplainCtx() {
	d := exampleCohort()
	ev := fairrank.NewEvaluator(d, fairrank.WeightedSum{Weights: []float64{1}}, fairrank.Beneficial)
	ctx := context.Background()

	exp, err := ev.ExplainCtx(ctx, []float64{5}, 0.1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("selected %d of %d\n", exp.Selected, d.N())
	// The published cutoff is in effective-score space: with bonus points
	// added it sits above the uncompensated cutoff.
	fmt.Printf("cutoff published alongside the policy: %t\n", exp.Cutoff >= exp.BaseCutoff)
	fmt.Printf("protected members selected: %d (was %d)\n", exp.GroupCounts[0], exp.BaseGroupCounts[0])
	// Output:
	// selected 200 of 2000
	// cutoff published alongside the policy: true
	// protected members selected: 68 (was 41)
}

// ExampleEvaluator_CounterfactualBatchCtx asks the audit question: what
// is the smallest change that flips an object's selection? The returned
// delta is minimal at float64 resolution — applying it flips, anything
// smaller does not.
func ExampleEvaluator_CounterfactualBatchCtx() {
	d := exampleCohort()
	ev := fairrank.NewEvaluator(d, fairrank.WeightedSum{Weights: []float64{1}}, fairrank.Beneficial)
	ctx := context.Background()

	bonus := []float64{5}
	order, err := ev.Order(bonus)
	if err != nil {
		panic(err)
	}
	sel, _ := ev.SelectCtx(ctx, bonus, 0.1)
	first := order[len(sel)] // best-ranked excluded object

	cfs, err := ev.CounterfactualBatchCtx(ctx, bonus, 0.1, []int{first})
	if err != nil {
		panic(err)
	}
	cf := cfs[0]
	fmt.Printf("selected: %t, rank %d\n", cf.Selected, cf.Rank)
	fmt.Printf("needs a positive score delta to enter: %t\n", cf.ScoreDelta > 0)
	fmt.Printf("delta is within one ranking step of the cutoff: %t\n",
		cf.Effective+cf.ScoreDelta >= cf.Cutoff)
	// Output:
	// selected: false, rank 200
	// needs a positive score delta to enter: true
	// delta is within one ranking step of the cutoff: true
}

// ExampleDeferredAcceptance runs the matching substrate of the paper's
// NYC scenario with one reserved seat.
func ExampleDeferredAcceptance() {
	prefs := [][]int{{0}, {0}, {0}}
	schools := []fairrank.School{{Capacity: 2, Reserved: 1, Scores: []float64{9, 8, 7}}}
	disadvantaged := []bool{false, false, true}
	m, err := fairrank.DeferredAcceptance(prefs, schools, disadvantaged)
	if err != nil {
		panic(err)
	}
	fmt.Println("assignments:", m.Assigned)
	// Output:
	// assignments: [0 -1 0]
}
