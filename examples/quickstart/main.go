// Quickstart: build a small dataset by hand, train DCA bonus points, and
// inspect the disparity before and after.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"fairrank"
)

func main() {
	ctx := context.Background()

	// A toy hiring pool: 5,000 candidates scored by a skills assessment
	// (0-100). Candidates from an under-resourced background ("first-gen",
	// 30% of the pool) score 8 points lower on average for reasons
	// unrelated to on-the-job performance.
	rng := rand.New(rand.NewSource(42))
	b := fairrank.NewBuilder([]string{"assessment"}, []string{"first-gen"})
	for i := 0; i < 5000; i++ {
		firstGen := 0.0
		if rng.Float64() < 0.30 {
			firstGen = 1
		}
		score := 70 + 12*rng.NormFloat64() - 8*firstGen
		b.Add([]float64{score}, []float64{firstGen})
	}
	d, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	scorer := fairrank.WeightedSum{Weights: []float64{1}}
	const k = 0.10 // we interview the top 10%

	ev := fairrank.NewEvaluator(d, scorer, fairrank.Beneficial)
	before, err := ev.DisparityCtx(ctx, nil, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("population first-gen share: 30%%\n")
	fmt.Printf("disparity before: %+.3f (negative = first-gen underrepresented in interviews)\n", before[0])

	// Train the compensatory bonus. DCA samples the pool; it never ranks
	// the whole dataset during training.
	opts := fairrank.DefaultOptions()
	res, err := fairrank.Train(d, scorer, fairrank.DisparityObjective(k), opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained bonus: %.1f points for first-gen candidates (in %s)\n", res.Bonus[0], res.Elapsed)

	after, err := ev.DisparityCtx(ctx, res.Bonus, k)
	if err != nil {
		log.Fatal(err)
	}
	ndcg, err := ev.NDCGCtx(ctx, res.Bonus, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("disparity after: %+.3f\n", after[0])
	fmt.Printf("utility nDCG@%.2f: %.3f (1 = interview list unchanged)\n", k, ndcg)

	// The intervention is fully explainable: publish the bonus in advance
	// and every candidate can compute their own adjusted score.
	fmt.Println("\npolicy statement: \"first-generation applicants receive",
		res.Bonus[0], "points on the 100-point assessment\"")
}
