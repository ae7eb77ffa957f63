// Calibration: the stakeholder workflow of Section VI-A2. A school
// administrator wants the fairest selection that keeps utility (nDCG)
// above a floor. DCA trains the full compensatory vector once; the
// administrator then scales it proportionally, trading disparity against
// utility along a near-linear frontier, with the exact proportion found by
// binary search.
//
//	go run ./examples/calibration
package main

import (
	"context"
	"fmt"
	"log"

	"fairrank"
)

func main() {
	ctx := context.Background()
	cfg := fairrank.DefaultSchoolConfig()
	cfg.N = 40000
	d, err := fairrank.GenerateSchool(cfg)
	if err != nil {
		log.Fatal(err)
	}
	scorer := fairrank.WeightedSum{Weights: fairrank.SchoolScoreWeights()}
	const k = 0.05

	res, err := fairrank.Train(d, scorer, fairrank.DisparityObjective(k), fairrank.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	ev := fairrank.NewEvaluator(d, scorer, fairrank.Beneficial)

	fmt.Printf("full bonus vector: %v\n\n", res.Bonus)
	fmt.Printf("%10s %16s %8s\n", "proportion", "disparity-norm", "nDCG")
	for w := 0.0; w <= 1.0001; w += 0.125 {
		scaled := fairrank.ScaleBonus(res.Bonus, w, 0.5)
		disp, err := ev.DisparityCtx(ctx, scaled, k)
		if err != nil {
			log.Fatal(err)
		}
		ndcg, err := ev.NDCGCtx(ctx, scaled, k)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%10.3f %16.3f %8.3f\n", w, fairrank.Norm(disp), ndcg)
	}

	// The administrator's constraint: nDCG must stay at or above 0.98.
	const floor = 0.98
	w, err := ev.FindScaleForNDCG(res.Bonus, k, floor, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	scaled := fairrank.ScaleBonus(res.Bonus, w, 0.5)
	disp, err := ev.DisparityCtx(ctx, scaled, k)
	if err != nil {
		log.Fatal(err)
	}
	ndcg, err := ev.NDCGCtx(ctx, scaled, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbinary search for nDCG >= %.2f: proportion %.3f, bonus %v\n", floor, w, scaled)
	fmt.Printf("  achieves nDCG %.3f with disparity norm %.3f\n", ndcg, fairrank.Norm(disp))
}
