// Recidivism: apply DCA to an adverse selection — a COMPAS-like risk tool
// whose decile scores flag the top of the ranking for detention decisions.
// Bonus points are subtracted from the risk score of over-flagged groups
// (the paper's "negative for scenarios where a lower score is desirable"),
// and the false-positive-rate objective targets the exact harm ProPublica
// documented: people who would not reoffend being flagged at unequal rates.
//
//	go run ./examples/recidivism
package main

import (
	"context"
	"fmt"
	"log"

	"fairrank"
)

func main() {
	ctx := context.Background()
	d, err := fairrank.GenerateCompas(fairrank.DefaultCompasConfig())
	if err != nil {
		log.Fatal(err)
	}
	scorer := fairrank.WeightedSum{Weights: fairrank.CompasScoreWeights()}
	const k = 0.20 // the riskiest 20% get flagged

	ev := fairrank.NewEvaluator(d, scorer, fairrank.Adverse)
	names := d.FairNames()

	disp, err := ev.DisparityCtx(ctx, nil, k)
	if err != nil {
		log.Fatal(err)
	}
	fpr, err := ev.FPRDiff(nil, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("before compensation (flagging the top 20% by decile):")
	for j, n := range names {
		fmt.Printf("  %-18s disparity %+.3f   FPR-gap %+.3f\n", n, disp[j], fpr[j])
	}

	// Adverse polarity: the trained points are subtracted from the decile
	// score, pulling over-flagged groups out of the selection.
	opts := fairrank.DefaultOptions()
	opts.Polarity = fairrank.Adverse
	opts.SampleSize = 2000 // rarest race group is ~0.5% of the population

	// Objective 1: statistical parity of the flagged set.
	res, err := fairrank.Train(d, scorer, fairrank.DisparityObjective(k), opts)
	if err != nil {
		log.Fatal(err)
	}
	after, err := ev.DisparityCtx(ctx, res.Bonus, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nafter disparity-objective bonus points:")
	for j, n := range names {
		fmt.Printf("  %-18s bonus %4.1f   disparity %+.3f -> %+.3f\n", n, res.Bonus[j], disp[j], after[j])
	}
	fmt.Printf("  norm %.3f -> %.3f\n", fairrank.Norm(disp), fairrank.Norm(after))

	// Objective 2: equalized odds — drive per-group false positive rates
	// toward the population FPR instead.
	resFPR, err := fairrank.Train(d, scorer, fairrank.FPRObjective(k), opts)
	if err != nil {
		log.Fatal(err)
	}
	fprAfter, err := ev.FPRDiff(resFPR.Bonus, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nafter FPR-objective bonus points:")
	for j, n := range names {
		fmt.Printf("  %-18s bonus %4.1f   FPR-gap %+.3f -> %+.3f\n", n, resFPR.Bonus[j], fpr[j], fprAfter[j])
	}
	fmt.Printf("  norm %.3f -> %.3f\n", fairrank.Norm(fpr), fairrank.Norm(fprAfter))
}
