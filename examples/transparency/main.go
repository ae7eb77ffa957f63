// Transparency: the explainability workflow the paper argues is the core
// advantage of bonus points over opaque re-ranking (Section III-C). The
// school publishes the rubric, the bonus vector, and the admission cutoff
// before applications are due; every family can then compute their
// student's adjusted score, see exactly which adjustments applied, and
// compare against the published threshold.
//
//	go run ./examples/transparency
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

	// An ensemble across seeds gives the committee a stability read before
	// publishing: large per-dimension spread would mean the policy is
	// sensitive to sampling noise.
	opts := fairrank.DefaultOptions()
	ens, err := fairrank.TrainEnsemble(d, scorer, fairrank.DisparityObjective(k), opts, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("bonus policy (5-seed ensemble):")
	for j, name := range d.FairNames() {
		fmt.Printf("  %-12s %5.1f points  (seed-to-seed std %.2f)\n", name, ens.Bonus[j], ens.Std[j])
	}

	ev := fairrank.NewEvaluator(d, scorer, fairrank.Beneficial)
	exp, err := ev.ExplainCtx(ctx, ens.Bonus, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\npublished admission report:")
	for _, line := range exp.Summary() {
		fmt.Println("  " + line)
	}

	// A family checks their student's standing: the first beneficiary and
	// the first displaced student.
	for _, obj := range []int{exp.AdmittedByBonus[0], exp.DisplacedByBonus[0]} {
		oe, err := ev.ExplainObject(exp, obj)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nstudent #%d:\n", obj)
		fmt.Printf("  rubric score        %8.3f\n", oe.BaseScore)
		for j, name := range d.FairNames() {
			if oe.PerAttribute[j] != 0 {
				fmt.Printf("  %-18s %+8.3f\n", name+" bonus", oe.PerAttribute[j])
			}
		}
		fmt.Printf("  adjusted score      %8.3f\n", oe.Effective)
		fmt.Printf("  published cutoff    %8.3f\n", exp.Cutoff)
		verdict := "not admitted"
		if oe.Selected {
			verdict = "admitted"
		}
		fmt.Printf("  margin %+.3f -> %s\n", oe.Margin, verdict)
	}
}
