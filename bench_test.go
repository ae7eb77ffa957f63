// Benchmarks for every table and figure of the paper plus the
// selection-strategy and optimizer micro-ablations called out in
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks share one memoized environment (QuickConfig),
// so the first iteration pays dataset generation and DCA training and
// subsequent iterations measure evaluation/rendering; the DCA training
// cost itself is measured separately by BenchmarkDCATrain*.
package fairrank_test

import (
	"context"
	"io"
	"math/rand"
	"testing"

	"fairrank"
	"fairrank/internal/core"
	"fairrank/internal/engine"
	"fairrank/internal/experiments"
	"fairrank/internal/rank"
	"fairrank/internal/stats"
)

var benchEnv = experiments.NewEnv(experiments.QuickConfig())

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := e.Run(benchEnv)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper artifact (see DESIGN.md experiment index).

func BenchmarkTable1(b *testing.B)   { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)   { benchExperiment(b, "table2") }
func BenchmarkFig1(b *testing.B)     { benchExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)     { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)     { benchExperiment(b, "fig3") }
func BenchmarkFig4a(b *testing.B)    { benchExperiment(b, "fig4a") }
func BenchmarkFig4b(b *testing.B)    { benchExperiment(b, "fig4b") }
func BenchmarkFig4c(b *testing.B)    { benchExperiment(b, "fig4c") }
func BenchmarkFig5(b *testing.B)     { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)     { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)     { benchExperiment(b, "fig7") }
func BenchmarkFig8a(b *testing.B)    { benchExperiment(b, "fig8a") }
func BenchmarkFig8b(b *testing.B)    { benchExperiment(b, "fig8b") }
func BenchmarkFig9(b *testing.B)     { benchExperiment(b, "fig9") }
func BenchmarkFig10a(b *testing.B)   { benchExperiment(b, "fig10a") }
func BenchmarkFig10b(b *testing.B)   { benchExperiment(b, "fig10b") }
func BenchmarkFig10c(b *testing.B)   { benchExperiment(b, "fig10c") }
func BenchmarkExposure(b *testing.B) { benchExperiment(b, "exposure") }

func BenchmarkAblationOptimizer(b *testing.B) { benchExperiment(b, "ablation-optim") }
func BenchmarkAblationSample(b *testing.B)    { benchExperiment(b, "ablation-sample") }
func BenchmarkAblationStability(b *testing.B) { benchExperiment(b, "ablation-stability") }
func BenchmarkAblationEstimator(b *testing.B) { benchExperiment(b, "ablation-estimator") }
func BenchmarkAblationDrift(b *testing.B)     { benchExperiment(b, "ablation-drift") }
func BenchmarkAblationReferee(b *testing.B)   { benchExperiment(b, "ablation-referee") }
func BenchmarkAblationMatching(b *testing.B)  { benchExperiment(b, "ablation-matching") }

func BenchmarkAblationConvergence(b *testing.B) { benchExperiment(b, "ablation-convergence") }

// DCA training cost (the paper's efficiency claim: sub-linear in the
// dataset because only samples are ranked).

func benchTrain(b *testing.B, n int) {
	cfg := fairrank.DefaultSchoolConfig()
	cfg.N = n
	d, err := fairrank.GenerateSchool(cfg)
	if err != nil {
		b.Fatal(err)
	}
	scorer := fairrank.WeightedSum{Weights: fairrank.SchoolScoreWeights()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := fairrank.DefaultOptions()
		opts.Seed = int64(i + 1)
		if _, err := fairrank.Train(d, scorer, fairrank.DisparityObjective(0.05), opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDCATrain20k(b *testing.B) { benchTrain(b, 20_000) }
func BenchmarkDCATrain80k(b *testing.B) { benchTrain(b, 80_000) }

// BenchmarkTrainerWarm80k trains the way fairrankd does: one held Trainer
// (base scores and workspace already paid for), a cancellable request
// context and a fresh seed per run, so it measures the descent and its
// sample schedule alone. BenchmarkTrainerWarm80kK10 is the same train at
// k=0.1, the analyst workload's other cold train.
func BenchmarkTrainerWarm80k(b *testing.B)    { benchTrainerWarm(b, 0.05) }
func BenchmarkTrainerWarm80kK10(b *testing.B) { benchTrainerWarm(b, 0.1) }

func benchTrainerWarm(b *testing.B, k float64) {
	cfg := fairrank.DefaultSchoolConfig()
	cfg.N = 80_000
	d, err := fairrank.GenerateSchool(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tr := fairrank.NewTrainer(d, fairrank.WeightedSum{Weights: fairrank.SchoolScoreWeights()})
	obj := fairrank.DisparityObjective(k)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := fairrank.DefaultOptions()
	if _, err := tr.TrainCtx(ctx, obj, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = int64(i + 2)
		if _, err := tr.TrainCtx(ctx, obj, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWhatIfSession80k is one stakeholder session on the 80k school
// cohort, in process: a 64-point disparity sweep to k=1 of a bonus vector
// no earlier op has asked about, then at k=0.05 its audit bundle,
// counterfactuals for 32 applicants and its explanation. The sweep ranks
// the vector; the three later questions read its order from the
// evaluator's ranked-order memo, and the bundle adds one leave-one-out
// merge per non-zero bonus entry.
func BenchmarkWhatIfSession80k(b *testing.B) {
	d, err := fairrank.GenerateSchool(fairrank.DefaultSchoolConfig())
	if err != nil {
		b.Fatal(err)
	}
	ev := fairrank.NewEvaluator(d, fairrank.WeightedSum{Weights: fairrank.SchoolScoreWeights()}, fairrank.Beneficial)
	objs := make([]int, 32)
	for i := range objs {
		objs[i] = (i * d.N()) / 33
	}
	pts := make([]fairrank.SweepPoint, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bonus := []float64{2 + 0.5*float64(i), 11, 10.5, 12.5}
		for j := range pts {
			pts[j] = fairrank.SweepPoint{Bonus: bonus, K: float64(j+1) / 64}
		}
		if _, err := ev.DisparitySweepCtx(context.Background(), pts); err != nil {
			b.Fatal(err)
		}
		if _, err := fairrank.BuildAuditBundle(ev, fairrank.AuditConfig{Dataset: "school", Bonus: bonus, K: 0.05}); err != nil {
			b.Fatal(err)
		}
		if _, err := ev.CounterfactualBatchCtx(context.Background(), bonus, 0.05, objs); err != nil {
			b.Fatal(err)
		}
		if _, err := ev.ExplainCtx(context.Background(), bonus, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

// portalPolicies are the four policies perfbench's portal publishes.
var portalPolicies = [][]float64{{2, 10.5, 9, 12}, {1.5, 10, 8.5, 11.5}, {2.5, 11, 9.5, 12.5}, {0, 8, 8, 10}}

// portalAsker builds an evaluator on the 80k school cohort and returns it
// with the portal's question i: one applicant's counterfactual at k=0.05
// under policy i mod 4.
func portalAsker(b *testing.B) (*fairrank.Evaluator, func(i int)) {
	d, err := fairrank.GenerateSchool(fairrank.DefaultSchoolConfig())
	if err != nil {
		b.Fatal(err)
	}
	ev := fairrank.NewEvaluator(d, fairrank.WeightedSum{Weights: fairrank.SchoolScoreWeights()}, fairrank.Beneficial)
	return ev, func(i int) {
		obj := (i * 7919) % d.N()
		if _, err := ev.CounterfactualBatchCtx(context.Background(), portalPolicies[i%len(portalPolicies)], 0.05, []int{obj}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPortalCounterfactuals80k is a portal's cache-miss path on the
// 80k school cohort, in process: each op is one applicant's
// counterfactual at k=0.05 under one of four published policies, taken in
// turn. After one merge per policy (before the timer), every op reads its
// policy's ranked prefix from the evaluator's ranked-order memo and looks
// up the applicant's rank run by run.
func BenchmarkPortalCounterfactuals80k(b *testing.B) {
	_, ask := portalAsker(b)
	for i := range portalPolicies {
		ask(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ask(i)
	}
}

// BenchmarkPortalBesideWhatIf80k is the portal's traffic on an evaluator
// a what-if client shares: each op asks one counterfactual under each
// policy, then ranks a never-seen bonus vector in full (a disparity at
// k=1). The full order evicts every policy from the ranked-order memo, so
// each policy merges again, but both kinds of request store their orders
// in the memo's one arena: B/op shows no n-sized (320 KB) allocation.
func BenchmarkPortalBesideWhatIf80k(b *testing.B) {
	ev, ask := portalAsker(b)
	op := func(i int) {
		for q := range portalPolicies {
			ask(len(portalPolicies)*i + q)
		}
		whatIf := []float64{1, 2, 3, 4 + 0.001*float64(i)}
		if _, err := ev.DisparityCtx(context.Background(), whatIf, 1); err != nil {
			b.Fatal(err)
		}
	}
	op(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		op(i)
	}
}

// Ensemble training cost (the engine's concurrent evaluation layer: one
// workspace per worker goroutine, shared base scores).

func benchTrainEnsemble(b *testing.B, n, runs int) {
	cfg := fairrank.DefaultSchoolConfig()
	cfg.N = n
	d, err := fairrank.GenerateSchool(cfg)
	if err != nil {
		b.Fatal(err)
	}
	scorer := fairrank.WeightedSum{Weights: fairrank.SchoolScoreWeights()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := fairrank.DefaultOptions()
		opts.Seed = int64(i + 1)
		if _, err := fairrank.TrainEnsemble(d, scorer, fairrank.DisparityObjective(0.05), opts, runs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainSchoolEnsemble8(b *testing.B)  { benchTrainEnsemble(b, 20_000, 8) }
func BenchmarkTrainSchoolEnsemble32(b *testing.B) { benchTrainEnsemble(b, 20_000, 32) }

// Top-5% selection by the bounded heap every selection path uses.

func benchSelect(b *testing.B, n int, pick func(scores []float64, k int) []int) {
	rng := rand.New(rand.NewSource(7))
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = rng.NormFloat64()
	}
	k := n / 20
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := pick(scores, k); len(got) != k {
			b.Fatalf("selected %d, want %d", len(got), k)
		}
	}
}

func BenchmarkSelectHeap10k(b *testing.B)  { benchSelect(b, 10_000, rank.TopKHeap) }
func BenchmarkSelectHeap100k(b *testing.B) { benchSelect(b, 100_000, rank.TopKHeap) }

// Objective evaluation cost per DCA step (sample of 500, k=5%).

func BenchmarkObjectiveDisparity(b *testing.B) {
	d, err := benchEnv.Train()
	if err != nil {
		b.Fatal(err)
	}
	scorer := benchEnv.SchoolScorer()
	base := scorer.BaseScores(d)
	rng := rand.New(rand.NewSource(3))
	idx := rng.Perm(d.N())[:500]
	bonus := []float64{1, 11.5, 12, 12}
	eff := rank.EffectiveScores(d, base, idx, bonus, rank.Beneficial, nil)
	obj := core.DisparityObjective(0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := obj.Eval(d, idx, eff); err != nil {
			b.Fatal(err)
		}
	}
}

// The same evaluation through the engine's bound, in-place objective API —
// the per-step hot path of the descent loop. Expect 0 allocs/op.

func BenchmarkObjectiveDisparityBound(b *testing.B) {
	d, err := benchEnv.Train()
	if err != nil {
		b.Fatal(err)
	}
	scorer := benchEnv.SchoolScorer()
	base := scorer.BaseScores(d)
	rng := rand.New(rand.NewSource(3))
	idx := rng.Perm(d.N())[:500]
	bonus := []float64{1, 11.5, 12, 12}
	eff := rank.EffectiveScores(d, base, idx, bonus, rank.Beneficial, nil)
	bound, err := core.BindObjective(core.DisparityObjective(0.05), d)
	if err != nil {
		b.Fatal(err)
	}
	ws := engine.NewWorkspace(d.NumFair())
	dst := make([]float64, d.NumFair())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bound.EvalInto(ws, idx, eff, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// Multinomial CDF cost (the FA*IR bottleneck the paper contrasts with
// DCA's sampling).

func BenchmarkMultinomialCDF(b *testing.B) {
	m := stats.Multinomial{N: 125, P: []float64{0.55, 0.25, 0.15, 0.05}}
	bounds := []int{125, 28, 16, 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.CDF(bounds); err != nil {
			b.Fatal(err)
		}
	}
}
