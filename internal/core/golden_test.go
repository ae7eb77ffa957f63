package core

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	"fairrank/internal/rank"
	"fairrank/internal/synth"
)

// The engine refactor (workspace buffers, bound objectives, shared descent
// loop) must not change a single bit of any trained vector: these hex
// goldens were captured from the pre-engine implementation on a fixed
// synthetic cohort and pin Run, CoreDCA, FullDCA, the log-discounted and
// capped variants, and the ensemble aggregation exactly.

func goldenDataset(t *testing.T) (*synth.SchoolConfig, rank.Scorer) {
	t.Helper()
	cfg := synth.DefaultSchoolConfig()
	cfg.N = 4000
	cfg.Seed = 99
	// The goldens were captured before the generator learned to round ENI
	// onto the published grid; keep this cohort continuous so every hex
	// value below stays valid. (This also exercises the full-sort path:
	// a continuous attribute defeats the combo-run partition, so these
	// bit-exact pins cover the code the merge falls back to.)
	cfg.ENILevels = 0
	return &cfg, rank.WeightedSum{Weights: synth.SchoolScoreWeights()}
}

func hexVec(strs []string) []float64 {
	out := make([]float64, len(strs))
	for i, s := range strs {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			panic(err)
		}
		out[i] = v
	}
	return out
}

func requireExact(t *testing.T, label string, got []float64, wantHex []string) {
	t.Helper()
	want := hexVec(wantHex)
	if len(got) != len(want) {
		t.Fatalf("%s: got %d dims, want %d", label, len(got), len(want))
	}
	for j := range want {
		if got[j] != want[j] {
			t.Errorf("%s[%d] = %s, want %s (not bit-identical)",
				label, j, strconv.FormatFloat(got[j], 'x', -1, 64), wantHex[j])
		}
	}
}

func TestGoldenBitIdentical(t *testing.T) {
	cfg, scorer := goldenDataset(t)
	d, err := synth.GenerateSchool(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Seed = 7

	run, err := Run(d, scorer, DisparityObjective(0.05), opts)
	if err != nil {
		t.Fatal(err)
	}
	requireExact(t, "Run.Raw", run.Raw,
		[]string{"0x1.0664043f94e33p+01", "0x1.5fcbfaed779c1p+03", "0x1.59f7a2e3064f6p+03", "0x1.828679e03e8efp+03"})
	requireExact(t, "Run.CoreBonus", run.CoreBonus,
		[]string{"0x1.51d453524a383p+01", "0x1.3b206acba3f7ap+03", "0x1.2fbdbbd4e3892p+03", "0x1.8169c6cad4b61p+03"})
	requireExact(t, "Run.Bonus", run.Bonus,
		[]string{"0x1p+01", "0x1.6p+03", "0x1.6p+03", "0x1.8p+03"})

	coreRes, err := CoreDCA(d, scorer, DisparityObjective(0.05), opts)
	if err != nil {
		t.Fatal(err)
	}
	requireExact(t, "CoreDCA.Raw", coreRes.Raw,
		[]string{"0x1.51d453524a383p+01", "0x1.3b206acba3f7ap+03", "0x1.2fbdbbd4e3892p+03", "0x1.8169c6cad4b61p+03"})

	full, err := FullDCA(d, scorer, DisparityObjective(0.05), opts)
	if err != nil {
		t.Fatal(err)
	}
	requireExact(t, "FullDCA.Raw", full.Raw,
		[]string{"0x1.2b0ee5f54f8b6p+01", "0x1.41a1d9cc0cd2bp+03", "0x1.2917603a3daddp+03", "0x1.7eac8a94c37fbp+03"})

	ld, err := Run(d, scorer, LogDiscountedDisparity(0.1, 0.5), opts)
	if err != nil {
		t.Fatal(err)
	}
	requireExact(t, "LogDiscounted.Raw", ld.Raw,
		[]string{"0x1.0cdae287b6868p+01", "0x1.1d3fc411f1f8p+03", "0x1.e8354888c11fcp+02", "0x1.3d744c6fe953cp+03"})

	capped := opts
	capped.MaxBonus = 3
	cp, err := Run(d, scorer, DisparityObjective(0.10), capped)
	if err != nil {
		t.Fatal(err)
	}
	requireExact(t, "Capped.Raw", cp.Raw,
		[]string{"0x1.8p+01", "0x1.8p+01", "0x1.8p+01", "0x1.8p+01"})
}

func TestGoldenEnsembleBitIdentical(t *testing.T) {
	cfg, scorer := goldenDataset(t)
	d, err := synth.GenerateSchool(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Seed = 7
	ens, err := Ensemble(d, scorer, DisparityObjective(0.05), opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	requireExact(t, "Ensemble.Mean", ens.Mean,
		[]string{"0x1.010814898c614p+01", "0x1.611fa4a7d0636p+03", "0x1.56037e3c3bbb7p+03", "0x1.81563ba5f3801p+03"})
	requireExact(t, "Ensemble.Std", ens.Std,
		[]string{"0x1.7f38c6cf013d4p-05", "0x1.4aaa5b387724fp-04", "0x1.8b26984b5b115p-03", "0x1.4ad3565c67e72p-04"})
}

// TestGoldenSweepBitIdentical pins the prefix-sweep engine two ways: the
// evaluation metrics of the golden trained vector are frozen as hex
// goldens (captured from the pointwise evaluators), and the sweep engine —
// which ranks once per bonus vector and answers every k from prefix
// aggregates — must reproduce each of them bit for bit at every point of
// a duplicated, unsorted k-grid.
func TestGoldenSweepBitIdentical(t *testing.T) {
	cfg, scorer := goldenDataset(t)
	d, err := synth.GenerateSchool(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Seed = 7
	run, err := Run(d, scorer, DisparityObjective(0.05), opts)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(d, scorer, rank.Beneficial)

	goldens := []struct {
		k    float64
		disp []string
		ndcg string
		di   []string
	}{
		{0.01,
			[]string{"0x1.0b4395810625p-04", "-0x1.e353f7ced9168p-05", "-0x1.af33090c030cp-06", "-0x1.a2d0e56041894p-04"},
			"0x1.edf3159b2e447p-01",
			[]string{"0x1.1a984296a2d12p-02", "-0x1.23b94b47923b9p-01", "-0x1.83af96894aaecp-03", "-0x1.1f9bdd430cd56p-01"}},
		{0.05,
			[]string{"0x1.4fdf3b645a1cp-07", "-0x1.26e978d4fdf38p-07", "-0x1.17329663960cp-06", "-0x1.26e978d4fdf4p-09"},
			"0x1.eaddde3400207p-01",
			[]string{"0x1.7f3e22a10eefp-05", "-0x1.77c7a20e177c8p-04", "-0x1.5d40b08a1973p-03", "-0x1.c7ac75b73804p-07"}},
		{0.5,
			[]string{"0x1.28f5c28f5c29p-05", "0x1.ba5e353f7cedcp-06", "0x1.d507eaf1668cp-07", "0x1.83126e978d4fcp-05"},
			"0x1.f0d86c83f10adp-01",
			[]string{"0x1.469fa65206a1p-03", "0x1.c853f6df99c88p-03", "0x1.55b586e41c3ep-04", "0x1.e62d4f597e4e4p-03"}},
	}

	// A duplicated, unsorted grid over the golden cuts: the sweep engine
	// must answer every occurrence identically.
	var points []SweepPoint
	for _, i := range []int{1, 0, 2, 1, 2, 0, 1} {
		points = append(points, SweepPoint{Bonus: run.Bonus, K: goldens[i].k})
	}
	disp, err := ev.DisparitySweepCtx(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	ndcg, err := ev.NDCGSweepCtx(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	di, err := ev.DisparateImpactSweepCtx(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	for p, i := range []int{1, 0, 2, 1, 2, 0, 1} {
		g := goldens[i]
		label := fmt.Sprintf("sweep[%d] (k=%g)", p, g.k)
		requireExact(t, label+".disparity", disp[p], g.disp)
		requireExact(t, label+".ndcg", []float64{ndcg[p]}, []string{g.ndcg})
		requireExact(t, label+".di", di[p], g.di)

		// And the pointwise path answers the same goldens.
		pd, err := ev.DisparityCtx(context.Background(), run.Bonus, g.k)
		if err != nil {
			t.Fatal(err)
		}
		pn, err := ev.NDCGCtx(context.Background(), run.Bonus, g.k)
		if err != nil {
			t.Fatal(err)
		}
		pi, err := ev.DisparateImpact(run.Bonus, g.k)
		if err != nil {
			t.Fatal(err)
		}
		requireExact(t, label+".pointwise.disparity", pd, g.disp)
		requireExact(t, label+".pointwise.ndcg", []float64{pn}, []string{g.ndcg})
		requireExact(t, label+".pointwise.di", pi, g.di)
	}
}

// TestGoldenFPRSweepMatchesPointwise pins FPRDiffSweep against the
// pointwise FPRDiff on an outcome-bearing synthetic cohort under adverse
// polarity, bit for bit.
func TestGoldenFPRSweepMatchesPointwise(t *testing.T) {
	cfg := synth.DefaultCompasConfig()
	cfg.N = 4000
	cfg.Seed = 99
	d, err := synth.GenerateCompas(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(d, rank.WeightedSum{Weights: synth.CompasScoreWeights()}, rank.Adverse)
	bonus := make([]float64, d.NumFair())
	for j := range bonus {
		bonus[j] = 0.5 * float64(j+1)
	}
	points := []SweepPoint{{Bonus: bonus, K: 0.2}, {Bonus: bonus, K: 0.05}, {Bonus: nil, K: 0.2}, {Bonus: bonus, K: 1}}
	got, err := ev.FPRDiffSweepCtx(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	for p, pt := range points {
		want, err := ev.FPRDiff(pt.Bonus, pt.K)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if got[p][j] != want[j] {
				t.Errorf("point %d (k=%g) dim %d: sweep FPR %v != pointwise %v (not bit-identical)",
					p, pt.K, j, got[p][j], want[j])
			}
		}
	}
}

// TestTrainerReuseMatchesOneShot pins the workspace-reuse contract: a
// Trainer run twice (buffers warm) must reproduce the one-shot result
// exactly, and FullDCA through a reused Trainer must match the package
// function.
func TestTrainerReuseMatchesOneShot(t *testing.T) {
	cfg, scorer := goldenDataset(t)
	d, err := synth.GenerateSchool(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Seed = 11
	obj := DisparityObjective(0.05)

	oneShot, err := Run(d, scorer, obj, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrainer(d, scorer)
	if _, err := tr.TrainCtx(context.Background(), obj, opts); err != nil { // warm the buffers
		t.Fatal(err)
	}
	warm, err := tr.TrainCtx(context.Background(), obj, opts)
	if err != nil {
		t.Fatal(err)
	}
	for j := range oneShot.Raw {
		if warm.Raw[j] != oneShot.Raw[j] {
			t.Fatalf("warm Trainer Raw = %v, one-shot = %v", warm.Raw, oneShot.Raw)
		}
	}

	fullPkg, err := FullDCA(d, scorer, obj, opts)
	if err != nil {
		t.Fatal(err)
	}
	fullWarm, err := tr.TrainFullCtx(context.Background(), obj, opts)
	if err != nil {
		t.Fatal(err)
	}
	for j := range fullPkg.Raw {
		if fullWarm.Raw[j] != fullPkg.Raw[j] {
			t.Fatalf("warm TrainFull Raw = %v, package FullDCA = %v", fullWarm.Raw, fullPkg.Raw)
		}
	}
}
