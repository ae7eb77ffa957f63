package synth

import (
	"math"
	"testing"

	"fairrank/internal/metrics"
	"fairrank/internal/rank"
	"fairrank/internal/stats"
)

func TestCompasShapeAndMarginals(t *testing.T) {
	cfg := DefaultCompasConfig()
	d, err := GenerateCompas(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 7214 {
		t.Fatalf("N = %d, want 7214", d.N())
	}
	if !d.HasOutcomes() {
		t.Fatal("no outcomes")
	}
	// Race shares approximate the configuration.
	c := d.FairCentroid()
	for j, r := range cfg.Races {
		if math.Abs(c[j]-r.Share) > 0.02 {
			t.Errorf("%s share = %.4f, want ≈ %.4f", r.Name, c[j], r.Share)
		}
	}
	// One-hot: every defendant belongs to exactly one race.
	var total float64
	for _, v := range c {
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("race shares sum to %v", total)
	}
}

func TestCompasDecilesAreCoarseAndUniform(t *testing.T) {
	d, err := GenerateCompas(DefaultCompasConfig())
	if err != nil {
		t.Fatal(err)
	}
	col := d.ScoreColumn(0)
	counts := make(map[float64]int)
	for _, v := range col {
		if v != math.Trunc(v) || v < 1 || v > 10 {
			t.Fatalf("decile %v outside 1..10", v)
		}
		counts[v]++
	}
	if len(counts) != 10 {
		t.Fatalf("only %d distinct deciles", len(counts))
	}
	// Norm-referenced: each decile holds ≈ 10% of the population.
	for dec, c := range counts {
		share := float64(c) / float64(d.N())
		if share < 0.08 || share > 0.12 {
			t.Errorf("decile %v holds %.3f of population, want ≈ 0.10", dec, share)
		}
	}
}

func TestCompasBaselineDisparityDirection(t *testing.T) {
	d, err := GenerateCompas(DefaultCompasConfig())
	if err != nil {
		t.Fatal(err)
	}
	scorer := rank.WeightedSum{Weights: CompasScoreWeights()}
	base := scorer.BaseScores(d)
	k, err := rank.SelectCount(d.N(), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	flagged := rank.Order(base)[:k]
	disp := metrics.Disparity(d, flagged)
	aa := d.FairIndex(RaceAfricanAmerican)
	ca := d.FairIndex(RaceCaucasian)
	if disp[aa] < 0.10 {
		t.Errorf("African-American disparity = %v, want strongly positive (over-flagged)", disp[aa])
	}
	if disp[ca] > -0.05 {
		t.Errorf("Caucasian disparity = %v, want negative (under-flagged)", disp[ca])
	}
}

func TestCompasFPRGapMatchesProPublicaDirection(t *testing.T) {
	d, err := GenerateCompas(DefaultCompasConfig())
	if err != nil {
		t.Fatal(err)
	}
	scorer := rank.WeightedSum{Weights: CompasScoreWeights()}
	base := scorer.BaseScores(d)
	// Flag deciles > 5 (the ProPublica threshold): top half.
	k, err := rank.SelectCount(d.N(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	flagged := rank.Order(base)[:k]
	aa := d.FairIndex(RaceAfricanAmerican)
	ca := d.FairIndex(RaceCaucasian)
	fprAA, _ := metrics.GroupFPR(d, flagged, aa)
	fprCA, _ := metrics.GroupFPR(d, flagged, ca)
	if fprAA <= fprCA {
		t.Errorf("FPR(AA)=%.3f should exceed FPR(Caucasian)=%.3f", fprAA, fprCA)
	}
	if fprAA-fprCA < 0.1 {
		t.Errorf("FPR gap %.3f too small to reproduce the published finding", fprAA-fprCA)
	}
}

func TestCompasOverallRecidivismRate(t *testing.T) {
	d, err := GenerateCompas(DefaultCompasConfig())
	if err != nil {
		t.Fatal(err)
	}
	var pos int
	for i := 0; i < d.N(); i++ {
		if d.Outcome(i) {
			pos++
		}
	}
	rate := float64(pos) / float64(d.N())
	if rate < 0.38 || rate > 0.52 {
		t.Errorf("recidivism base rate = %.3f, want ≈ 0.45", rate)
	}
}

func TestCompasConfigValidation(t *testing.T) {
	cfg := DefaultCompasConfig()
	cfg.N = 0
	if _, err := GenerateCompas(cfg); err == nil {
		t.Error("N=0: expected error")
	}
	cfg = DefaultCompasConfig()
	cfg.Races[0].Share += 0.5
	if _, err := GenerateCompas(cfg); err == nil {
		t.Error("shares not summing to 1: expected error")
	}
	cfg = DefaultCompasConfig()
	cfg.Races[0].Share = -cfg.Races[0].Share
	if _, err := GenerateCompas(cfg); err == nil {
		t.Error("negative share: expected error")
	}
}

func TestSchoolConfigValidation(t *testing.T) {
	cfg := DefaultSchoolConfig()
	cfg.N = -1
	if _, err := GenerateSchool(cfg); err == nil {
		t.Error("negative N: expected error")
	}
	cfg = DefaultSchoolConfig()
	cfg.LowIncomeRate = 1.2
	if _, err := GenerateSchool(cfg); err == nil {
		t.Error("rate > 1: expected error")
	}
}

// Two cohorts from different seeds are different draws of the same
// distribution: a KS test on the ranking scores must not reject.
func TestSchoolCohortsAreExchangeable(t *testing.T) {
	cfgA := DefaultSchoolConfig()
	cfgA.N = 8000
	cfgA.Seed = 2017
	cfgB := cfgA
	cfgB.Seed = 2018
	a, err := GenerateSchool(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSchool(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	scorer := rank.WeightedSum{Weights: SchoolScoreWeights()}
	_, p := stats.KSTwoSample(scorer.BaseScores(a), scorer.BaseScores(b))
	if p < 0.001 {
		t.Errorf("KS p-value %v rejects cohort exchangeability", p)
	}
	// And the same seed reproduces the identical cohort.
	a2, err := GenerateSchool(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if a.Score(i, 0) != a2.Score(i, 0) {
			t.Fatal("same seed produced different cohorts")
		}
	}
}

func TestDistrictConfig(t *testing.T) {
	d, err := GenerateSchool(DistrictConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 2500 {
		t.Errorf("district size = %d, want 2500", d.N())
	}
	c := d.FairCentroid()
	if c[1] > 0.08 {
		t.Errorf("district ELL share = %.3f, want scarce (< 0.08)", c[1])
	}
}
