package core

import (
	"math"
	"strings"
	"testing"

	"fairrank/internal/rank"
)

func TestExplainReport(t *testing.T) {
	d := tinyDataset(t, 2000, 21)
	scorer := rank.WeightedSum{Weights: []float64{1}}
	ev := NewEvaluator(d, scorer, rank.Beneficial)
	bonus := []float64{5} // the generator's structural penalty

	exp, err := ev.ExplainCtx(t.Context(), bonus, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Selected != 200 {
		t.Errorf("Selected = %d, want 200", exp.Selected)
	}
	// The compensated selection admits more protected members.
	if exp.GroupCounts[0] <= exp.BaseGroupCounts[0] {
		t.Errorf("bonus did not raise group count: %d vs %d", exp.GroupCounts[0], exp.BaseGroupCounts[0])
	}
	// Beneficiaries and displaced balance exactly (same selection size).
	if len(exp.AdmittedByBonus) != len(exp.DisplacedByBonus) {
		t.Errorf("admitted %d != displaced %d", len(exp.AdmittedByBonus), len(exp.DisplacedByBonus))
	}
	if len(exp.AdmittedByBonus) == 0 {
		t.Error("a binding bonus must admit someone new")
	}
	// Every beneficiary is protected (only they receive points here).
	for _, i := range exp.AdmittedByBonus {
		if d.Fair(i, 0) < 0.5 {
			t.Errorf("beneficiary %d is not protected", i)
		}
	}
	if exp.Cutoff == exp.BaseCutoff {
		t.Error("cutoffs should differ under a binding bonus")
	}

	// Summary mentions the key numbers.
	text := strings.Join(exp.Summary(), "\n")
	for _, want := range []string{"cutoff", "bonus points", "admitted"} {
		if !strings.Contains(text, want) {
			t.Errorf("summary missing %q:\n%s", want, text)
		}
	}
}

func TestExplainObjectBreakdown(t *testing.T) {
	d := tinyDataset(t, 2000, 22)
	scorer := rank.WeightedSum{Weights: []float64{1}}
	ev := NewEvaluator(d, scorer, rank.Beneficial)
	bonus := []float64{5}
	exp, err := ev.ExplainCtx(t.Context(), bonus, 0.1)
	if err != nil {
		t.Fatal(err)
	}

	sel, err := ev.SelectCtx(t.Context(), bonus, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	inSel := make(map[int]bool)
	for _, i := range sel {
		inSel[i] = true
	}
	for _, obj := range []int{sel[0], sel[len(sel)-1], exp.AdmittedByBonus[0]} {
		oe, err := ev.ExplainObject(exp, obj)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(oe.Effective-(oe.BaseScore+oe.BonusTotal)) > 1e-12 {
			t.Errorf("effective %v != base %v + bonus %v", oe.Effective, oe.BaseScore, oe.BonusTotal)
		}
		if oe.Selected != inSel[obj] {
			t.Errorf("object %d Selected = %t, want %t (margin %v)", obj, oe.Selected, inSel[obj], oe.Margin)
		}
		if d.Fair(obj, 0) > 0.5 && oe.PerAttribute[0] != 5 {
			t.Errorf("protected object %d attribute contribution = %v, want 5", obj, oe.PerAttribute[0])
		}
		if d.Fair(obj, 0) < 0.5 && oe.BonusTotal != 0 {
			t.Errorf("unprotected object %d received bonus %v", obj, oe.BonusTotal)
		}
	}
	// Everyone with a positive margin is selected and vice versa.
	for obj := 0; obj < d.N(); obj += 97 {
		oe, err := ev.ExplainObject(exp, obj)
		if err != nil {
			t.Fatal(err)
		}
		if oe.Margin > 1e-9 && !inSel[obj] {
			t.Errorf("object %d above cutoff (margin %v) but not selected", obj, oe.Margin)
		}
		if oe.Margin < -1e-9 && inSel[obj] {
			t.Errorf("object %d below cutoff (margin %v) but selected", obj, oe.Margin)
		}
	}
	if _, err := ev.ExplainObject(exp, -1); err == nil {
		t.Error("negative object id: expected error")
	}
	if _, err := ev.ExplainObject(exp, d.N()); err == nil {
		t.Error("out-of-range object id: expected error")
	}
}

func TestExplainAdversePolarity(t *testing.T) {
	d := tinyDataset(t, 1000, 23)
	scorer := rank.WeightedSum{Weights: []float64{1}}
	ev := NewEvaluator(d, scorer, rank.Adverse)
	exp, err := ev.ExplainCtx(t.Context(), []float64{3}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	// Under adverse polarity the per-attribute contribution is negative
	// for protected objects.
	var protectedObj int = -1
	for i := 0; i < d.N(); i++ {
		if d.Fair(i, 0) > 0.5 {
			protectedObj = i
			break
		}
	}
	oe, err := ev.ExplainObject(exp, protectedObj)
	if err != nil {
		t.Fatal(err)
	}
	if oe.PerAttribute[0] != -3 {
		t.Errorf("adverse contribution = %v, want -3", oe.PerAttribute[0])
	}
}

func TestEnsembleStability(t *testing.T) {
	d := tinyDataset(t, 4000, 24)
	scorer := rank.WeightedSum{Weights: []float64{1}}
	opts := DefaultOptions()
	res, err := Ensemble(d, scorer, DisparityObjective(0.1), opts, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 5 {
		t.Fatalf("runs = %d", len(res.Runs))
	}
	// The generator's penalty is 5: the cross-seed mean should sit nearby
	// with modest spread.
	if res.Mean[0] < 3 || res.Mean[0] > 7 {
		t.Errorf("ensemble mean = %v, want ≈ 5", res.Mean[0])
	}
	if res.Std[0] > 2 {
		t.Errorf("ensemble std = %v, suspiciously unstable", res.Std[0])
	}
	if m := math.Mod(res.Bonus[0], 0.5); m > 1e-9 && m < 0.5-1e-9 {
		t.Errorf("ensemble bonus %v not rounded to granularity", res.Bonus[0])
	}
	if _, err := Ensemble(d, scorer, DisparityObjective(0.1), opts, 0); err == nil {
		t.Error("zero runs: expected error")
	}
}

func TestEnsembleSingleRunMatchesRun(t *testing.T) {
	d := tinyDataset(t, 1000, 25)
	scorer := rank.WeightedSum{Weights: []float64{1}}
	opts := DefaultOptions()
	opts.Seed = 77
	ens, err := Ensemble(d, scorer, DisparityObjective(0.1), opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	single, err := Run(d, scorer, DisparityObjective(0.1), opts)
	if err != nil {
		t.Fatal(err)
	}
	if ens.Mean[0] != single.Raw[0] {
		t.Errorf("single-run ensemble mean %v != run raw %v", ens.Mean[0], single.Raw[0])
	}
	if ens.Std[0] != 0 {
		t.Errorf("single-run std = %v, want 0", ens.Std[0])
	}
}
