package core

import (
	"math"
	"math/rand"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/rank"
)

// cfDataset builds a small cohort with deliberately quantized scores so
// exact ties — the hardest case for a minimal flip delta, where the
// index tie-break decides — occur often.
func cfDataset(t testing.TB, rng *rand.Rand, n int) *dataset.Dataset {
	t.Helper()
	b := dataset.NewBuilder([]string{"s"}, []string{"binary", "eni", "rare"})
	for i := 0; i < n; i++ {
		bin := float64(rng.Intn(2))
		eni := rng.Float64()
		rare := 0.0
		if rng.Float64() < 0.1 {
			rare = 1
		}
		// Quarter-point scores force score collisions.
		score := math.Round(4*(10*rng.NormFloat64()-5*bin-2*eni)) / 4
		b.AddWithOutcome([]float64{score}, []float64{bin, eni, rare}, rng.Float64() < 0.3)
	}
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// membership re-derives an object's selection status from first
// principles: effective scores via the public rank API, a full sort, and a
// prefix check. It shares no code with the counterfactual's boundary
// predicate, so agreement is a genuine consistency check.
func membership(d *dataset.Dataset, base []float64, bonus []float64, pol rank.Polarity, patchObj int, patchDelta float64, cnt, obj int) bool {
	eff := append([]float64(nil), base...)
	if bonus != nil {
		eff = rank.EffectiveScoresAll(d, base, bonus, pol, nil)
	}
	eff[patchObj] += patchDelta
	for _, o := range rank.Order(eff)[:cnt] {
		if o == obj {
			return true
		}
	}
	return false
}

// TestCounterfactualConsistency is the acceptance property of the
// counterfactual engine: over random cohorts, polarities, bonus vectors
// and selection fractions, applying the returned minimal ScoreDelta flips
// the object's selection, and the next-smaller representable float64 does
// not. The flip is verified by re-ranking the full modified score vector,
// not by the engine's own boundary predicate.
func TestCounterfactualConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 25; trial++ {
		n := 40 + rng.Intn(300)
		d := cfDataset(t, rng, n)
		pol := rank.Beneficial
		if rng.Intn(2) == 1 {
			pol = rank.Adverse
		}
		scorer := rank.WeightedSum{Weights: []float64{1}}
		ev := NewEvaluator(d, scorer, pol)
		base := scorer.BaseScores(d)
		bonus := randomBonus(rng, d.NumFair())
		k := rng.Float64()
		if k == 0 {
			k = 0.5
		}
		if trial%5 == 0 {
			k = 1 // whole population: every selected object is infeasible
		}
		cnt, err := rank.SelectCount(n, k)
		if err != nil {
			t.Fatal(err)
		}

		objs := make([]int, 16)
		for i := range objs {
			objs[i] = rng.Intn(n)
		}
		cfs, err := ev.CounterfactualBatchCtx(t.Context(), bonus, k, objs)
		if err != nil {
			t.Fatal(err)
		}
		sign := pol.Sign()
		for i, cf := range cfs {
			obj := objs[i]
			if cf.Object != obj {
				t.Fatalf("trial %d: result %d explains object %d, want %d", trial, i, cf.Object, obj)
			}
			was := membership(d, base, bonus, pol, obj, 0, cnt, obj)
			if cf.Selected != was {
				t.Fatalf("trial %d obj %d: Selected=%t, re-ranking says %t", trial, obj, cf.Selected, was)
			}
			if !cf.Feasible {
				if cnt != n || !cf.Selected {
					t.Fatalf("trial %d obj %d: infeasible outside the cnt==n selected case (cnt=%d n=%d selected=%t)",
						trial, obj, cnt, n, cf.Selected)
				}
				continue
			}
			if cf.Selected && cf.ScoreDelta >= 0 || !cf.Selected && cf.ScoreDelta <= 0 {
				t.Fatalf("trial %d obj %d: ScoreDelta %v has the wrong sign for selected=%t",
					trial, obj, cf.ScoreDelta, cf.Selected)
			}
			// The minimal delta flips the selection...
			if got := membership(d, base, bonus, pol, obj, cf.ScoreDelta, cnt, obj); got != !was {
				t.Fatalf("trial %d obj %d: applying ScoreDelta %v did not flip selection (still %t)",
					trial, obj, cf.ScoreDelta, got)
			}
			// ...and the next-smaller representable delta does not.
			smaller := math.Nextafter(cf.ScoreDelta, 0)
			if got := membership(d, base, bonus, pol, obj, smaller, cnt, obj); got != was {
				t.Fatalf("trial %d obj %d: sub-minimal delta %v (< %v) already flips selection",
					trial, obj, smaller, cf.ScoreDelta)
			}
			// Neither does a random fraction of it.
			if got := membership(d, base, bonus, pol, obj, cf.ScoreDelta*rng.Float64()*0.99, cnt, obj); got != was {
				t.Fatalf("trial %d obj %d: fractional delta flips selection", trial, obj)
			}
			if want := sign * cf.ScoreDelta; cf.BonusDelta != want {
				t.Fatalf("trial %d obj %d: BonusDelta=%v, want sign*ScoreDelta=%v", trial, obj, cf.BonusDelta, want)
			}
			for j, pa := range cf.PerAttribute {
				a := d.Fair(obj, j)
				switch {
				case a == 0 && pa != 0:
					t.Fatalf("trial %d obj %d: non-member attribute %d has delta %v", trial, obj, j, pa)
				case a == 1 && pa != cf.BonusDelta:
					t.Fatalf("trial %d obj %d: binary attribute %d delta %v != BonusDelta %v",
						trial, obj, j, pa, cf.BonusDelta)
				case a > 0 && pa != cf.BonusDelta/a:
					t.Fatalf("trial %d obj %d: attribute %d delta %v != BonusDelta/a %v",
						trial, obj, j, pa, cf.BonusDelta/a)
				}
			}
		}
	}
}

// TestCounterfactualSingleMatchesBatch pins the one-object convenience
// wrapper to the batch path.
func TestCounterfactualSingleMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	d := cfDataset(t, rng, 200)
	ev := NewEvaluator(d, rank.WeightedSum{Weights: []float64{1}}, rank.Beneficial)
	bonus := []float64{2, 1, 0.5}
	batch, err := ev.CounterfactualBatchCtx(t.Context(), bonus, 0.1, []int{3, 77, 150})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range batch {
		one, err := ev.CounterfactualBatchCtx(t.Context(), bonus, 0.1, []int{want.Object})
		if err != nil {
			t.Fatal(err)
		}
		got := one[0]
		if got.Object != want.Object || got.ScoreDelta != want.ScoreDelta ||
			got.Rank != want.Rank || got.Selected != want.Selected ||
			got.Competitor != want.Competitor || got.Cutoff != want.Cutoff {
			t.Errorf("Counterfactual(%d) = %+v, batch = %+v", want.Object, got, want)
		}
	}
}

// TestBundleMarginsMatchBatch pins the audit bundle's margin window: it
// must return exactly what CounterfactualBatch returns for the boundary
// objects of the ranked order, clamped at the population edges.
func TestBundleMarginsMatchBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	d := cfDataset(t, rng, 300)
	ev := NewEvaluator(d, rank.WeightedSum{Weights: []float64{1}}, rank.Adverse)
	bonus := []float64{1.5, 0.5, 2}
	for _, tc := range []struct {
		k    float64
		m    int
		want int
	}{
		{0.1, 3, 6},
		{1.0 / 300, 5, 6}, // cnt=1: left side clamps to one selected object
		{1, 4, 4},         // cnt=n: right side clamps to the selected tail
		{0.5, 1000, 300},  // window wider than the population
	} {
		st, err := ev.BundleStatsCtx(t.Context(), BundleStatsConfig{Bonus: bonus, K: tc.k, Margins: tc.m})
		if err != nil {
			t.Fatalf("k=%g m=%d: %v", tc.k, tc.m, err)
		}
		win := st.Margins
		if len(win) != tc.want {
			t.Fatalf("k=%g m=%d: window has %d lines, want %d", tc.k, tc.m, len(win), tc.want)
		}
		objs := make([]int, len(win))
		for i, cf := range win {
			objs[i] = cf.Object
		}
		batch, err := ev.CounterfactualBatchCtx(t.Context(), bonus, tc.k, objs)
		if err != nil {
			t.Fatal(err)
		}
		prev := -1
		for i := range win {
			if win[i].Rank != batch[i].Rank || win[i].ScoreDelta != batch[i].ScoreDelta ||
				win[i].Selected != batch[i].Selected || win[i].Feasible != batch[i].Feasible {
				t.Errorf("k=%g m=%d line %d: window %+v != batch %+v", tc.k, tc.m, i, win[i], batch[i])
			}
			if win[i].Rank <= prev {
				t.Errorf("k=%g m=%d: window not in rank order at line %d", tc.k, tc.m, i)
			}
			prev = win[i].Rank
		}
	}
	if _, err := ev.BundleStatsCtx(t.Context(), BundleStatsConfig{Bonus: bonus, K: 0.1, Margins: -1}); err == nil {
		t.Error("negative window size accepted")
	}
}

// TestCounterfactualValidation covers the error paths: out-of-range
// objects, mis-sized bonus vectors, bad fractions.
func TestCounterfactualValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := cfDataset(t, rng, 50)
	ev := NewEvaluator(d, rank.WeightedSum{Weights: []float64{1}}, rank.Beneficial)
	if _, err := ev.CounterfactualBatchCtx(t.Context(), nil, 0.1, []int{-1}); err == nil {
		t.Error("negative object accepted")
	}
	if _, err := ev.CounterfactualBatchCtx(t.Context(), nil, 0.1, []int{50}); err == nil {
		t.Error("out-of-range object accepted")
	}
	if _, err := ev.CounterfactualBatchCtx(t.Context(), []float64{1}, 0.1, []int{0}); err == nil {
		t.Error("mis-sized bonus accepted")
	}
	if _, err := ev.CounterfactualBatchCtx(t.Context(), nil, 0, []int{0}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := ev.AttributeDisparity([]float64{1, 2}, 0.1); err == nil {
		t.Error("mis-sized bonus accepted by AttributeDisparity")
	}
	if _, err := ev.AttributeDisparity([]float64{1, 2, 3}, math.NaN()); err == nil {
		t.Error("NaN fraction accepted by AttributeDisparity")
	}
}

// TestCounterfactualTies exercises the index tie-break explicitly: two
// objects with exactly equal effective scores on either side of the
// cutoff. The lower index wins a tie, so the minimal delta to overtake a
// lower-indexed competitor must be strictly positive while a
// higher-indexed competitor is overtaken at delta exactly closing the gap.
func TestCounterfactualTies(t *testing.T) {
	b := dataset.NewBuilder([]string{"s"}, []string{"g"})
	scores := []float64{10, 9, 8, 8, 7} // objects 2 and 3 tie at the cutoff
	for _, s := range scores {
		b.Add([]float64{s}, []float64{0})
	}
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(d, rank.WeightedSum{Weights: []float64{1}}, rank.Beneficial)
	// k=0.6 selects 3 of 5: objects 0, 1, 2 (2 beats 3 on the index tie).
	cfs, err := ev.CounterfactualBatchCtx(t.Context(), nil, 0.6, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	in, out := cfs[0], cfs[1]
	if !in.Selected || out.Selected {
		t.Fatalf("tie-break order wrong: %+v %+v", in, out)
	}
	// Object 3 must strictly exceed 8 to pass object 2, so its delta is
	// positive but at most one ulp of the cutoff — possibly less, when
	// round-half-even pushes a sub-ulp sum onto the next float. The exact
	// value is whatever the float arithmetic of the ranking decides; the
	// contract is only minimality, which the binary search guarantees.
	ulp := math.Nextafter(8, math.Inf(1)) - 8
	if out.ScoreDelta <= 0 || out.ScoreDelta > ulp {
		t.Errorf("enter delta across a losing tie = %v, want in (0, %v]", out.ScoreDelta, ulp)
	}
	if 8+out.ScoreDelta <= 8 {
		t.Errorf("enter delta %v does not clear the tied cutoff", out.ScoreDelta)
	}
	if prev := math.Nextafter(out.ScoreDelta, 0); 8+prev > 8 {
		t.Errorf("enter delta %v is not minimal: %v also clears the cutoff", out.ScoreDelta, prev)
	}
	// Object 2 must drop strictly below 8 (at equality the lower index
	// still ranks first): a negative sub-ulp delta.
	if in.ScoreDelta >= 0 || in.ScoreDelta < -ulp {
		t.Errorf("exit delta across a winning tie = %v, want in [-%v, 0)", in.ScoreDelta, ulp)
	}
	if 8+in.ScoreDelta >= 8 {
		t.Errorf("exit delta %v does not drop below the tied cutoff", in.ScoreDelta)
	}
	if prev := math.Nextafter(in.ScoreDelta, 0); 8+prev < 8 {
		t.Errorf("exit delta %v is not minimal: %v also drops below", in.ScoreDelta, prev)
	}
}

// TestCounterfactualAllocations pins the hot path: after the one ranking
// (pooled workspace scratch), a 16-object batch allocates only the result
// slice and the per-attribute backing array.
func TestCounterfactualAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode drops sync.Pool items, inflating pooled-workspace alloc counts")
	}
	rng := rand.New(rand.NewSource(23))
	d := cfDataset(t, rng, 4000)
	ev := NewEvaluator(d, rank.WeightedSum{Weights: []float64{1}}, rank.Beneficial)
	bonus := []float64{2, 1, 0.5}
	objs := make([]int, 16)
	for i := range objs {
		objs[i] = rng.Intn(d.N())
	}
	call := func() { _, _ = ev.CounterfactualBatchCtx(t.Context(), bonus, 0.05, objs) }
	call() // warm the workspace pool
	if allocs := testing.AllocsPerRun(10, call); allocs > 3 {
		t.Errorf("CounterfactualBatch: %.0f allocs per 16-object batch, want <= 3", allocs)
	}
}

// TestAttributeDisparity checks the leave-one-out decomposition against
// directly evaluated norms and its structural identities.
func TestAttributeDisparity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	d := cfDataset(t, rng, 1200)
	ev := NewEvaluator(d, rank.WeightedSum{Weights: []float64{1}}, rank.Beneficial)
	bonus := []float64{3, 1.5, 0}
	const k = 0.1
	att, err := ev.AttributeDisparity(bonus, k)
	if err != nil {
		t.Fatal(err)
	}
	norm := func(b []float64) float64 {
		v, err := ev.DisparityCtx(t.Context(), b, k)
		if err != nil {
			t.Fatal(err)
		}
		s := 0.0
		for _, x := range v {
			s += x * x
		}
		return math.Sqrt(s)
	}
	if got, want := att.NormBase, norm(nil); got != want {
		t.Errorf("NormBase = %v, want %v", got, want)
	}
	if got, want := att.NormFull, norm(bonus); got != want {
		t.Errorf("NormFull = %v, want %v", got, want)
	}
	if att.Reduction != att.NormBase-att.NormFull {
		t.Errorf("Reduction = %v, want NormBase-NormFull = %v", att.Reduction, att.NormBase-att.NormFull)
	}
	for j := range att.LeaveOneOut {
		loo := append([]float64(nil), bonus...)
		loo[j] = 0
		if got, want := att.LeaveOneOut[j], norm(loo); got != want {
			t.Errorf("LeaveOneOut[%d] = %v, want %v", j, got, want)
		}
		if att.Contribution[j] != att.LeaveOneOut[j]-att.NormFull {
			t.Errorf("Contribution[%d] = %v, want %v", j, att.Contribution[j], att.LeaveOneOut[j]-att.NormFull)
		}
	}
	// Attribute 2 carries no bonus: withdrawing it changes nothing.
	if att.Contribution[2] != 0 {
		t.Errorf("zero-bonus attribute contributes %v, want 0", att.Contribution[2])
	}
	// The compensated attributes must matter on this correlated cohort.
	if att.Contribution[0] <= 0 {
		t.Errorf("dominant attribute contributes %v, want > 0", att.Contribution[0])
	}
}
