package rank

import (
	"math"
	"math/rand"
	"testing"

	"fairrank/internal/dataset"
)

// comboCohort builds a random cohort whose fairness attributes are drawn
// from a small palette of levels (so combos repeat) and whose base
// scores are coarsely quantized (so duplicate scores and ties occur).
func comboCohort(t *testing.T, rng *rand.Rand, n, dims, levels int) (*dataset.Dataset, []float64) {
	t.Helper()
	fair := make([][]float64, dims)
	names := make([]string, dims)
	for j := 0; j < dims; j++ {
		names[j] = string(rune('A' + j))
		col := make([]float64, n)
		for i := range col {
			if levels <= 1 {
				col[i] = 0
			} else {
				col[i] = float64(rng.Intn(levels)) / float64(levels-1)
			}
		}
		fair[j] = col
	}
	base := make([]float64, n)
	for i := range base {
		base[i] = math.Floor(rng.Float64() * 40) // coarse: plenty of exact ties
	}
	d, err := dataset.New([]string{"S"}, names, [][]float64{base}, fair, nil)
	if err != nil {
		t.Fatalf("dataset.New: %v", err)
	}
	return d, base
}

// randomBonus draws a bonus vector: sometimes zero, sometimes sparse,
// sometimes dense with negative entries.
func randomBonus(rng *rand.Rand, dims int) []float64 {
	b := make([]float64, dims)
	switch rng.Intn(4) {
	case 0: // zero vector
	case 1: // sparse
		if dims > 0 {
			b[rng.Intn(dims)] = rng.Float64()*30 - 10
		}
	default: // dense
		for j := range b {
			b[j] = rng.Float64()*30 - 10
		}
	}
	return b
}

// TestMergeTopKDifferential pins MergeTopKInto bit-identical to the
// full-sort reference Order(EffectiveScoresAll)[:k] over random
// cohorts, polarities, sparse/negative/zero bonuses, duplicate scores,
// and every flavor of k.
func TestMergeTopKDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var scratch MergeScratch
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		dims := rng.Intn(6)
		levels := 1 + rng.Intn(3)
		d, base := comboCohort(t, rng, n, dims, levels)
		c := NewComboRuns(d, base, 0)
		if c == nil {
			t.Fatalf("trial %d: NewComboRuns declined (n=%d dims=%d levels=%d)", trial, n, dims, levels)
		}
		pol := Beneficial
		if rng.Intn(2) == 1 {
			pol = Adverse
		}
		bonus := randomBonus(rng, dims)
		eff := EffectiveScoresAll(d, base, bonus, pol, nil)
		want := Order(eff)

		ks := []int{1, n, 1 + rng.Intn(n)}
		for _, k := range ks {
			dst := make([]int, 0, k)
			effOut := make([]float64, n)
			got, ok := c.MergeTopKInto(bonus, pol, k, &scratch, dst, effOut)
			if !ok {
				t.Fatalf("trial %d: merge declined finite bonus %v", trial, bonus)
			}
			if len(got) != k {
				t.Fatalf("trial %d k=%d: merge returned %d ids", trial, k, len(got))
			}
			for r := 0; r < k; r++ {
				if got[r] != want[r] {
					t.Fatalf("trial %d (n=%d dims=%d pol=%v bonus=%v) k=%d: rank %d: merge=%d full=%d",
						trial, n, dims, pol, bonus, k, r, got[r], want[r])
				}
				if effOut[got[r]] != eff[got[r]] {
					t.Fatalf("trial %d k=%d: effOut[%d]=%v, full path %v",
						trial, k, got[r], effOut[got[r]], eff[got[r]])
				}
			}
		}
	}
}

// TestMergeRankOfDifferential pins RankOf, for several objects under one
// prepared bonus, against each object's position in the full ranking.
func TestMergeRankOfDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	var scratch MergeScratch
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(200)
		dims := 1 + rng.Intn(5)
		d, base := comboCohort(t, rng, n, dims, 1+rng.Intn(3))
		c := NewComboRuns(d, base, 0)
		if c == nil {
			t.Fatalf("trial %d: NewComboRuns declined", trial)
		}
		pol := Beneficial
		if rng.Intn(2) == 1 {
			pol = Adverse
		}
		bonus := randomBonus(rng, dims)
		eff := EffectiveScoresAll(d, base, bonus, pol, nil)
		full := Order(eff)
		posOf := make([]int, n)
		for p, id := range full {
			posOf[id] = p
		}
		if !c.PrepareOffsets(bonus, pol, &scratch) {
			t.Fatalf("trial %d: PrepareOffsets declined finite bonus", trial)
		}
		for probe := 0; probe < 8; probe++ {
			obj := rng.Intn(n)
			got, ge := c.RankOf(obj, &scratch)
			if got != posOf[obj] {
				t.Fatalf("trial %d obj %d: RankOf=%d, full ranking position %d", trial, obj, got, posOf[obj])
			}
			if ge != eff[obj] {
				t.Fatalf("trial %d obj %d: RankOf eff=%v, full %v", trial, obj, ge, eff[obj])
			}
		}
	}
}

// TestMergeRoundingCollapse constructs the adversarial tie the pre-sort
// cannot see: two distinct base scores inside one run that collapse to
// the same effective score once the run offset is added. The full sort
// breaks that tie by ascending id, which disagrees with the run's
// base-descending order, so the merge must detect the equal-eff group
// and re-order it.
func TestMergeRoundingCollapse(t *testing.T) {
	// base[1] > base[2], but both become exactly 2^52+1 under offset 2^52.
	hi := 1 + math.Pow(2, -52)
	off := math.Pow(2, 52)
	base := []float64{5, hi, 1, 0.5}
	fair := [][]float64{{0, 1, 1, 0}} // objects 1,2 share a run; bonus 2^52 shifts it
	d, err := dataset.New(nil, []string{"A"}, nil, fair, nil)
	if err != nil {
		t.Fatalf("dataset.New: %v", err)
	}
	if (base[1]+off) != (base[2]+off) || base[1] == base[2] {
		t.Fatalf("test premise broken: bases %v, %v under offset %v", base[1], base[2], off)
	}
	c := NewComboRuns(d, base, 0)
	if c == nil {
		t.Fatal("NewComboRuns declined")
	}
	bonus := []float64{off}
	eff := EffectiveScoresAll(d, base, bonus, Beneficial, nil)
	want := Order(eff)
	var scratch MergeScratch
	got, ok := c.MergeTopKInto(bonus, Beneficial, len(base), &scratch, make([]int, 0, len(base)), nil)
	if !ok {
		t.Fatal("merge declined")
	}
	for r := range want {
		if got[r] != want[r] {
			t.Fatalf("rank %d: merge=%d full=%d (merge %v, full %v)", r, got[r], want[r], got, want)
		}
	}
	// The collapsed pair must come out id-ascending: 1 before 2.
	if !(got[0] == 1 && got[1] == 2) {
		t.Fatalf("collapsed group not id-ascending: %v", got)
	}
}

// TestComboRunsDecline covers every way the structure refuses to build
// or to merge, forcing the caller onto the full-sort path.
func TestComboRunsDecline(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	// Continuous attribute: more combos than the cap.
	n := 64
	col := make([]float64, n)
	for i := range col {
		col[i] = rng.Float64()
	}
	d, err := dataset.New(nil, []string{"ENI"}, nil, [][]float64{col}, nil)
	if err != nil {
		t.Fatalf("dataset.New: %v", err)
	}
	base := make([]float64, n)
	if c := NewComboRuns(d, base, 16); c != nil {
		t.Fatal("NewComboRuns accepted a 64-combo cohort under a cap of 16")
	}
	if c := NewComboRuns(d, base, 0); c == nil {
		t.Fatal("NewComboRuns declined under the default cap with only 64 combos")
	}
	// Non-finite base.
	badBase := append([]float64(nil), base...)
	badBase[3] = math.NaN()
	if c := NewComboRuns(d, badBase, 0); c != nil {
		t.Fatal("NewComboRuns accepted a NaN base score")
	}
	// Non-finite bonus: structure builds but the merge declines.
	c := NewComboRuns(d, base, 0)
	var scratch MergeScratch
	if _, ok := c.MergeTopKInto([]float64{math.Inf(1)}, Beneficial, 4, &scratch, make([]int, 0, 4), nil); ok {
		t.Fatal("merge accepted an infinite bonus")
	}
	if c.PrepareOffsets([]float64{math.NaN()}, Beneficial, &scratch) {
		t.Fatal("PrepareOffsets accepted a NaN bonus")
	}
}

// TestComboRunsStats checks the observability summary on a hand-built
// cohort: 3 runs of lengths 1, 2, 3.
func TestComboRunsStats(t *testing.T) {
	fair := [][]float64{{0, 1, 0, 1, 0, 0.5}} // run lengths: 0→3, 1→2, 0.5→1
	d, err := dataset.New(nil, []string{"A"}, nil, fair, nil)
	if err != nil {
		t.Fatalf("dataset.New: %v", err)
	}
	c := NewComboRuns(d, []float64{6, 5, 4, 3, 2, 1}, 0)
	if c == nil {
		t.Fatal("NewComboRuns declined")
	}
	st := c.Stats()
	if st.Runs != 3 || st.MinLen != 1 || st.MedianLen != 2 || st.MaxLen != 3 {
		t.Fatalf("stats = %+v, want runs=3 min=1 median=2 max=3", st)
	}
	if c.N() != 6 || c.Runs() != 3 {
		t.Fatalf("N=%d Runs=%d, want 6 and 3", c.N(), c.Runs())
	}
}
