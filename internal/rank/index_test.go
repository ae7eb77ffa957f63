package rank

import (
	"math"
	"math/rand"
	"testing"

	"fairrank/internal/dataset"
)

// refColumnScores is EffectiveScores' column route, the only route
// before the combo-row index existed, kept verbatim as the reference.
func refColumnScores(d *dataset.Dataset, base []float64, idx []int, bonus []float64, pol Polarity) []float64 {
	dst := make([]float64, len(idx))
	sign := pol.Sign()
	cols := d.FairColumns()
	switch len(cols) {
	case 2:
		c0, c1 := cols[0], cols[1]
		b0, b1 := bonus[0], bonus[1]
		for r, i := range idx {
			dst[r] = base[i] + sign*(c0[i]*b0+c1[i]*b1)
		}
	case 3:
		c0, c1, c2 := cols[0], cols[1], cols[2]
		b0, b1, b2 := bonus[0], bonus[1], bonus[2]
		for r, i := range idx {
			dst[r] = base[i] + sign*(c0[i]*b0+c1[i]*b1+c2[i]*b2)
		}
	case 4:
		c0, c1, c2, c3 := cols[0], cols[1], cols[2], cols[3]
		b0, b1, b2, b3 := bonus[0], bonus[1], bonus[2], bonus[3]
		for r, i := range idx {
			dst[r] = base[i] + sign*(c0[i]*b0+c1[i]*b1+c2[i]*b2+c3[i]*b3)
		}
	default:
		for r, i := range idx {
			dst[r] = base[i] + sign*d.FairDot(i, bonus)
		}
	}
	return dst
}

// indexLevels are the fairness values an indexed cohort draws from: both
// zeros (distinct combos, equal values), the binary extremes and a few
// inexact fractions.
var indexLevels = []float64{0, math.Copysign(0, -1), 1, 0.25, 0.37, 1.0 / 3, 0.99}

// indexCohort builds an n-object cohort with dims fairness attributes,
// drawn from as many leading indexLevels as keep the combos within
// dataset.MaxCombos when quantized, and uniform on [0,1] otherwise, and
// continuous base scores.
func indexCohort(t *testing.T, rng *rand.Rand, n, dims int, quantized bool) (*dataset.Dataset, []float64) {
	t.Helper()
	levels := len(indexLevels)
	for math.Pow(float64(levels), float64(dims)) > dataset.MaxCombos {
		levels--
	}
	fair := make([][]float64, dims)
	names := make([]string, dims)
	for j := range fair {
		names[j] = string(rune('A' + j))
		fair[j] = make([]float64, n)
		for i := range fair[j] {
			if quantized {
				fair[j][i] = indexLevels[rng.Intn(levels)]
			} else {
				fair[j][i] = rng.Float64()
			}
		}
	}
	base := make([]float64, n)
	for i := range base {
		base[i] = 60 + 15*rng.NormFloat64()
	}
	d, err := dataset.New([]string{"S"}, names, [][]float64{base}, fair, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d, base
}

// TestEffectiveScoresIndexDifferential pins EffectiveScores through the
// combo-row index bit for bit to the column route, on 2, 3, 4 and 6
// fairness dimensions (the unrolled cases and the FairDot-order loop),
// rows holding -0 and +0, both polarities, samples on both sides of
// termRoute's edge (a term per object, and a term per combo up to the
// whole population in id order), and a continuous cohort on which the
// index declines.
func TestEffectiveScoresIndexDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 3000
	for _, dims := range []int{2, 3, 4, 6} {
		for _, quantized := range []bool{true, false} {
			d, base := indexCohort(t, rng, n, dims, quantized)
			_, reps, ok := d.ComboIndex()
			if ok != quantized {
				t.Fatalf("dims=%d quantized=%v: ComboIndex ok=%v", dims, quantized, ok)
			}
			// edge is the longest sample on the per-object route; edge+1
			// takes the per-combo one.
			g := len(reps) / dims
			edge := 0
			for !termRoute(edge+1, g) {
				edge++
			}
			sizes := []int{1, 50, 500, 2500, edge, edge + 1, n}
			for trial := 0; trial < 4*len(sizes); trial++ {
				size := sizes[trial%len(sizes)]
				idx := make([]int, size)
				for r := range idx {
					idx[r] = rng.Intn(n)
					if size == n {
						idx[r] = r
					}
				}
				bonus := randomBonus(rng, dims)
				for _, pol := range []Polarity{Beneficial, Adverse} {
					got := EffectiveScores(d, base, idx, bonus, pol, nil)
					want := refColumnScores(d, base, idx, bonus, pol)
					for r := range want {
						if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
							t.Fatalf("dims=%d quantized=%v %v: object %d scored %v, column route %v",
								dims, quantized, pol, idx[r], got[r], want[r])
						}
					}
				}
			}
		}
	}
}

// TestEffectiveScoresEachAndAt pins the all-ids form and the scatter form
// to the column route bit for bit: every object in id order, and a random
// id list whose scores land at their ids while every other entry keeps
// its sentinel. Populations below, at and above one id chunk cover the
// no-index path, and a population smaller than 3g covers an indexed
// cohort that EffectiveScores would score per object.
func TestEffectiveScoresEachAndAt(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, dims := range []int{2, 3, 4, 6} {
		for _, quantized := range []bool{true, false} {
			for _, n := range []int{37, effChunk, 3000} {
				d, base := indexCohort(t, rng, n, dims, quantized)
				all := make([]int, n)
				for i := range all {
					all[i] = i
				}
				bonus := randomBonus(rng, dims)
				for _, pol := range []Polarity{Beneficial, Adverse} {
					want := refColumnScores(d, base, all, bonus, pol)
					got := EffectiveScoresEach(d, base, bonus, pol, nil)
					ids := make([]int, rng.Intn(n+1))
					for r := range ids {
						ids[r] = rng.Intn(n)
					}
					sentinel := math.Float64frombits(0x7ff8dead)
					at := make([]float64, n)
					for i := range at {
						at[i] = sentinel
					}
					EffectiveScoresAt(d, base, ids, bonus, pol, at)
					listed := make([]bool, n)
					for _, i := range ids {
						listed[i] = true
					}
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("dims=%d quantized=%v n=%d %v: Each scored object %d %v, column route %v", dims, quantized, n, pol, i, got[i], want[i])
						}
						wantAt := sentinel
						if listed[i] {
							wantAt = want[i]
						}
						if math.Float64bits(at[i]) != math.Float64bits(wantAt) {
							t.Fatalf("dims=%d quantized=%v n=%d %v: At left %v at object %d, want %v", dims, quantized, n, pol, at[i], i, wantAt)
						}
					}
				}
			}
		}
	}
}

// TestEffectiveScoresShortBonusPanics checks that a bonus vector shorter
// than the fairness dimensionality panics on both indexed routes, as it
// does on the column route, instead of reading combo rows at the wrong
// stride.
func TestEffectiveScoresShortBonusPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d, base := indexCohort(t, rng, 200, 4, true)
	_, reps, _ := d.ComboIndex()
	long := 1 // the shortest sample termRoute sends to the per-combo route
	for !termRoute(long, len(reps)/4) {
		long++
	}
	for _, size := range []int{1, long} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d objects: a 3-entry bonus on 4 fairness dimensions did not panic", size)
				}
			}()
			EffectiveScores(d, base, make([]int, size), []float64{1, 2, 3}, Beneficial, nil)
		}()
	}
}
