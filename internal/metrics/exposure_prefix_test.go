package metrics

import (
	"errors"
	"math/rand"
	"testing"

	"fairrank/internal/dataset"
)

// binaryPrefixDataset builds a cohort with binary fairness attributes only
// (the exposure metrics' contract), scores noisy enough that the ranking
// shuffles group members across positions.
func binaryPrefixDataset(t *testing.T, n int, seed int64) (*dataset.Dataset, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := dataset.NewBuilder([]string{"s"}, []string{"a", "b", "c"})
	order := make([]int, n)
	for i := 0; i < n; i++ {
		score := []float64{rng.NormFloat64()}
		fair := []float64{float64(rng.Intn(2)), float64(rng.Intn(2)), float64(rng.Intn(2))}
		b.Add(score, fair)
		order[i] = i
	}
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	return d, order
}

// TestPrefixExposureBitIdentical pins the columnar prefix aggregator to
// the closure-based reference: each group's row entry resumes the exact
// position-order fold Exposure computes over order[:cut], including the
// trailing rest group.
func TestPrefixExposureBitIdentical(t *testing.T) {
	d, order := binaryPrefixDataset(t, 400, 1)
	cuts := []int{1, 2, 37, 38, 200, 399, 400}
	g := d.NumFair() + 1
	flat := PrefixExposureInto(d, order, cuts, make([]float64, g), make([]float64, len(cuts)*g))
	for c, cut := range cuts {
		row := flat[c*g : (c+1)*g]
		for j := 0; j < d.NumFair(); j++ {
			col := d.FairColumn(j)
			want := Exposure(order[:cut], func(i int) bool { return col[i] > 0.5 })
			if row[j] != want {
				t.Errorf("cut %d group %d: prefix %v != Exposure %v (not bit-identical)", cut, j, row[j], want)
			}
		}
		rest := Exposure(order[:cut], func(i int) bool {
			for j := 0; j < d.NumFair(); j++ {
				if d.Fair(i, j) > 0.5 {
					return false
				}
			}
			return true
		})
		if row[g-1] != rest {
			t.Errorf("cut %d rest group: prefix %v != Exposure %v", cut, row[g-1], rest)
		}
	}
}

func TestPrefixExposureCountsMatchesScan(t *testing.T) {
	d, order := binaryPrefixDataset(t, 300, 2)
	cuts := []int{1, 5, 150, 300}
	g := d.NumFair() + 1
	flat := PrefixExposureCountsInto(d, order, cuts, make([]int, len(cuts)*g))
	for c, cut := range cuts {
		row := flat[c*g : (c+1)*g]
		wantRest := 0
		for _, i := range order[:cut] {
			inAny := false
			for j := 0; j < d.NumFair(); j++ {
				if d.Fair(i, j) > 0.5 {
					inAny = true
				}
			}
			if !inAny {
				wantRest++
			}
		}
		if row[g-1] != wantRest {
			t.Errorf("cut %d: rest count %d != %d", cut, row[g-1], wantRest)
		}
		for j := 0; j < d.NumFair(); j++ {
			col := d.FairColumn(j)
			want := 0
			for _, i := range order[:cut] {
				if col[i] > 0.5 {
					want++
				}
			}
			if row[j] != want {
				t.Errorf("cut %d group %d: count %d != %d", cut, j, row[j], want)
			}
		}
	}
}

// TestDDPFinishersBitIdentical pins the three DDP forms to each other at
// every cut of a random ranking: the pointwise DDP over the prefix slice,
// the finisher over prefix-resumed sums, and the per-capita recovery the
// row cache depends on.
func TestDDPFinishersBitIdentical(t *testing.T) {
	d, order := binaryPrefixDataset(t, 350, 3)
	fairCols := []int{0, 1, 2}
	cuts := []int{1, 2, 50, 173, 350}
	g := d.NumFair() + 1
	expoFlat := PrefixExposureInto(d, order, cuts, make([]float64, g), make([]float64, len(cuts)*g))
	sizesFlat := PrefixExposureCountsInto(d, order, cuts, make([]int, len(cuts)*g))
	pc := make([]float64, g)
	for c, cut := range cuts {
		expo, sizes := expoFlat[c*g:(c+1)*g], sizesFlat[c*g:(c+1)*g]
		want, wantErr := DDP(d, order[:cut], fairCols)
		got, gotErr := DDPFromExposure(expo, sizes)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("cut %d: DDP err %v, DDPFromExposure err %v", cut, wantErr, gotErr)
		}
		if wantErr == nil && got != want {
			t.Errorf("cut %d: DDPFromExposure %v != DDP %v (not bit-identical)", cut, got, want)
		}
		ExposurePerCapitaInto(expo, sizes, pc)
		got2, err2 := DDPFromPerCapita(pc)
		if (wantErr == nil) != (err2 == nil) {
			t.Fatalf("cut %d: DDP err %v, DDPFromPerCapita err %v", cut, wantErr, err2)
		}
		if wantErr == nil && got2 != want {
			t.Errorf("cut %d: DDPFromPerCapita %v != DDP %v (not bit-identical)", cut, got2, want)
		}
	}
}

func TestDDPFinisherDegenerate(t *testing.T) {
	// One populated group out of three.
	if _, err := DDPFromExposure([]float64{1.5, 0, 0}, []int{2, 0, 0}); !errors.Is(err, ErrDegenerateGroups) {
		t.Errorf("single populated group: err = %v, want ErrDegenerateGroups", err)
	}
	// No populated group at all (empty prefix).
	if _, err := DDPFromExposure([]float64{0, 0}, []int{0, 0}); !errors.Is(err, ErrDegenerateGroups) {
		t.Errorf("no populated group: err = %v, want ErrDegenerateGroups", err)
	}
	if _, err := DDPFromPerCapita([]float64{0.7, 0, 0}); !errors.Is(err, ErrDegenerateGroups) {
		t.Errorf("per-capita single group: err = %v, want ErrDegenerateGroups", err)
	}
	if got, err := DDPFromExposure([]float64{1, 0.5}, []int{1, 1}); err != nil || got != 0.5 {
		t.Errorf("two groups: got %v, %v; want 0.5, nil", got, err)
	}
}

func TestExpRatioAndTopKFromCounts(t *testing.T) {
	// Zero denominators all map to 0, mirroring the FPR convention.
	if got := ExpRatioFromCounts(1.5, 0, 3, 10); got != 0 {
		t.Errorf("group absent from prefix: %v, want 0", got)
	}
	if got := ExpRatioFromCounts(1.5, 2, 0, 10); got != 0 {
		t.Errorf("no positive outcomes: %v, want 0", got)
	}
	if got := ExpRatioFromCounts(1.5, 2, 3, 0); got != 0 {
		t.Errorf("empty group: %v, want 0", got)
	}
	// (1.5/2) / (3/10) = 0.75 / 0.3 = 2.5
	if got := ExpRatioFromCounts(1.5, 2, 3, 10); got != 2.5 {
		t.Errorf("ExpRatioFromCounts = %v, want 2.5", got)
	}
	if got := TopKFromCounts(3, 4, 10, 100); got != 3.0/4-10.0/100 {
		t.Errorf("TopKFromCounts = %v, want %v", got, 3.0/4-10.0/100)
	}
	if got := TopKFromCounts(0, 0, 10, 100); got != 0 {
		t.Errorf("empty prefix: %v, want 0", got)
	}
}

// TestPrefixExposureIntoAllocs pins the zero-allocation contract of the
// Into variants (the fairlint intoalloc invariant).
func TestPrefixExposureIntoAllocs(t *testing.T) {
	d, order := binaryPrefixDataset(t, 200, 4)
	cuts := []int{10, 50, 200}
	g := d.NumFair() + 1
	sum := make([]float64, g)
	dst := make([]float64, len(cuts)*g)
	cnt := make([]int, len(cuts)*g)
	if allocs := testing.AllocsPerRun(10, func() {
		PrefixExposureInto(d, order, cuts, sum, dst)
	}); allocs != 0 {
		t.Errorf("PrefixExposureInto allocates %v per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		PrefixExposureCountsInto(d, order, cuts, cnt)
	}); allocs != 0 {
		t.Errorf("PrefixExposureCountsInto allocates %v per run, want 0", allocs)
	}
}
