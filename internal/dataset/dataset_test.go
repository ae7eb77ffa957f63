package dataset

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func build(t testing.TB) *Dataset {
	t.Helper()
	b := NewBuilder([]string{"gpa", "test"}, []string{"li", "eni"})
	b.Add([]float64{80, 70}, []float64{1, 0.8})
	b.Add([]float64{90, 95}, []float64{0, 0.2})
	b.Add([]float64{60, 65}, []float64{1, 0.6})
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBuilderBasics(t *testing.T) {
	d := build(t)
	if d.N() != 3 || d.NumScore() != 2 || d.NumFair() != 2 {
		t.Fatalf("shape = (%d, %d, %d)", d.N(), d.NumScore(), d.NumFair())
	}
	if d.HasOutcomes() {
		t.Error("unexpected outcomes")
	}
	if d.Score(1, 0) != 90 || d.Fair(2, 1) != 0.6 {
		t.Error("wrong cell values")
	}
	if d.ScoreIndex("test") != 1 || d.ScoreIndex("nope") != -1 {
		t.Error("ScoreIndex wrong")
	}
	if d.FairIndex("eni") != 1 || d.FairIndex("nope") != -1 {
		t.Error("FairIndex wrong")
	}
}

func TestBuilderOutcomes(t *testing.T) {
	b := NewBuilder([]string{"s"}, []string{"f"})
	b.AddWithOutcome([]float64{1}, []float64{0}, true)
	b.AddWithOutcome([]float64{2}, []float64{1}, false)
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !d.HasOutcomes() || !d.Outcome(0) || d.Outcome(1) {
		t.Error("outcomes not preserved")
	}
}

func TestBuilderMixedOutcomeCallsFail(t *testing.T) {
	b := NewBuilder([]string{"s"}, []string{"f"})
	b.Add([]float64{1}, []float64{0})
	b.AddWithOutcome([]float64{2}, []float64{1}, true)
	if _, err := b.Build(); err == nil {
		t.Error("mixed Add/AddWithOutcome should fail")
	}
}

func TestBuilderArityErrors(t *testing.T) {
	b := NewBuilder([]string{"s"}, []string{"f"})
	b.Add([]float64{1, 2}, []float64{0})
	if _, err := b.Build(); err == nil {
		t.Error("wrong score arity should fail")
	}
	b2 := NewBuilder([]string{"s"}, []string{"f"})
	b2.Add([]float64{1}, []float64{0, 1})
	if _, err := b2.Build(); err == nil {
		t.Error("wrong fairness arity should fail")
	}
}

func TestValidationRejectsBadValues(t *testing.T) {
	if _, err := New([]string{"s"}, []string{"f"}, [][]float64{{1}}, [][]float64{{1.5}}, nil); err == nil {
		t.Error("fairness value > 1 should fail")
	}
	if _, err := New([]string{"s"}, []string{"f"}, [][]float64{{1}}, [][]float64{{-0.1}}, nil); err == nil {
		t.Error("fairness value < 0 should fail")
	}
	if _, err := New([]string{"s"}, []string{"f"}, [][]float64{{math.NaN()}}, [][]float64{{0}}, nil); err == nil {
		t.Error("NaN score should fail")
	}
	if _, err := New([]string{"s"}, []string{"f"}, [][]float64{{math.Inf(1)}}, [][]float64{{0}}, nil); err == nil {
		t.Error("Inf score should fail")
	}
	if _, err := New([]string{"s"}, []string{"f"}, [][]float64{{1, 2}}, [][]float64{{0}}, nil); err == nil {
		t.Error("ragged columns should fail")
	}
	if _, err := New([]string{"s"}, []string{"f"}, [][]float64{{1}}, [][]float64{{0}}, []bool{true, false}); err == nil {
		t.Error("outcome length mismatch should fail")
	}
	if _, err := New([]string{"a", "b"}, nil, [][]float64{{1}}, nil, nil); err == nil {
		t.Error("column/name count mismatch should fail")
	}
}

func TestEmptyDataset(t *testing.T) {
	d, err := New(nil, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 0 {
		t.Errorf("N = %d", d.N())
	}
	if c := d.FairCentroid(); len(c) != 0 {
		t.Errorf("centroid = %v", c)
	}
}

func TestFairCentroid(t *testing.T) {
	d := build(t)
	got := d.FairCentroid()
	want := []float64{2.0 / 3, (0.8 + 0.2 + 0.6) / 3}
	for j := range want {
		if math.Abs(got[j]-want[j]) > 1e-12 {
			t.Fatalf("centroid = %v, want %v", got, want)
		}
	}
	sel := d.FairCentroidOf([]int{1})
	if sel[0] != 0 || sel[1] != 0.2 {
		t.Errorf("centroid of {1} = %v", sel)
	}
	if z := d.FairCentroidOf(nil); z[0] != 0 || z[1] != 0 {
		t.Errorf("centroid of empty = %v", z)
	}
}

func TestFairDotAndRow(t *testing.T) {
	d := build(t)
	if got := d.FairDot(0, []float64{2, 10}); got != 2+8 {
		t.Errorf("FairDot = %v, want 10", got)
	}
	row := d.FairRow(2, make([]float64, 2))
	if row[0] != 1 || row[1] != 0.6 {
		t.Errorf("FairRow = %v", row)
	}
}

func TestSubset(t *testing.T) {
	d := build(t)
	s := d.Subset([]int{2, 0})
	if s.N() != 2 {
		t.Fatalf("subset N = %d", s.N())
	}
	if s.Score(0, 0) != 60 || s.Score(1, 0) != 80 {
		t.Error("subset rows in wrong order")
	}
	if s.Fair(0, 1) != 0.6 {
		t.Error("subset fairness wrong")
	}
}

func TestGroupSize(t *testing.T) {
	d := build(t)
	if got := d.GroupSize(0); got != 2 {
		t.Errorf("GroupSize(li) = %d, want 2", got)
	}
}

func TestWithFairColumnsView(t *testing.T) {
	d := build(t)
	v := d.WithFairColumns([]int{1})
	if v.NumFair() != 1 || v.FairNames()[0] != "eni" {
		t.Fatalf("view names = %v", v.FairNames())
	}
	if v.N() != d.N() || v.NumScore() != d.NumScore() {
		t.Error("view must share shape with parent")
	}
	if v.Fair(0, 0) != d.Fair(0, 1) {
		t.Error("view column mismatch")
	}
	// Reordering works too.
	v2 := d.WithFairColumns([]int{1, 0})
	if v2.FairNames()[0] != "eni" || v2.FairNames()[1] != "li" {
		t.Errorf("reordered view names = %v", v2.FairNames())
	}
}

func TestOutcomePanicsWithoutOutcomes(t *testing.T) {
	d := build(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	d.Outcome(0)
}

// Property: the centroid of any index multiset stays inside [0,1] per
// dimension, and the centroid over all indices equals FairCentroid.
func TestCentroidProperties(t *testing.T) {
	d := build(t)
	all := []int{0, 1, 2}
	if !reflect.DeepEqual(d.FairCentroidOf(all), d.FairCentroid()) {
		t.Error("FairCentroidOf(all) != FairCentroid()")
	}
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		idx := make([]int, len(raw))
		for i, r := range raw {
			idx[i] = int(r) % 3
		}
		c := d.FairCentroidOf(idx)
		for _, v := range c {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// comboCohort builds an n-object dataset with dims fairness attributes
// drawn from a palette holding both zeros, so the combo-row index exists
// and some rows differ only in the sign of a zero.
func comboCohort(t *testing.T, rng *rand.Rand, n, dims int) *Dataset {
	t.Helper()
	levels := []float64{0, math.Copysign(0, -1), 1, 0.25, 0.37, 1.0 / 3, 0.99}
	fair := make([][]float64, dims)
	names := make([]string, dims)
	for j := range fair {
		names[j] = string(rune('a' + j))
		fair[j] = make([]float64, n)
		for i := range fair[j] {
			fair[j][i] = levels[rng.Intn(len(levels))]
		}
	}
	score := make([]float64, n)
	d, err := New([]string{"s"}, names, [][]float64{score}, fair, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFairCentroidIndexDifferential computes every centroid twice on the
// same dataset, first from the columns (the index does not exist yet) and
// then through the combo-row index, and requires the same bits, on 2, 3,
// 4 and 6 dimensions, and dst back at the length it was passed with.
func TestFairCentroidIndexDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 2000
	for _, dims := range []int{2, 3, 4, 6} {
		d := comboCohort(t, rng, n, dims)
		var sets [][]int
		for _, size := range []int{1, 2, 25, 500, n} {
			idx := make([]int, size)
			for r := range idx {
				idx[r] = rng.Intn(n)
			}
			sets = append(sets, idx)
		}
		// A set of rows holding only zeros of both signs.
		var zeros []int
		for i := 0; i < n && len(zeros) < 50; i++ {
			if d.Fair(i, 0) == 0 {
				zeros = append(zeros, i)
			}
		}
		sets = append(sets, zeros)
		want := make([][]float64, len(sets))
		for s, idx := range sets {
			want[s] = d.FairCentroidOf(idx)
		}
		if _, _, ok := d.ComboIndex(); !ok {
			t.Fatalf("dims=%d: ComboIndex declined", dims)
		}
		for s, idx := range sets {
			// dst one longer than NumFair: every route returns dst as given.
			got := d.FairCentroidInto(idx, make([]float64, dims+1))
			if len(got) != dims+1 {
				t.Fatalf("dims=%d set %d: indexed centroid returned length %d, want dst's %d",
					dims, s, len(got), dims+1)
			}
			for j := range want[s] {
				if math.Float64bits(got[j]) != math.Float64bits(want[s][j]) {
					t.Fatalf("dims=%d set %d dim %d: indexed centroid %v, column centroid %v",
						dims, s, j, got[j], want[s][j])
				}
			}
		}
	}
}

// TestComboIndex checks the index invariant (each object's combo row is
// bitwise its column values, -0 and +0 kept apart), that repeated calls
// share one index, and that a dataset with more than MaxCombos distinct
// rows declines.
func TestComboIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := comboCohort(t, rng, 1000, 3)
	comboOf, reps, ok := d.ComboIndex()
	if !ok {
		t.Fatal("ComboIndex declined")
	}
	for i := 0; i < d.N(); i++ {
		row := reps[3*int(comboOf[i]):][:3]
		for j, v := range row {
			if math.Float64bits(v) != math.Float64bits(d.Fair(i, j)) {
				t.Fatalf("object %d dim %d: combo row %v, column %v", i, j, v, d.Fair(i, j))
			}
		}
	}
	if again, _, _ := d.ComboIndex(); &again[0] != &comboOf[0] {
		t.Error("second ComboIndex call rebuilt the index")
	}

	cont := make([]float64, MaxCombos+1)
	for i := range cont {
		cont[i] = float64(i) / float64(len(cont))
	}
	wide, err := New([]string{"s"}, []string{"x"}, [][]float64{make([]float64, len(cont))}, [][]float64{cont}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if comboOf, reps, ok := wide.ComboIndex(); ok || comboOf != nil || reps != nil {
		t.Errorf("%d distinct rows: ComboIndex ok=%v, want a decline", len(cont), ok)
	}
	if c := wide.FairCentroidOf([]int{0, len(cont) - 1}); c[0] != cont[len(cont)-1]/2 {
		t.Errorf("centroid after a declined index = %v", c)
	}
}
