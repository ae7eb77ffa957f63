package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/rank"
	"fairrank/internal/synth"
)

// The prefix folds read an object's fairness row or membership mask
// through the dataset's combo-row index once it is built, and the columns
// otherwise. The tests here hold both routes to a deliberately naive
// reference: every cut recomputed from scratch, one column at a time.

// foldRows is every fold's output at one cut list.
type foldRows struct {
	cent   []float64
	groups []int
	fp     []int
	fpAll  []int
	expo   []float64
	sizes  []int
}

// runFolds runs every prefix fold over order at cuts; fp and fpAll stay
// nil when the dataset has no outcomes.
func runFolds(d *dataset.Dataset, order, cuts []int) foldRows {
	dims, nc := d.NumFair(), len(cuts)
	g := dims + 1
	r := foldRows{
		cent:   PrefixCentroidInto(d, order, cuts, make([]float64, dims), make([]float64, nc*dims)),
		groups: PrefixGroupCountsInto(d, order, cuts, make([]int, nc*dims)),
		expo:   PrefixExposureInto(d, order, cuts, make([]float64, g), make([]float64, nc*g)),
		sizes:  PrefixExposureCountsInto(d, order, cuts, make([]int, nc*g)),
	}
	if d.HasOutcomes() {
		r.fp, r.fpAll = make([]int, nc*dims), make([]int, nc)
		PrefixFPCountsInto(d, order, cuts, r.fp, r.fpAll)
	}
	return r
}

// naiveFolds is the reference: for each cut, each column summed or
// counted over order[:cut] from zero, and the exposure of each position
// added to every group its column values put it in.
func naiveFolds(d *dataset.Dataset, order, cuts []int) foldRows {
	var r foldRows
	for _, cut := range cuts {
		for j := 0; j < d.NumFair(); j++ {
			col := d.FairColumn(j)
			s, in, fp := 0.0, 0, 0
			for _, i := range order[:cut] {
				s += col[i]
				if col[i] > 0.5 {
					in++
					if d.HasOutcomes() && !d.Outcome(i) {
						fp++
					}
				}
			}
			r.cent = append(r.cent, s/float64(cut))
			r.groups = append(r.groups, in)
			r.fp = append(r.fp, fp)
		}
		expo := make([]float64, d.NumFair()+1)
		sizes := make([]int, d.NumFair()+1)
		all := 0
		for pos, i := range order[:cut] {
			w := 1 / math.Log2(float64(pos)+2)
			rest := true
			for j := 0; j < d.NumFair(); j++ {
				if d.Fair(i, j) > 0.5 {
					expo[j] += w
					sizes[j]++
					rest = false
				}
			}
			if rest {
				expo[len(expo)-1] += w
				sizes[len(sizes)-1]++
			}
			if d.HasOutcomes() && !d.Outcome(i) {
				all++
			}
		}
		r.expo = append(r.expo, expo...)
		r.sizes = append(r.sizes, sizes...)
		r.fpAll = append(r.fpAll, all)
	}
	if !d.HasOutcomes() {
		r.fp, r.fpAll = nil, nil
	}
	return r
}

// sameFoldBits reports the first fold whose output differs from want's,
// comparing floats by their bits.
func sameFoldBits(got, want foldRows) error {
	floats := func(name string, a, b []float64) error {
		if len(a) != len(b) {
			return fmt.Errorf("%s: %d values, want %d", name, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return fmt.Errorf("%s[%d] = %v (%#x), want %v (%#x)", name, i, a[i], math.Float64bits(a[i]), b[i], math.Float64bits(b[i]))
			}
		}
		return nil
	}
	ints := func(name string, a, b []int) error {
		if !slices.Equal(a, b) {
			return fmt.Errorf("%s = %v, want %v", name, a, b)
		}
		return nil
	}
	for _, err := range []error{
		floats("centroid", got.cent, want.cent),
		ints("group counts", got.groups, want.groups),
		ints("FP counts", got.fp, want.fp),
		ints("overall FP counts", got.fpAll, want.fpAll),
		floats("exposure", got.expo, want.expo),
		ints("exposure counts", got.sizes, want.sizes),
	} {
		if err != nil {
			return err
		}
	}
	return nil
}

// foldPalette holds the fairness values the fuzzer draws rows from: both
// zeros, the membership threshold 0.5 and its upper neighbour, and values
// whose sums round, so fold order shows in the bits.
var foldPalette = []float64{0, math.Copysign(0, -1), 0.5, math.Nextafter(0.5, 1), 1, 0.1, 0.3, 0.7}

// FuzzPrefixFolds checks every prefix fold, on the column route and on
// the combo-row route, bit for bit against the naive reference. Rows come
// from a palette, so small cohorts repeat rows and combos; the order
// ranks the cohort under a fuzzed bonus (NaN and infinities included) in
// either polarity, and the cut list keeps its duplicates and always ends
// at n.
func FuzzPrefixFolds(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 2, 3, 4, 5, 6, 7, 2, 2, 3, 3, 0, 1, 1, 0, 7, 6, 5, 4, 3}, 1.5, -2.0, false, []byte{1, 5, 5, 255})
	f.Add(uint8(0), []byte{2, 3, 2, 3, 2, 1, 0}, math.NaN(), 0.0, true, []byte{0, 0})
	f.Add(uint8(8), []byte("a cohort of nine attributes, rows repeated, rows repeated"), math.Inf(1), 3.0, true, []byte{9, 2, 200, 2})
	f.Fuzz(func(t *testing.T, dimsByte uint8, rows []byte, b0, b1 float64, adverse bool, cutBytes []byte) {
		dims := 1 + int(dimsByte)%9
		n := min(len(rows)/dims, 256)
		if n == 0 {
			t.Skip("no rows")
		}
		fair := make([][]float64, dims)
		names := make([]string, dims)
		for j := range fair {
			names[j] = fmt.Sprintf("a%d", j)
			fair[j] = make([]float64, n)
			for i := range fair[j] {
				fair[j][i] = foldPalette[int(rows[i*dims+j])%len(foldPalette)]
			}
		}
		score, outcome := make([]float64, n), make([]bool, n)
		for i := range score {
			score[i] = float64(rows[i*dims] >> 4) // coarse: ties
			outcome[i] = rows[i*dims]&8 != 0
		}
		build := func() *dataset.Dataset {
			d, err := dataset.New([]string{"s"}, names, [][]float64{score}, fair, outcome)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		bonus := make([]float64, dims)
		for j := range bonus {
			bonus[j] = b0
			if j%2 == 1 {
				bonus[j] = b1
			}
		}
		pol := rank.Beneficial
		if adverse {
			pol = rank.Adverse
		}
		d := build()
		order := rank.Order(rank.EffectiveScoresAll(d, score, bonus, pol, nil))
		cuts := []int{n}
		for _, c := range cutBytes {
			cuts = append(cuts, 1+int(c)%n)
		}
		slices.Sort(cuts)

		want := naiveFolds(d, order, cuts)
		if err := sameFoldBits(runFolds(d, order, cuts), want); err != nil {
			t.Fatalf("column route: %v", err)
		}
		if _, _, ok := d.ComboIndex(); !ok {
			t.Fatal("a palette cohort declined its combo-row index")
		}
		if err := sameFoldBits(runFolds(d, order, cuts), want); err != nil {
			t.Fatalf("combo-row route: %v", err)
		}
	})
}

// TestPrefixFoldsUnindexed runs the folds over a cohort with a continuous
// attribute, whose combo-row index declines, so the column route answers
// even after ComboIndex was asked for it.
func TestPrefixFoldsUnindexed(t *testing.T) {
	cfg := synth.DefaultSchoolConfig()
	cfg.N, cfg.ENILevels = 3000, 0
	d, err := synth.GenerateSchool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := d.ComboIndex(); ok {
		t.Fatal("continuous cohort built a combo-row index")
	}
	order := rank.Order(d.ScoreColumn(0))
	cuts := []int{1, 1, 2, 150, 1499, 3000, 3000}
	if err := sameFoldBits(runFolds(d, order, cuts), naiveFolds(d, order, cuts)); err != nil {
		t.Error(err)
	}
}

// TestPrefixFoldsWideRows covers a cohort with more attributes than a
// membership mask has bits: the centroid fold reads combo rows while the
// membership folds keep the column loops, and both match the reference.
func TestPrefixFoldsWideRows(t *testing.T) {
	const n, dims = 200, dataset.MaxMaskDims + 1
	rng := rand.New(rand.NewSource(5))
	fair := make([][]float64, dims)
	names := make([]string, dims)
	for j := range fair {
		names[j] = fmt.Sprintf("a%d", j)
		fair[j] = make([]float64, n)
		for i := range fair[j] {
			fair[j][i] = foldPalette[(i%7+j)%len(foldPalette)]
		}
	}
	score, outcome := make([]float64, n), make([]bool, n)
	for i := range score {
		score[i], outcome[i] = rng.NormFloat64(), rng.Intn(2) == 0
	}
	d, err := dataset.New([]string{"s"}, names, [][]float64{score}, fair, outcome)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, masks, ok := d.BuiltComboIndex(); ok || masks != nil {
		t.Fatal("the index exists before ComboIndex built it")
	}
	d.ComboIndex()
	if _, _, masks, ok := d.BuiltComboIndex(); !ok || masks != nil {
		t.Fatalf("wide cohort: index built %v, masks %v; want an index without masks", ok, masks)
	}
	order := rank.Order(score)
	cuts := []int{1, 7, 100, n}
	if err := sameFoldBits(runFolds(d, order, cuts), naiveFolds(d, order, cuts)); err != nil {
		t.Error(err)
	}
}

// whatIfFolds is the whatif workload's fold geometry on the 80k school
// cohort: its full order under a what-if bonus, cut at 64 fractions to
// k=1, with the combo-row index built as an evaluator builds it. The
// cohort carries no outcomes, so a deterministic outcome column is added
// for the FP fold.
func whatIfFolds(tb testing.TB) (*dataset.Dataset, []int, []int) {
	tb.Helper()
	school, err := synth.GenerateSchool(synth.DefaultSchoolConfig())
	if err != nil {
		tb.Fatal(err)
	}
	n := school.N()
	score := make([][]float64, school.NumScore())
	for j := range score {
		score[j] = school.ScoreColumn(j)
	}
	outcome := make([]bool, n)
	for i := range outcome {
		outcome[i] = i%3 != 0
	}
	d, err := dataset.New(school.ScoreNames(), school.FairNames(), score, school.FairColumns(), outcome)
	if err != nil {
		tb.Fatal(err)
	}
	d.ComboIndex()
	base := rank.WeightedSum{Weights: synth.SchoolScoreWeights()}.BaseScores(d)
	order := rank.Order(rank.EffectiveScoresEach(d, base, []float64{2, 11, 10.5, 12.5}, rank.Beneficial, nil))
	cuts := make([]int, 64)
	for c := range cuts {
		cuts[c] = (c + 1) * n / 64
	}
	return d, order, cuts
}

// foldBench is one prefix fold with its scratch allocated once.
type foldBench struct {
	name string
	run  func()
}

func foldBenches(d *dataset.Dataset, order, cuts []int) []foldBench {
	dims, nc := d.NumFair(), len(cuts)
	g := dims + 1
	sum, rows := make([]float64, g), make([]float64, nc*g)
	cnts, all := make([]int, nc*g), make([]int, nc)
	return []foldBench{
		{"Centroid", func() { PrefixCentroidInto(d, order, cuts, sum, rows) }},
		{"GroupCounts", func() { PrefixGroupCountsInto(d, order, cuts, cnts) }},
		{"FPCounts", func() { PrefixFPCountsInto(d, order, cuts, cnts, all) }},
		{"Exposure", func() { PrefixExposureInto(d, order, cuts, sum, rows) }},
		{"ExposureCounts", func() { PrefixExposureCountsInto(d, order, cuts, cnts) }},
	}
}

// BenchmarkPrefixFolds80k times each prefix fold at the whatif
// workload's geometry: the 80k school cohort's full order, 64 cuts to
// k=1, on the combo-row route.
func BenchmarkPrefixFolds80k(b *testing.B) {
	d, order, cuts := whatIfFolds(b)
	for _, fb := range foldBenches(d, order, cuts) {
		b.Run(fb.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				fb.run()
			}
		})
	}
}

// TestPrefixFolds80kAllocations is BenchmarkPrefixFolds80k's companion:
// no fold allocates, and on the 80k cohort each one matches the naive
// reference.
func TestPrefixFolds80kAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 80k cohort")
	}
	d, order, cuts := whatIfFolds(t)
	for _, fb := range foldBenches(d, order, cuts) {
		if allocs := testing.AllocsPerRun(3, fb.run); allocs != 0 {
			t.Errorf("%s allocates %v per run, want 0", fb.name, allocs)
		}
	}
	if err := sameFoldBits(runFolds(d, order, cuts[:8]), naiveFolds(d, order, cuts[:8])); err != nil {
		t.Error(err)
	}
}
