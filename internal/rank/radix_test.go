package rank

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"fairrank/internal/synth"
)

// compareSortRanked is the comparator sort SortRanked used before the
// radix kernel, kept verbatim as the independent reference: the kernel
// must reproduce its output bit for bit on every input, NaN included.
func compareSortRanked(scores []float64, idx []int) {
	slices.SortFunc(idx, func(a, b int) int {
		if a == b {
			return 0
		}
		if scores[a] != scores[b] {
			if scores[a] > scores[b] {
				return -1
			}
			return 1
		}
		if a < b {
			return -1
		}
		return 1
	})
}

// edgeValues are the scores where an order-preserving float key is most
// likely to go wrong: signed zeros, infinities, subnormals, the extremes,
// and neighbours one ulp apart around 1.
var edgeValues = []float64{
	0, math.Copysign(0, -1),
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	3 * math.SmallestNonzeroFloat64, -7 * math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64,
	1, 1 + 0x1p-52, 1 - 0x1p-53, math.Nextafter(1, 2), math.Nextafter(1+0x1p-52, 2),
	-1, -1 - 0x1p-52, -(1 - 0x1p-53),
	0.5, -0.5, 2, -2, 1e300, -1e-300,
}

// scoreShapes generates n scores of one shape each.
var scoreShapes = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []float64
}{
	{"ties", func(rng *rand.Rand, n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(rng.Intn(3))
		}
		return s
	}},
	{"edges", func(rng *rand.Rand, n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = edgeValues[rng.Intn(len(edgeValues))]
		}
		return s
	}},
	{"equal", func(rng *rand.Rand, n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = 42.5
		}
		return s
	}},
	{"sorted", func(rng *rand.Rand, n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i) / 8
		}
		return s
	}},
	{"reversed", func(rng *rand.Rand, n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n-i) / 8
		}
		return s
	}},
	{"continuous", func(rng *rand.Rand, n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = 60 + 40*rng.NormFloat64()
		}
		return s
	}},
	{"nan", func(rng *rand.Rand, n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(rng.Intn(50))
			if rng.Intn(100) == 0 {
				s[i] = math.NaN()
			}
		}
		return s
	}},
}

// checkOrder compares OrderInto against the reference on scores.
func checkOrder(t *testing.T, scores []float64) {
	t.Helper()
	want := make([]int, len(scores))
	for i := range want {
		want[i] = i
	}
	compareSortRanked(scores, want)
	got := OrderInto(scores, make([]int, len(scores)))
	if !slices.Equal(got, want) {
		t.Fatalf("OrderInto differs from the comparator sort at n=%d (first mismatch at %d)", len(scores), firstMismatch(got, want))
	}
}

// checkSortRanked compares SortRanked against the reference on idx.
func checkSortRanked(t *testing.T, scores []float64, idx []int) {
	t.Helper()
	want := slices.Clone(idx)
	compareSortRanked(scores, want)
	got := slices.Clone(idx)
	SortRanked(scores, got)
	if !slices.Equal(got, want) {
		t.Fatalf("SortRanked differs from the comparator sort on %d ids (first mismatch at %d)", len(idx), firstMismatch(got, want))
	}
}

func firstMismatch(a, b []int) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

func TestSortRankedMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	sizes := []int{1, 2, 100, radixMin - 1, radixMin, radixMin + 1, 5000}
	for _, shape := range scoreShapes {
		for _, n := range sizes {
			t.Run(fmt.Sprintf("%s/n=%d", shape.name, n), func(t *testing.T) {
				scores := shape.gen(rng, n)
				checkOrder(t, scores)
				// A random permutation exercises the id passes.
				checkSortRanked(t, scores, rng.Perm(n))
			})
		}
	}
}

func TestSortRankedHeapSubsets(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, shape := range scoreShapes {
		n := 3*radixMin + 7
		scores := shape.gen(rng, n)
		for _, p := range []int{radixMin - 1, radixMin, radixMin + 1, 2 * radixMin} {
			t.Run(fmt.Sprintf("%s/p=%d", shape.name, p), func(t *testing.T) {
				checkSortRanked(t, scores, TopKHeapInto(scores, p, make([]int, 0, p)))
			})
		}
	}
	// Ids spanning three bytes, in a scattered order, need every id pass.
	scores := scoreShapes[0].gen(rng, 70000)
	sub := rng.Perm(70000)[:3000]
	checkSortRanked(t, scores, sub)
}

func TestOrderIntoZeroAllocs80k(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode drops sync.Pool items, inflating the pooled scratch's alloc count")
	}
	scores := schoolScores(t)
	idx := make([]int, len(scores))
	OrderInto(scores, idx) // warm the pool
	if a := testing.AllocsPerRun(5, func() { OrderInto(scores, idx) }); a != 0 {
		t.Errorf("warm OrderInto at n=%d allocates %v times per call, want 0", len(scores), a)
	}
}

// TestOrderIntoConcurrent ranks different inputs from several goroutines
// at once: each call must get scratch of its own from the pool.
func TestOrderIntoConcurrent(t *testing.T) {
	const workers = 4
	rng := rand.New(rand.NewSource(17))
	inputs := make([][]float64, workers)
	for w := range inputs {
		inputs[w] = scoreShapes[w%2].gen(rng, 2000+w*1000)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(scores []float64) {
			defer wg.Done()
			want := make([]int, len(scores))
			for i := range want {
				want[i] = i
			}
			compareSortRanked(scores, want)
			got := make([]int, len(scores))
			for r := 0; r < 20; r++ {
				if OrderInto(scores, got); !slices.Equal(got, want) {
					t.Errorf("concurrent OrderInto differs from the comparator sort at n=%d", len(scores))
					return
				}
			}
		}(inputs[w])
	}
	wg.Wait()
}

// FuzzOrder checks OrderInto and SortRanked against the comparator sort.
// data supplies float64 bit patterns, reused cyclically (which also makes
// ties); extra lifts the population past the radix crossover.
func FuzzOrder(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{1, 2, 3}, uint16(radixMin))
	for _, v := range edgeValues {
		f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)), uint16(radixMin-1))
	}
	var mixed []byte
	for _, v := range []float64{math.NaN(), 1 + 0x1p-52, 1, math.Copysign(0, -1), 0} {
		mixed = binary.LittleEndian.AppendUint64(mixed, math.Float64bits(v))
	}
	f.Add(mixed, uint16(radixMin+1))
	f.Fuzz(func(t *testing.T, data []byte, extra uint16) {
		n := len(data)/8 + int(extra)%(2*radixMin)
		scores := make([]float64, n)
		for i := range scores {
			if len(data) < 8 {
				if len(data) > 0 {
					scores[i] = float64(data[i%len(data)])
				}
				continue
			}
			w := 8 * (i % (len(data) / 8))
			scores[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[w:]))
		}
		checkOrder(t, scores)
		// A reversed, strided subset keeps ids out of ascending order.
		sub := make([]int, 0, n)
		for i := n - 1; i >= 0; i -= 1 + i%3 {
			sub = append(sub, i)
		}
		checkSortRanked(t, scores, sub)
	})
}

var schoolScoreState struct {
	once   sync.Once
	scores []float64
	err    error
}

// schoolScores returns the effective scores of the 80k synthetic school
// cohort under a trained-shaped bonus vector: the input a school sweep to
// k=1 ranks in full.
func schoolScores(tb testing.TB) []float64 {
	tb.Helper()
	s := &schoolScoreState
	s.once.Do(func() {
		d, err := synth.GenerateSchool(synth.DefaultSchoolConfig())
		if err != nil {
			s.err = err
			return
		}
		base := WeightedSum{Weights: synth.SchoolScoreWeights()}.BaseScores(d)
		s.scores = EffectiveScoresAll(d, base, []float64{2, 11, 10.5, 12.5}, Beneficial, nil)
	})
	if s.err != nil {
		tb.Fatal(s.err)
	}
	return s.scores
}

// BenchmarkOrderInto80k is one full ranking of the 80k school cohort.
// Guarded by cmd/benchguard in CI (reference: BENCH_rank.json).
func BenchmarkOrderInto80k(b *testing.B) {
	scores := schoolScores(b)
	idx := make([]int, len(scores))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OrderInto(scores, idx)
	}
}

// BenchmarkSortRankedCrossover times the comparator sort against the
// radix kernel around radixMin, on an identity index (OrderInto's shape)
// and on a heap-ordered subset (the bounded-heap prefix's shape).
func BenchmarkSortRankedCrossover(b *testing.B) {
	all := schoolScores(b)
	for _, n := range []int{256, 512, 1024, 2048, 4096} {
		scores := all[:4*n]
		identity := make([]int, n)
		for i := range identity {
			identity[i] = i
		}
		shapes := []struct {
			name string
			idx  []int
		}{{"identity", identity}, {"heap", TopKHeapInto(scores, n, make([]int, 0, n))}}
		for _, sh := range shapes {
			work := make([]int, n)
			b.Run(fmt.Sprintf("%s/n=%d/comparator", sh.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(work, sh.idx)
					compareSortRanked(scores, work)
				}
			})
			b.Run(fmt.Sprintf("%s/n=%d/radix", sh.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(work, sh.idx)
					radixRankInto(scores, work)
				}
			})
		}
	}
}
