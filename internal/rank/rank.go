package rank

import (
	"fmt"
	"math"
	"slices"

	"fairrank/internal/dataset"
)

// Polarity states whether being selected is beneficial or adverse for the
// selected objects. It decides the sign with which bonus points enter the
// effective score and the direction of the DCA update.
type Polarity int

const (
	// Beneficial selections (school admission, resource allocation): bonus
	// points are added to the score to push disadvantaged objects *into*
	// the selection.
	Beneficial Polarity = iota
	// Adverse selections (recidivism flagging): the selection is the
	// negative outcome, so bonus points are subtracted from the score to
	// pull over-flagged objects *out of* the selection. This realizes the
	// paper's "negative for scenarios where a lower score is desirable".
	Adverse
)

// Sign returns +1 for Beneficial and -1 for Adverse.
func (p Polarity) Sign() float64 {
	if p == Adverse {
		return -1
	}
	return 1
}

// String implements fmt.Stringer.
func (p Polarity) String() string {
	if p == Adverse {
		return "adverse"
	}
	return "beneficial"
}

// Scorer computes the base (uncompensated) score of every object in a
// dataset. Implementations must be deterministic.
type Scorer interface {
	// BaseScores returns f(o) for every object, in object order.
	BaseScores(d *dataset.Dataset) []float64
}

// WeightedSum is the weighted-sum ranking function used by the NYC schools
// in the paper: f = 0.55*GPA + 0.45*TestScores. Weights are indexed by
// score attribute column.
type WeightedSum struct {
	Weights []float64
}

// BaseScores implements Scorer.
func (w WeightedSum) BaseScores(d *dataset.Dataset) []float64 {
	if len(w.Weights) != d.NumScore() {
		panic(fmt.Sprintf("rank: %d weights for %d score attributes", len(w.Weights), d.NumScore()))
	}
	out := make([]float64, d.N())
	for j, wj := range w.Weights {
		if wj == 0 {
			continue
		}
		col := d.ScoreColumn(j)
		for i, v := range col {
			out[i] += wj * v
		}
	}
	return out
}

// Column ranks by a single score attribute (e.g. the COMPAS decile score).
type Column struct {
	Index int
}

// BaseScores implements Scorer.
func (c Column) BaseScores(d *dataset.Dataset) []float64 {
	return append([]float64(nil), d.ScoreColumn(c.Index)...)
}

// Precomputed wraps an externally computed score vector (e.g. the output of
// an opaque black-box model); it must have one entry per object.
type Precomputed []float64

// BaseScores implements Scorer.
func (p Precomputed) BaseScores(d *dataset.Dataset) []float64 {
	if len(p) != d.N() {
		panic(fmt.Sprintf("rank: %d precomputed scores for %d objects", len(p), d.N()))
	}
	return append([]float64(nil), p...)
}

// EffectiveScores computes f_b(o) = f(o) + sign * (A_f · B) for the objects
// listed in idx, writing into dst (allocated when nil) and returning it.
// base is indexed by absolute object id. With Adverse polarity the bonus is
// subtracted, lowering the (undesirable) score of compensated objects.
//
// The fairness row of each object comes from the dataset's combo-row index
// (built on the first call; see dataset.ComboIndex) instead of NumFair
// random reads across the columns. When idx is long enough for termRoute
// (a whole-population pass), the bonus term is computed once per combo
// and each object costs one add; otherwise (a descent step's sample) each
// object's term is computed from its combo row. When the
// index declines, the columns are read directly. The common
// low-dimensional cases unroll the bonus dot product; every route sums in
// ascending dimension, matching FairDot exactly, and a combo row is
// bitwise equal to the object's column values, so results are
// bit-identical.
func EffectiveScores(d *dataset.Dataset, base []float64, idx []int, bonus []float64, pol Polarity, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(idx))
	}
	sign := pol.Sign()
	if comboOf, reps, ok := d.ComboIndex(); ok && d.NumFair() > 0 {
		if dims := d.NumFair(); termRoute(len(idx), len(reps)/dims) {
			effectiveFromTerms(comboOf, reps, dims, base, idx, bonus, sign, dst)
		} else {
			effectiveFromCombos(comboOf, reps, dims, base, idx, bonus, sign, dst)
		}
		return dst
	}
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

// termRoute reports whether EffectiveScores scores m objects of a
// dataset with g combos through one bonus term per combo
// (effectiveFromTerms) rather than one term per object
// (effectiveFromCombos). The term route pays for all g terms up front
// and then saves a few ns per object. On the 80k school cohort (4 dims,
// 751 combos) the two tie between 2,000 and 2,500 objects, about 3g; at a
// descent step's 500 the per-object route is about 3.5 times faster, and
// on compas (6 dims, 6 combos) the term route wins from the smallest
// sample measured (125).
func termRoute(m, g int) bool { return m > 3*g }

// effectiveFromTerms is EffectiveScores over the combo-row index for an
// idx that termRoute accepts: bonusTerm (the merge ranking's
// per-run offset, EffectiveScores' exact expression) once per combo, then
// base[i] plus its combo's term.
func effectiveFromTerms(comboOf []int32, reps []float64, dims int, base []float64, idx []int, bonus []float64, sign float64, dst []float64) {
	var terms [dataset.MaxCombos]float64
	t := comboTerms(reps, dims, bonus, sign, terms[:])
	for r, i := range idx {
		dst[r] = base[i] + t[comboOf[i]]
	}
}

// comboTerms fills buf with bonusTerm of every combo row and returns the
// filled prefix, one term per combo.
func comboTerms(reps []float64, dims int, bonus []float64, sign float64, buf []float64) []float64 {
	t := buf[:len(reps)/dims]
	for c := range t {
		t[c] = bonusTerm(reps[c*dims:(c+1)*dims], bonus, sign)
	}
	return t
}

// effChunk is how many ids EffectiveScoresEach hands to EffectiveScores at
// a time when the dataset has no combo-row index.
const effChunk = 256

// EffectiveScoresEach is EffectiveScores over every object in id order,
// without an identity index slice: dst (length d.N(), allocated when nil)
// receives object i's effective score at dst[i], bit-identical to
// EffectiveScores(d, base, [0 1 … n-1], bonus, pol, dst). With a combo-row
// index it is the term route over the whole population; otherwise
// EffectiveScores scores consecutive id chunks.
func EffectiveScoresEach(d *dataset.Dataset, base, bonus []float64, pol Polarity, dst []float64) []float64 {
	n := d.N()
	if dst == nil {
		dst = make([]float64, n)
	}
	if comboOf, reps, ok := d.ComboIndex(); ok && d.NumFair() > 0 {
		var terms [dataset.MaxCombos]float64
		t := comboTerms(reps, d.NumFair(), bonus, pol.Sign(), terms[:])
		for i, c := range comboOf {
			dst[i] = base[i] + t[c]
		}
		return dst
	}
	var ids [effChunk]int
	for lo := 0; lo < n; lo += effChunk {
		chunk := ids[:min(effChunk, n-lo)]
		for r := range chunk {
			chunk[r] = lo + r
		}
		EffectiveScores(d, base, chunk, bonus, pol, dst[lo:])
	}
	return dst
}

// EffectiveScoreAt returns the effective score of object i, bit-identical
// to what EffectiveScores computes for it: base[i] plus bonusTerm of its
// fairness row, the combo row when the dataset has a combo-row index and
// the column values otherwise. It allocates nothing, so a reader that
// needs a handful of scores pays for those alone.
func EffectiveScoreAt(d *dataset.Dataset, base []float64, i int, bonus []float64, pol Polarity) float64 {
	sign, dims := pol.Sign(), d.NumFair()
	if comboOf, reps, ok := d.ComboIndex(); ok && dims > 0 {
		return base[i] + bonusTerm(reps[dims*int(comboOf[i]):][:dims], bonus, sign)
	}
	if dims >= 2 && dims <= 4 {
		var row [4]float64
		return base[i] + bonusTerm(d.FairRow(i, row[:dims]), bonus, sign)
	}
	return base[i] + sign*d.FairDot(i, bonus)
}

// effectiveFromCombos is EffectiveScores over the combo-row index: object
// i's fairness row is reps[dims*comboOf[i]:][:dims]. The expressions are
// EffectiveScores' column expressions with the row in place of the
// columns.
func effectiveFromCombos(comboOf []int32, reps []float64, dims int, base []float64, idx []int, bonus []float64, sign float64, dst []float64) {
	switch dims {
	case 2:
		b0, b1 := bonus[0], bonus[1]
		for r, i := range idx {
			row := reps[2*int(comboOf[i]):][:2]
			dst[r] = base[i] + sign*(row[0]*b0+row[1]*b1)
		}
	case 3:
		b0, b1, b2 := bonus[0], bonus[1], bonus[2]
		for r, i := range idx {
			row := reps[3*int(comboOf[i]):][:3]
			dst[r] = base[i] + sign*(row[0]*b0+row[1]*b1+row[2]*b2)
		}
	case 4:
		b0, b1, b2, b3 := bonus[0], bonus[1], bonus[2], bonus[3]
		for r, i := range idx {
			row := reps[4*int(comboOf[i]):][:4]
			dst[r] = base[i] + sign*(row[0]*b0+row[1]*b1+row[2]*b2+row[3]*b3)
		}
	default:
		for r, i := range idx {
			row := reps[dims*int(comboOf[i]):][:dims]
			var s float64
			for j, v := range row {
				s += v * bonus[j]
			}
			dst[r] = base[i] + sign*s
		}
	}
}

// EffectiveScoresAll is EffectiveScores over the entire dataset, writing
// into dst (allocated when nil) and returning it. It reads the columns
// through FairDot, with no combo-row index and no unrolling, which makes
// it the independent reference the differential tests rank by;
// EffectiveScoresEach is the fast form.
func EffectiveScoresAll(d *dataset.Dataset, base, bonus []float64, pol Polarity, dst []float64) []float64 {
	n := d.N()
	if dst == nil {
		dst = make([]float64, n)
	}
	sign := pol.Sign()
	for i := 0; i < n; i++ {
		dst[i] = base[i] + sign*d.FairDot(i, bonus)
	}
	return dst
}

// CheckFraction validates a selection fraction (the paper's k): it must
// lie in (0, 1]. The check is population-independent, which lets
// objectives validate their fractions once at bind time.
func CheckFraction(frac float64) error {
	if math.IsNaN(frac) || frac <= 0 || frac > 1 {
		return fmt.Errorf("rank: selection fraction %v outside (0,1]", frac)
	}
	return nil
}

// SelectCount converts a selection fraction (the paper's k, in (0, 1]) into
// a count over n objects: round-half-up, at least 1, at most n.
func SelectCount(n int, frac float64) (int, error) {
	if err := CheckFraction(frac); err != nil {
		return 0, err
	}
	k := int(frac*float64(n) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k, nil
}

// higher reports whether item a ranks above item b: higher score first,
// ties broken by lower index so that every selection algorithm realizes the
// same total order.
func higher(scores []float64, a, b int) bool {
	if scores[a] != scores[b] {
		return scores[a] > scores[b]
	}
	return a < b
}

// Order returns all indices 0..len(scores)-1 sorted by descending score
// (ties by ascending index). This is the full ranking R of the paper.
func Order(scores []float64) []int {
	return OrderInto(scores, make([]int, len(scores)))
}

// OrderInto is the in-place variant of Order: it fills idx (length
// len(scores)) with the descending ranking and returns it, allocating
// nothing. The index tie-break makes the comparator a total order, so the
// result is the unique ranking regardless of sorting algorithm.
func OrderInto(scores []float64, idx []int) []int {
	for i := range idx {
		idx[i] = i
	}
	SortRanked(scores, idx)
	return idx
}

// SortRanked sorts idx in place into descending ranked order under the
// exact comparator of Order/OrderInto (higher score first, ties broken by
// lower index). Because that comparator is a total order, sorting any
// subset of a population's indices reproduces the relative order those
// indices hold in the full ranking — which is what lets a top-k selection
// (e.g. from TopKHeapInto) be turned into the ranking's leading prefix
// without sorting the whole population.
//
// From radixMin entries up the sort is the radix kernel, which yields the
// same unique ranking in linear time; smaller inputs, and any input with a
// NaN score, take the comparator sort.
func SortRanked(scores []float64, idx []int) {
	if len(idx) >= radixMin && radixRankInto(scores, idx) {
		return
	}
	slices.SortFunc(idx, func(a, b int) int {
		if a == b {
			return 0
		}
		if higher(scores, a, b) {
			return -1
		}
		return 1
	})
}

// TopKHeap returns the indices of the k highest-scoring items in
// unspecified order using a bounded min-heap: O(n log k) time, O(k) space.
// Membership is identical to the first k entries of Order(scores).
func TopKHeap(scores []float64, k int) []int {
	return TopKHeapInto(scores, k, make([]int, 0, k))
}

// TopKHeapInto is the in-place variant of TopKHeap: buf provides the heap
// storage (its capacity must be at least k; its length is ignored) and the
// selected indices are returned in buf[:k]. The heap insertion sequence is
// identical to TopKHeap's, so the returned order matches exactly.
//
// After the heap fills, each later item i is compared with the cached
// score of the weakest kept item. i has the highest index seen so far, so
// it outranks the root only with a strictly greater score; the test is
// written !(v > thr) so a NaN on either side rejects, as the full
// comparator does. An accepted item is sifted down as a hole, with the
// child chosen without a branch; every comparison and move is the one a
// swap-based sift makes, so the heap layout is unchanged.
func TopKHeapInto(scores []float64, k int, buf []int) []int {
	checkK(len(scores), k)
	if k == 0 {
		return nil
	}
	h := buf[:k]
	for i := 0; i < k; i++ {
		h[i] = i
		heapSiftUp(scores, h, i)
	}
	thr := scores[h[0]]
	for i := k; i < len(scores); i++ {
		v := scores[i]
		if !(v > thr) {
			continue
		}
		// Sift the new item down from the root. It outranks a child only
		// by a strictly greater score (its index is the largest so far).
		root := 0
		for {
			child := 2*root + 1
			if child >= k {
				break
			}
			if child+1 < k {
				child += b2i(higher(scores, h[child], h[child+1]))
			}
			c := h[child]
			if !(v > scores[c]) {
				break
			}
			h[root] = c
			root = child
		}
		h[root] = i
		thr = scores[h[0]]
	}
	return h
}

// b2i converts a comparison to 0 or 1; the compiler lowers it to a flag
// set instead of a branch.
func b2i(b bool) int {
	var x int
	if b {
		x = 1
	}
	return x
}

// heapSiftUp restores the min-heap property upward from node.
func heapSiftUp(scores []float64, h []int, node int) {
	for node > 0 {
		parent := (node - 1) / 2
		if !higher(scores, h[parent], h[node]) {
			return
		}
		h[node], h[parent] = h[parent], h[node]
		node = parent
	}
}

func checkK(n, k int) {
	if k < 0 || k > n {
		panic(fmt.Sprintf("rank: k=%d outside [0,%d]", k, n))
	}
}
