package metrics

import (
	"math"
	"math/bits"

	"fairrank/internal/dataset"
)

// Prefix aggregators: every top-k metric in this package is a function of
// the ranked prefix order[:cut], so a sweep over many selection fractions
// of one ranking can be answered from running aggregates of a single pass
// instead of re-scanning the prefix per point. Each aggregator takes the
// cut points in ascending order and extends its running state segment by
// segment, which makes the value at each cut the *same left-to-right fold*
// the pointwise metric computes — results are bit-identical, not merely
// close (floating-point addition is order-sensitive; the order here is
// identical by construction).

// The fold routes. Once the dataset's combo-row index exists
// (dataset.BuiltComboIndex; an evaluator builds it), the centroid fold
// reads each ranked object's combo row and the membership folds its
// combo's mask, one lookup in a table of at most MaxCombos entries
// through comboOf, in place of NumFair random reads across the columns.
// A row is bitwise equal to the object's column values and a mask bit is
// the column compare v > 0.5, so each fold performs the same additions to
// the same accumulators in the same order on both routes. A dataset whose
// index is not built, or declined, keeps the column loops.

// PrefixCentroidInto computes the fairness centroid of order[:cut] for
// every cut in cuts (ascending, each in [1, len(order)]): sum is a
// running-sum scratch of length NumFair and dst receives the centroid rows
// flattened (row c at dst[c*dims:(c+1)*dims], length len(cuts)*NumFair).
// It allocates nothing and returns dst. Each row is bit-identical to
// Dataset.FairCentroidInto(order[:cuts[c]], ...): per column, the running
// sum performs the same additions in the same order, merely resumed across
// segment boundaries.
func PrefixCentroidInto(d *dataset.Dataset, order []int, cuts []int, sum, dst []float64) []float64 {
	dims := d.NumFair()
	sum = sum[:dims]
	clear(sum)
	prev := 0
	for c, cut := range cuts {
		d.AddFairRows(order[prev:cut], sum)
		for j, s := range sum {
			dst[c*dims+j] = s / float64(cut)
		}
		prev = cut
	}
	return dst
}

// maskIndex returns the combo-row index's comboOf and membership masks
// when the membership folds can read them: the index is built and the
// masks cover every attribute.
func maskIndex(d *dataset.Dataset) (comboOf []int32, masks []uint64, ok bool) {
	comboOf, _, masks, ok = d.BuiltComboIndex()
	return comboOf, masks, ok && masks != nil
}

// countMasks adds bit j of the membership mask of every object of seg to
// row[j] (length NumFair) and returns how many of those objects have an
// empty mask, the members of no group. It keeps four counters in
// registers per pass over seg, so their additions overlap; a mask has no
// bit at or above NumFair, so a pass's spare counters count nothing.
func countMasks(row []int, seg []int, comboOf []int32, masks []uint64) (empty int) {
	if len(row) == 0 {
		return len(seg)
	}
	for j := 0; j < len(row); j += 4 {
		var n [4]int
		for _, i := range seg {
			m := masks[comboOf[i]]
			if j == 0 {
				empty += b2i(m == 0)
			}
			m >>= j
			n[0] += int(m & 1)
			n[1] += int(m >> 1 & 1)
			n[2] += int(m >> 2 & 1)
			n[3] += int(m >> 3 & 1)
		}
		for k, v := range n[:min(4, len(row)-j)] {
			row[j+k] += v
		}
	}
	return empty
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// carryRow returns count row c of dst (width w), starting from row c-1's
// counts, or from zero for the first row.
func carryRow(dst []int, c, w int) []int {
	row := dst[c*w : (c+1)*w]
	if c == 0 {
		clear(row)
	} else {
		copy(row, dst[(c-1)*w:c*w])
	}
	return row
}

// PrefixGroupCountsInto counts, for every cut in cuts (ascending), the
// objects in order[:cut] belonging to each binary fairness group
// (attribute value > 0.5): dst receives the count rows flattened (row c at
// dst[c*dims:(c+1)*dims]). It allocates nothing and returns dst. Counts
// are integers, so exactness needs no fold argument.
func PrefixGroupCountsInto(d *dataset.Dataset, order []int, cuts []int, dst []int) []int {
	dims := d.NumFair()
	comboOf, masks, indexed := maskIndex(d)
	prev := 0
	for c, cut := range cuts {
		row := carryRow(dst, c, dims)
		if indexed {
			countMasks(row, order[prev:cut], comboOf, masks)
		} else {
			for j, col := range d.FairColumns() {
				n := row[j]
				for _, i := range order[prev:cut] {
					if col[i] > 0.5 {
						n++
					}
				}
				row[j] = n
			}
		}
		prev = cut
	}
	return dst
}

// PrefixFPCountsInto counts, for every cut in cuts (ascending), the
// "false positives" in order[:cut] — selected objects whose ground-truth
// outcome is false — per binary fairness group and overall: dst receives
// the per-group rows flattened, dstAll (length len(cuts)) the overall
// counts. The dataset must carry outcomes. It allocates nothing.
func PrefixFPCountsInto(d *dataset.Dataset, order []int, cuts []int, dst, dstAll []int) {
	dims := d.NumFair()
	comboOf, masks, indexed := maskIndex(d)
	prev := 0
	overall := 0
	for c, cut := range cuts {
		row := carryRow(dst, c, dims)
		for _, i := range order[prev:cut] {
			if d.Outcome(i) {
				continue
			}
			overall++
			if indexed {
				for m := masks[comboOf[i]]; m != 0; m &= m - 1 {
					row[bits.TrailingZeros64(m)]++
				}
			}
		}
		if !indexed {
			for j, col := range d.FairColumns() {
				n := row[j]
				for _, i := range order[prev:cut] {
					if col[i] > 0.5 && !d.Outcome(i) {
						n++
					}
				}
				row[j] = n
			}
		}
		dstAll[c] = overall
		prev = cut
	}
}

// PrefixDCGInto computes the discounted cumulative gain of order[:cut]
// for every cut in cuts (ascending): dst (length len(cuts)) receives
// dst[c] = DCG(gains, order, cuts[c]). It allocates nothing and returns
// dst. Each value is bit-identical to DCG(gains, order, cuts[c]): the
// running sum is the same fold, resumed across segments.
func PrefixDCGInto(gains []float64, order []int, cuts []int, dst []float64) []float64 {
	var s float64
	prev := 0
	for c, cut := range cuts {
		for i := prev; i < cut; i++ {
			s += gains[order[i]] / math.Log2(float64(i)+2)
		}
		dst[c] = s
		prev = cut
	}
	return dst
}

// PrefixDCGPairInto is PrefixDCGInto over two orders at once, with one
// Log2 per position: dstA receives the DCG values of a and dstB those of
// b. Each sum divides by the same divisor and adds in the same order as
// PrefixDCGInto's, so both are bit-identical to it. The nDCG fold runs
// the compensated order and the ideal one through it.
func PrefixDCGPairInto(gains []float64, a, b []int, cuts []int, dstA, dstB []float64) {
	var sa, sb float64
	prev := 0
	for c, cut := range cuts {
		for i := prev; i < cut; i++ {
			w := math.Log2(float64(i) + 2)
			sa += gains[a[i]] / w
			sb += gains[b[i]] / w
		}
		dstA[c], dstB[c] = sa, sb
		prev = cut
	}
}

// PrefixCount converts a selection fraction in (0, 1] into a prefix length
// over n objects — round-half-up, clamped to [1, n] — the cut-point
// arithmetic shared by every fraction-addressed metric in this package.
func PrefixCount(n int, frac float64) (int, error) {
	return prefixCount(n, frac)
}
