package metrics

import (
	"math"

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
	for j := 0; j < dims; j++ {
		sum[j] = 0
	}
	prev := 0
	for c, cut := range cuts {
		for j, col := range d.FairColumns() {
			s := sum[j]
			for _, i := range order[prev:cut] {
				s += col[i]
			}
			sum[j] = s
			dst[c*dims+j] = s / float64(cut)
		}
		prev = cut
	}
	return dst
}

// PrefixGroupCountsInto counts, for every cut in cuts (ascending), the
// objects in order[:cut] belonging to each binary fairness group
// (attribute value > 0.5): dst receives the count rows flattened (row c at
// dst[c*dims:(c+1)*dims]). It allocates nothing and returns dst. Counts are integers, so exactness
// needs no fold argument.
func PrefixGroupCountsInto(d *dataset.Dataset, order []int, cuts []int, dst []int) []int {
	dims := d.NumFair()
	prev := 0
	for c, cut := range cuts {
		row := dst[c*dims : (c+1)*dims]
		if c == 0 {
			for j := range row {
				row[j] = 0
			}
		} else {
			copy(row, dst[(c-1)*dims:c*dims])
		}
		for j, col := range d.FairColumns() {
			n := row[j]
			for _, i := range order[prev:cut] {
				if col[i] > 0.5 {
					n++
				}
			}
			row[j] = n
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
	prev := 0
	overall := 0
	for c, cut := range cuts {
		row := dst[c*dims : (c+1)*dims]
		if c == 0 {
			for j := range row {
				row[j] = 0
			}
		} else {
			copy(row, dst[(c-1)*dims:c*dims])
		}
		for _, i := range order[prev:cut] {
			if !d.Outcome(i) {
				overall++
			}
		}
		for j, col := range d.FairColumns() {
			n := row[j]
			for _, i := range order[prev:cut] {
				if col[i] > 0.5 && !d.Outcome(i) {
					n++
				}
			}
			row[j] = n
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
