package metrics

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"fairrank/internal/dataset"
)

// ErrDegenerateGroups is returned by the DDP finishers when fewer than two
// exposure groups are populated: with at most one group present there is
// no pairwise per-capita gap to measure, and reporting 0 would be
// indistinguishable from genuine parity. Like ErrZeroIdealDCG it is a
// data-dependent, per-query failure — sweep and batch paths isolate it to
// the offending point instead of failing the whole request.
var ErrDegenerateGroups = errors.New("metrics: fewer than two populated exposure groups")

// Exposure returns Σ_{i∈G} 1/log2(r(i)+1) where r(i) is the 1-based rank of
// object i in the ranking order, for the group G given by the member
// predicate. This is the exposure definition of Gupta et al. used in
// Section VI-C4. It is the paper-faithful reference implementation; the
// serving paths use the columnar PrefixExposureInto aggregators below.
func Exposure(order []int, member func(i int) bool) float64 {
	var s float64
	for pos, obj := range order {
		if member(obj) {
			s += 1 / math.Log2(float64(pos)+2)
		}
	}
	return s
}

// DDP returns the demographic disparity constraint of Gupta et al.:
// the maximum pairwise difference of per-capita exposure across groups.
// Groups are the member sets of the listed binary fairness attributes plus
// the set of objects belonging to none of them; a value of 0 means every
// group receives the same average exposure. When fewer than two groups are
// populated it returns ErrDegenerateGroups — there is no gap to measure.
//
// Continuous fairness attributes are not supported (DDP is a group metric);
// pass only the binary attribute columns, as the paper does when it drops
// ENI for the exposure experiment.
func DDP(d *dataset.Dataset, order []int, fairCols []int) (float64, error) {
	if len(fairCols) == 0 {
		return 0, fmt.Errorf("metrics: DDP with no fairness attributes")
	}
	g := len(fairCols) + 1 // +1 for the unprotected rest
	exposure := make([]float64, g)
	sizes := make([]int, g)
	for pos, obj := range order {
		w := 1 / math.Log2(float64(pos)+2)
		inAny := false
		for gi, col := range fairCols {
			if d.Fair(obj, col) > 0.5 {
				exposure[gi] += w
				sizes[gi]++
				inAny = true
			}
		}
		if !inAny {
			exposure[g-1] += w
			sizes[g-1]++
		}
	}
	return DDPFromExposure(exposure, sizes)
}

// DDPFromExposure is the scalar DDP finisher over per-group exposure sums
// and membership counts: the maximum pairwise gap of per-capita exposure
// across populated groups (sizes[g] > 0). It returns ErrDegenerateGroups
// when fewer than two groups are populated. The maximum pairwise |a−b| is
// attained at the (max, min) pair, and correctly-rounded subtraction is
// monotone, so the max−min form is bit-identical to the pairwise double
// loop it replaces. The sweep engine calls it on prefix-resumed rows; DDP
// calls it on full-ranking sums — same finisher, bit-identical answers.
func DDPFromExposure(exposure []float64, sizes []int) (float64, error) {
	var lo, hi float64
	populated := 0
	for g, sz := range sizes {
		if sz == 0 {
			continue
		}
		pc := exposure[g] / float64(sz)
		if populated == 0 || pc < lo {
			lo = pc
		}
		if populated == 0 || pc > hi {
			hi = pc
		}
		populated++
	}
	if populated < 2 {
		return 0, ErrDegenerateGroups
	}
	return hi - lo, nil
}

// ExposurePerCapitaInto divides per-group exposure sums by membership
// counts into dst (an unpopulated group maps to 0) and returns dst. Since
// every position weight is strictly positive, a populated group's
// per-capita exposure is strictly positive — zero entries and unpopulated
// groups coincide, which is what lets DDPFromPerCapita recover the DDP
// from the vector alone.
func ExposurePerCapitaInto(exposure []float64, sizes []int, dst []float64) []float64 {
	for g := range dst {
		if sizes[g] == 0 {
			dst[g] = 0
			continue
		}
		dst[g] = exposure[g] / float64(sizes[g])
	}
	return dst
}

// DDPFromPerCapita recovers the DDP from a per-capita exposure vector as
// produced by ExposurePerCapitaInto: the max−min gap over positive entries
// (zero entries are unpopulated groups, never genuine zero exposure). It
// returns ErrDegenerateGroups when fewer than two entries are positive,
// and is bit-identical to DDPFromExposure over the same populated groups —
// the service layer uses it to re-derive the DDP norm of cached rows.
func DDPFromPerCapita(perCapita []float64) (float64, error) {
	var lo, hi float64
	populated := 0
	for _, pc := range perCapita {
		if pc <= 0 {
			continue
		}
		if populated == 0 || pc < lo {
			lo = pc
		}
		if populated == 0 || pc > hi {
			hi = pc
		}
		populated++
	}
	if populated < 2 {
		return 0, ErrDegenerateGroups
	}
	return hi - lo, nil
}

// ExpRatioFromCounts is the scalar exposure/merit ratio of one group: its
// per-capita exposure within the prefix (expo over inPrefix members)
// divided by its merit rate (posTot ground-truth-positive members out of
// groupTot). Any zero denominator — a group absent from the prefix, empty
// in the population, or without a single positive outcome — yields 0,
// the same convention the FPR difference uses for empty groups.
func ExpRatioFromCounts(expo float64, inPrefix, posTot, groupTot int) float64 {
	if inPrefix == 0 || posTot == 0 || groupTot == 0 {
		return 0
	}
	return (expo / float64(inPrefix)) / (float64(posTot) / float64(groupTot))
}

// TopKFromCounts is the scalar top-K rank-fairness term of one group: its
// share of the top-k prefix minus its share of the whole cohort. A
// positive value means the prefix over-represents the group. Degenerate
// denominators yield 0 (an empty prefix or population has no shares).
func TopKFromCounts(inPrefix, prefix, inPop, pop int) float64 {
	if prefix == 0 || pop == 0 {
		return 0
	}
	return float64(inPrefix)/float64(prefix) - float64(inPop)/float64(pop)
}

// PrefixExposureInto computes, for every cut in cuts (ascending), the
// exposure sum of every group in order[:cut] — the NumFair named groups
// (attribute value > 0.5) followed by the unprotected rest: sum is a
// running-sum scratch of length NumFair+1 and dst receives the exposure
// rows flattened (row c at dst[c*(NumFair+1):(c+1)*(NumFair+1)]). It
// allocates nothing and returns dst. Each row is bit-identical to the
// full-scan accumulation DDP performs over order[:cuts[c]]: position-outer,
// group-inner, the same additions in the same order, merely resumed across
// segment boundaries. The loop is object-outer (unlike the column-outer
// centroid fold) because the trailing rest group needs a per-object
// "member of no group" test; on the combo-row route an object's groups
// are the set bits of its combo's mask, and an empty mask is the rest.
func PrefixExposureInto(d *dataset.Dataset, order []int, cuts []int, sum, dst []float64) []float64 {
	g := d.NumFair() + 1
	cols := d.FairColumns()
	comboOf, masks, indexed := maskIndex(d)
	clear(sum[:g])
	prev := 0
	for c, cut := range cuts {
		for pos := prev; pos < cut; pos++ {
			i := order[pos]
			w := 1 / math.Log2(float64(pos)+2)
			if indexed {
				m := masks[comboOf[i]]
				if m == 0 {
					sum[g-1] += w
				}
				for ; m != 0; m &= m - 1 {
					sum[bits.TrailingZeros64(m)] += w
				}
				continue
			}
			inAny := false
			for j, col := range cols {
				if col[i] > 0.5 {
					sum[j] += w
					inAny = true
				}
			}
			if !inAny {
				sum[g-1] += w
			}
		}
		copy(dst[c*g:(c+1)*g], sum)
		prev = cut
	}
	return dst
}

// PrefixExposureCountsInto counts, for every cut in cuts (ascending), the
// members of each exposure group in order[:cut] — the NumFair named groups
// followed by the unprotected rest: dst receives the count rows flattened
// (row width NumFair+1). Together with PrefixExposureInto it feeds
// DDPFromExposure; counts are integers, so exactness needs no fold
// argument. It allocates nothing and returns dst.
func PrefixExposureCountsInto(d *dataset.Dataset, order []int, cuts []int, dst []int) []int {
	g := d.NumFair() + 1
	cols := d.FairColumns()
	comboOf, masks, indexed := maskIndex(d)
	prev := 0
	for c, cut := range cuts {
		row := carryRow(dst, c, g)
		if indexed {
			row[g-1] += countMasks(row[:g-1], order[prev:cut], comboOf, masks)
			prev = cut
			continue
		}
		for _, i := range order[prev:cut] {
			inAny := false
			for j, col := range cols {
				if col[i] > 0.5 {
					row[j]++
					inAny = true
				}
			}
			if !inAny {
				row[g-1]++
			}
		}
		prev = cut
	}
	return dst
}
