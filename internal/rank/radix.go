package rank

import (
	"math"
	"math/bits"
	"sync"
)

// radixMin is the population at or above which SortRanked switches from
// the comparator sort to the radix kernel. Below it the kernel's fixed
// cost (six 2048-bucket histograms, a pooled scratch round-trip) is not
// repaid: BenchmarkSortRankedCrossover puts the break-even near 512 ids
// for an identity index and near 1024 for a heap-ordered subset, whose id
// passes the identity skips. It also keeps the trainer's 500-object
// sample orderings on the comparator, so a descent step never touches
// the pool.
const radixMin = 1024

// The kernel sorts in 11-bit digits: six passes cover a 64-bit key, the
// top one usually skipped (scores of one sign and a narrow exponent range
// share it), and two cover the ids of any population under 4M.
const (
	digitBits = 11
	buckets   = 1 << digitBits
	digitMask = buckets - 1
	keyDigits = (64 + digitBits - 1) / digitBits
)

// radixScratch is the radix kernel's working memory: the score keys and
// ids being sorted and their ping-pong partners. It lives only in
// radixPool, never in a long-lived object, so the collector reclaims it
// once ranking traffic stops.
type radixScratch struct {
	keys, keys2 []uint64
	ids, ids2   []uint32
}

var radixPool = sync.Pool{New: func() any { return new(radixScratch) }}

// descKey maps a score to a uint64 whose ascending order is the score's
// descending order. -0 is folded onto +0 first, because higher treats the
// two as equal and must then break the tie by id.
func descKey(x float64) uint64 {
	b := math.Float64bits(x)
	if b == 1<<63 {
		b = 0
	}
	// Flipping the sign bit of a non-negative score, or every bit of a
	// negative one, gives the ascending key; the complement reverses it.
	return ^(b ^ (uint64(int64(b)>>63) | 1<<63))
}

// radixRankInto sorts idx in place into ranked order (higher score first,
// ties by lower index) with a stable LSD radix sort: id digits first when
// idx is not already ascending, then the score-key digits. Digits every
// entry shares are skipped. It reports false, leaving idx unsorted, when
// a score is NaN: NaN is outside the total order, so the caller must take
// the comparator path to reproduce its exact output. Populations beyond
// 32-bit ids are declined the same way.
func radixRankInto(scores []float64, idx []int) bool {
	n := len(idx)
	if uint64(len(scores)) > math.MaxUint32 {
		return false
	}
	s := radixPool.Get().(*radixScratch)
	defer radixPool.Put(s)
	//fairlint:allow intoalloc -- the pooled scratch grows only when a larger population first arrives; warm calls reuse it (pinned by AllocsPerRun)
	if cap(s.keys) < n {
		s.keys = make([]uint64, n)
		s.keys2 = make([]uint64, n)
		s.ids = make([]uint32, n)
		s.ids2 = make([]uint32, n)
	}
	keys, keys2, ids, ids2 := s.keys[:n], s.keys2[:n], s.ids[:n], s.ids2[:n]

	var hist [keyDigits][buckets]uint32
	ascending := true
	prev, maxID := -1, 0
	for i, id := range idx {
		x := scores[id]
		if x != x {
			return false
		}
		k := descKey(x)
		keys[i] = k
		ids[i] = uint32(id)
		hist[0][k&digitMask]++
		hist[1][(k>>digitBits)&digitMask]++
		hist[2][(k>>(2*digitBits))&digitMask]++
		hist[3][(k>>(3*digitBits))&digitMask]++
		hist[4][(k>>(4*digitBits))&digitMask]++
		hist[5][k>>(5*digitBits)]++
		if id <= prev {
			ascending = false
		}
		prev = id
		maxID |= id
	}

	srcK, srcI, dstK, dstI := keys, ids, keys2, ids2
	if !ascending {
		// Stable id passes put ties in ascending-id order for the key
		// passes to preserve.
		for shift := 0; shift < bits.Len(uint(maxID)); shift += digitBits {
			var h [buckets]uint32
			for _, id := range srcI {
				h[(id>>shift)&digitMask]++
			}
			if !prefixOffsets(&h, n) {
				continue
			}
			from := srcK[:len(srcI)]
			for i, id := range srcI {
				d := (id >> shift) & digitMask
				p := h[d]
				h[d] = p + 1
				dstK[p] = from[i]
				dstI[p] = id
			}
			srcK, srcI, dstK, dstI = dstK, dstI, srcK, srcI
		}
	}
	for d := range hist {
		h := &hist[d]
		if !prefixOffsets(h, n) {
			continue
		}
		shift := d * digitBits
		from := srcI[:len(srcK)]
		for i, k := range srcK {
			dg := (k >> shift) & digitMask
			p := h[dg]
			h[dg] = p + 1
			dstK[p] = k
			dstI[p] = from[i]
		}
		srcK, srcI, dstK, dstI = dstK, dstI, srcK, srcI
	}
	for i, id := range srcI {
		idx[i] = int(id)
	}
	return true
}

// prefixOffsets turns a digit histogram over n entries into each digit's
// first output position. It reports false when one digit holds every
// entry, in which case the pass would be the identity and is skipped.
func prefixOffsets(h *[buckets]uint32, n int) bool {
	var sum uint32
	for d, c := range h {
		if int(c) == n {
			return false
		}
		h[d] = sum
		sum += c
	}
	return true
}
