package rank

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refTopKHeapInto is the swap-based bounded heap TopKHeapInto replaced,
// kept verbatim as the reference: the descent step's selection centroid
// sums the heap in its array order, so the new heap must return the same
// ids in the same layout, not only the same set.
func refTopKHeapInto(scores []float64, k int, buf []int) []int {
	checkK(len(scores), k)
	if k == 0 {
		return nil
	}
	h := buf[:0]
	for i := range scores {
		if len(h) < k {
			h = append(h, i)
			refHeapSiftUp(scores, h, len(h)-1)
			continue
		}
		if higher(scores, i, h[0]) { // i outranks the current weakest
			h[0] = i
			refHeapSiftDown(scores, h, 0)
		}
	}
	return h
}

func refHeapSiftUp(scores []float64, h []int, node int) {
	for node > 0 {
		parent := (node - 1) / 2
		if !higher(scores, h[parent], h[node]) {
			return
		}
		h[node], h[parent] = h[parent], h[node]
		node = parent
	}
}

func refHeapSiftDown(scores []float64, h []int, root int) {
	for {
		child := 2*root + 1
		if child >= len(h) {
			return
		}
		if child+1 < len(h) && higher(scores, h[child], h[child+1]) {
			child++
		}
		if !higher(scores, h[root], h[child]) {
			return
		}
		h[root], h[child] = h[child], h[root]
		root = child
	}
}

// heapPalette holds the values a byte-coded fuzz input draws from: NaN,
// infinities, both zeros and small repeated values, so ties and the
// comparisons a NaN poisons occur often.
var heapPalette = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	1, 1, 2, 2, 3, -1, 1 + 0x1p-52, 0.5, -0.5, math.MaxFloat64, -math.MaxFloat64,
}

// checkHeap compares TopKHeapInto with the reference for k, handing it a
// buffer whose stale contents and length must not matter.
func checkHeap(t *testing.T, scores []float64, k int) {
	t.Helper()
	want := refTopKHeapInto(scores, k, make([]int, 0, k))
	buf := make([]int, k, k+3)
	for i := range buf {
		buf[i] = -7
	}
	got := TopKHeapInto(scores, k, buf)
	if !slices.Equal(got, want) || (got == nil) != (want == nil) {
		t.Fatalf("TopKHeapInto(%v, k=%d) = %v, reference heap = %v", scores, k, got, want)
	}
}

func TestTopKHeapIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cases := 0
	for _, shape := range scoreShapes {
		for _, n := range []int{1, 2, 3, 7, 64, 500} {
			for rep := 0; rep < 20; rep++ {
				scores := shape.gen(rng, n)
				for _, k := range []int{0, 1, n / 20, n / 10, rng.Intn(n + 1), n - 1, n} {
					if k < 0 {
						continue
					}
					checkHeap(t, scores, k)
					cases++
				}
			}
		}
	}
	t.Logf("%d cases", cases)
}

func FuzzTopKHeapInto(f *testing.F) {
	f.Add([]byte{}, uint16(0), false)
	f.Add([]byte{0, 0, 0}, uint16(1), false)                      // all NaN
	f.Add([]byte{3, 4, 3, 4, 5, 5, 5, 1, 2, 0}, uint16(4), false) // ±0, ties, ±Inf, NaN
	f.Add([]byte{5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, uint16(11), false)
	var raw []byte
	for _, v := range edgeValues {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
	}
	f.Add(raw, uint16(5), true)
	f.Fuzz(func(t *testing.T, data []byte, kSeed uint16, rawBits bool) {
		var scores []float64
		if rawBits {
			for w := 0; w+8 <= len(data); w += 8 {
				scores = append(scores, math.Float64frombits(binary.LittleEndian.Uint64(data[w:])))
			}
		} else {
			for _, b := range data {
				scores = append(scores, heapPalette[int(b)%len(heapPalette)])
			}
		}
		n := len(scores)
		checkHeap(t, scores, int(kSeed)%(n+1))
		checkHeap(t, scores, 0)
		checkHeap(t, scores, n)
		if n > 0 {
			checkHeap(t, scores, 1)
		}
	})
}
