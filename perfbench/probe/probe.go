// Package probe is the benchmark's host-speed reference: a fixed,
// allocation-free stdlib kernel whose time tracks how fast the machine is
// running right now. It imports nothing from the program under test, so
// no change to the program can move it; the benchmark divides its
// timings by the probe's drift instead of reporting the host's.
package probe

import (
	"math/rand"
	"slices"
	"time"
)

// Size is the number of float64s the kernel sorts (2^17, 1 MiB): large
// enough to take milliseconds, small enough to stay in the last-level
// cache of a small VM.
const Size = 1 << 17

// Kernel sorts a copy of one seeded array. Its buffers are allocated once,
// in New, so Run allocates nothing.
type Kernel struct {
	src, work []float64
}

// New returns a kernel whose input is drawn from seed.
func New(seed int64) *Kernel {
	r := rand.New(rand.NewSource(seed))
	k := &Kernel{src: make([]float64, Size), work: make([]float64, Size)}
	for i := range k.src {
		k.src[i] = r.Float64()
	}
	return k
}

// Run copies the input and sorts the copy, returning the elapsed time.
func (k *Kernel) Run() time.Duration {
	start := time.Now()
	copy(k.work, k.src)
	slices.Sort(k.work)
	return time.Since(start)
}

// Sample runs the kernel reps times and returns the median elapsed time,
// so one preempted repetition does not move the sample.
func (k *Kernel) Sample(reps int, buf []time.Duration) time.Duration {
	buf = buf[:0]
	for i := 0; i < reps; i++ {
		buf = append(buf, k.Run())
	}
	slices.Sort(buf)
	return buf[len(buf)/2]
}
