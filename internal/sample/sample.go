package sample

import (
	"fmt"
	"math/rand"
	"sync"
)

// Sampler draws index samples from a population of fixed size n. It is not
// safe for concurrent use; create one per goroutine.
type Sampler struct {
	n  int
	sc *scratch

	// epoch state for Next: perm is sc.perm[:n] once the first epoch is
	// drawn, nil before.
	perm []int
	pos  int

	sched Schedule
}

// scratch is a sampler's reusable state. Acquire takes it from a package
// pool and Release hands it back, so a warm train allocates nothing sized
// by the population; New gives a sampler a private one.
type scratch struct {
	rng  *rand.Rand
	tab  table
	perm []int // epoch permutation for Next
	ring []int // Schedule's sample ring
}

var scratchPool sync.Pool // of *scratch

// table is UniformInto's displacement table: a generation-stamped sparse
// array standing in for the map of a partial Fisher-Yates shuffle, so
// repeated draws allocate nothing and never hash. An entry is live only
// while its stamp equals cur, and every draw takes a fresh stamp, so a
// table starts each draw empty without being cleared — also when it
// passes from one sampler to another through the pool. The stamp is
// uint64 so service-scale draw counts cannot wrap it in practice (2^32
// draws take minutes; 2^64 take centuries), and next keeps the table
// correct even if it somehow does.
type table struct {
	val []int
	gen []uint64
	cur uint64
}

// next begins a draw over a population of n, growing the table when it is
// smaller, and returns the draw's stamp.
func (t *table) next(n int) uint64 {
	if len(t.gen) < n {
		t.val = make([]int, n)
		t.gen = make([]uint64, n)
		t.cur = 0
	}
	t.cur++
	if t.cur == 0 {
		// Stamp wrap: a stale entry stamped in a previous epoch of the
		// counter would be indistinguishable from a fresh one and could
		// inject a duplicate index into the draw, so invalidate every
		// entry explicitly before reusing stamp values.
		clear(t.gen)
		t.cur = 1
	}
	return t.cur
}

// New returns a sampler over the population {0, ..., n-1} seeded with seed.
func New(n int, seed int64) *Sampler {
	return &Sampler{n: n, sc: &scratch{rng: rand.New(rand.NewSource(seed))}}
}

// Acquire returns a sampler that draws exactly what New(n, seed) draws but
// takes its generator, tables and ring from a package pool. Pair it with
// Release.
func Acquire(n int, seed int64) *Sampler {
	sc, _ := scratchPool.Get().(*scratch)
	if sc == nil {
		return New(n, seed)
	}
	sc.rng.Seed(seed)
	return &Sampler{n: n, sc: sc}
}

// Release stops the sampler's schedule, waiting for its prefetch helper
// to exit, and returns the sampler's scratch to the pool. Neither the
// sampler nor any slice it returned may be used afterwards.
func (s *Sampler) Release() {
	s.sched.stop()
	scratchPool.Put(s.sc)
	*s = Sampler{}
}

// N reports the population size.
func (s *Sampler) N() int { return s.n }

// Rand exposes the underlying generator for callers that need auxiliary
// randomness (e.g. random bonus initialization) tied to the same seed.
func (s *Sampler) Rand() *rand.Rand { return s.sc.rng }

// Uniform returns k distinct indices drawn uniformly at random, using a
// partial Fisher-Yates shuffle. It panics if k > n.
func (s *Sampler) Uniform(k int) []int {
	return s.UniformInto(make([]int, k))
}

// UniformInto fills dst with len(dst) distinct indices drawn uniformly at
// random and returns it. It is the allocation-free variant of Uniform: the
// partial Fisher-Yates displacement table belongs to the sampler's
// scratch, so steady-state draws allocate nothing. The random stream
// consumed is identical to Uniform's. It panics if len(dst) > n.
func (s *Sampler) UniformInto(dst []int) []int {
	k := len(dst)
	if k > s.n {
		//fairlint:allow intoalloc -- error-path panic message; unreachable on a steady-state draw
		panic(fmt.Sprintf("sample: requested %d of %d", k, s.n))
	}
	rng, t := s.sc.rng, &s.sc.tab
	gen := t.next(s.n)
	val, stamp := t.val, t.gen
	// Partial shuffle over a virtual identity permutation: remember only
	// the displaced entries.
	for i := 0; i < k; i++ {
		j := i + rng.Intn(s.n-i)
		vj := j
		if stamp[j] == gen {
			vj = val[j]
		}
		vi := i
		if stamp[i] == gen {
			vi = val[i]
		}
		dst[i] = vj
		val[j], stamp[j] = vi, gen
		val[i], stamp[i] = vj, gen
	}
	return dst
}

// WithReplacement returns k indices drawn independently and uniformly.
func (s *Sampler) WithReplacement(k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = s.sc.rng.Intn(s.n)
	}
	return out
}

// Next returns the next k indices from the current randomized epoch,
// reshuffling when the epoch is exhausted. This is the "next sample in O"
// iterator of Algorithm 2: over an epoch every object is visited exactly
// once, which lowers the variance of the refinement steps relative to
// independent sampling. The slice aliases the epoch and is valid until the
// following call. It panics if k > n.
func (s *Sampler) Next(k int) []int {
	if k > s.n {
		panic(fmt.Sprintf("sample: requested %d of %d", k, s.n))
	}
	if s.perm == nil {
		if cap(s.sc.perm) < s.n {
			s.sc.perm = make([]int, s.n)
		}
		s.perm = s.sc.perm[:s.n]
		permInto(s.sc.rng, s.perm)
	}
	if s.pos+k > s.n {
		// Reshuffle and restart the epoch; partial remainders are dropped so
		// every sample has exactly k elements.
		s.sc.rng.Shuffle(s.n, func(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] })
		s.pos = 0
	}
	out := s.perm[s.pos : s.pos+k]
	s.pos += k
	return out
}

// permInto fills m with a pseudo-random permutation of 0..len(m)-1 and
// leaves rng exactly where rng.Perm(len(m)) would: the loop is
// math/rand's Perm verbatim, whose stream consumption (including the
// no-op i=0 iteration) Go 1 compatibility freezes.
func permInto(rng *rand.Rand, m []int) {
	for i := range m {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
}
