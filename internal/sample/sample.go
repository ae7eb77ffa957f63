package sample

import (
	"fmt"
	"math"
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
	src  *source    // the seeded stream every draw reads
	rng  *rand.Rand // wraps src for Rand
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
// passes from one sampler to another through the pool. An entry packs
// the displaced value beside its stamp in 8 bytes, so a draw's random
// probe touches one cache line and an 80k population's table is 640 KB
// (a warm 80k train on 2 procs ran about 10% faster than with 16-byte
// entries). So populations are capped at MaxInt32, and the uint32 stamp
// wraps after 2^32 draws: next then clears the table once, since a
// stale entry from the previous round of stamps would be
// indistinguishable from a fresh one.
type table struct {
	ent []entry
	cur uint32
}

type entry struct {
	val int32
	gen uint32
}

// next begins a draw over a population of n, growing the table when it is
// smaller, and returns the draw's stamp.
func (t *table) next(n int) uint32 {
	if len(t.ent) < n {
		if n > math.MaxInt32 {
			panic(fmt.Sprintf("sample: population of %d exceeds MaxInt32", n))
		}
		t.ent = make([]entry, n)
		t.cur = 0
	}
	t.cur++
	if t.cur == 0 {
		// Stamp wrap: invalidate every entry before reusing stamp values,
		// or a stale one could inject a duplicate index into the draw.
		clear(t.ent)
		t.cur = 1
	}
	return t.cur
}

// New returns a sampler over the population {0, ..., n-1} seeded with seed.
func New(n int, seed int64) *Sampler {
	src := newSource(seed)
	return &Sampler{n: n, sc: &scratch{src: src, rng: rand.New(src)}}
}

// Acquire returns a sampler that draws exactly what New(n, seed) draws but
// takes its generator, tables and ring from a package pool. Pair it with
// Release.
func Acquire(n int, seed int64) *Sampler {
	sc, _ := scratchPool.Get().(*scratch)
	if sc == nil {
		return New(n, seed)
	}
	sc.rng.Seed(seed) // reseeds sc.src
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
	src, t := s.sc.src, &s.sc.tab
	gen := t.next(s.n)
	ent := t.ent
	// Partial shuffle over a virtual identity permutation: remember only
	// the displaced entries. Position i takes the value at j and j the
	// value at i; i itself is never read again (later draws look at
	// positions past it), so only j is stored.
	for i := 0; i < k; i++ {
		j := i + src.Intn(s.n-i)
		vj := int32(j)
		if ent[j].gen == gen {
			vj = ent[j].val
		}
		vi := int32(i)
		if ent[i].gen == gen {
			vi = ent[i].val
		}
		dst[i] = int(vj)
		ent[j] = entry{vi, gen}
	}
	return dst
}

// WithReplacement returns k indices drawn independently and uniformly.
func (s *Sampler) WithReplacement(k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = s.sc.src.Intn(s.n)
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
		permInto(s.sc.src, s.perm)
	}
	if s.pos+k > s.n {
		// Reshuffle and restart the epoch; partial remainders are dropped so
		// every sample has exactly k elements.
		s.sc.src.shuffle(s.perm)
		s.pos = 0
	}
	out := s.perm[s.pos : s.pos+k]
	s.pos += k
	return out
}

// permInto fills m with a pseudo-random permutation of 0..len(m)-1 and
// leaves src exactly where rand.Perm(len(m)) would: the loop is
// math/rand's Perm verbatim, whose stream consumption (including the
// no-op i=0 iteration) Go 1 compatibility freezes.
func permInto(src *source, m []int) {
	for i := range m {
		j := src.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
}
