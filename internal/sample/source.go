package sample

import (
	"math"
	"math/rand"
)

// math/rand's generator is the additive lagged-Fibonacci recurrence
// x_n = x_{n-rngLen} + x_{n-rngTap} (mod 2^64).
const (
	rngLen = 607
	rngTap = 273
)

// source continues math/rand's seeded stream bit for bit, as a concrete
// type, so a train's draws read the generator directly instead of calling
// through the rand.Source interface once per value. It holds the stream
// in blocks: block is the next rngLen outputs x_b … x_{b+606} and pos the
// next one to hand out. refill advances the block in place by the same
// recurrence, so the stream needs no copy of math/rand's seeding table:
// Seed reseeds math/rand's own generator and reads its first block.
// source implements rand.Source64, so a *rand.Rand around it (Float64 for
// the initial bonus) stays in the same stream.
type source struct {
	block [rngLen]int64
	pos   int
	std   rand.Source64 // seeds block; reseeded in place, never reallocated
}

func newSource(seed int64) *source {
	s := &source{std: rand.NewSource(seed).(rand.Source64)}
	s.load()
	return s
}

// Seed restarts the stream exactly where rand.NewSource(seed) starts.
func (s *source) Seed(seed int64) {
	s.std.Seed(seed)
	s.load()
}

// load reads the first block from the freshly seeded std.
func (s *source) load() {
	for i := range s.block {
		s.block[i] = int64(s.std.Uint64())
	}
	s.pos = 0
}

// Uint64 is rand.Source64's Uint64: the next register value.
func (s *source) Uint64() uint64 {
	if i := s.pos; uint(i) < rngLen {
		s.pos = i + 1
		return uint64(s.block[i])
	}
	return s.refill()
}

// refill replaces block x_b … x_{b+606} with x_{b+607} … x_{b+1213}
// and hands out its first value: x_{b+607+i} = x_{b+i} + x_{b+334+i},
// where x_{b+334+i} is still in the old block for i < 273 and already in
// the new one after. It runs once per rngLen values, so it stays out of
// line, off the readers' fast path.
//
//go:noinline
func (s *source) refill() uint64 {
	b := &s.block
	for i := 0; i < rngTap; i++ {
		b[i] += b[i+rngLen-rngTap]
	}
	for i := rngTap; i < rngLen; i++ {
		b[i] += b[i-rngTap]
	}
	s.pos = 1
	return uint64(b[0])
}

// Int63 is rand.Source's Int63.
func (s *source) Int63() int64 { return int64(s.Uint64() & math.MaxInt64) }

// Intn is rand.(*Rand).Intn, stream for stream: Int31n's rejection
// sampling up to MaxInt32, Int63n's above. The remainder bound
// 2^31-1-(2^31 mod n) is at least 2^31-n, so a draw at or below
// 2^31-1-n is accepted without computing it.
func (s *source) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n > math.MaxInt32 {
		return int(s.int63n(int64(n)))
	}
	// The first draw reads the block itself: Uint64 does not fit the
	// inliner's budget, and this is the draw every sample index takes.
	var u uint64
	if i := s.pos; uint(i) < rngLen {
		s.pos = i + 1
		u = uint64(s.block[i])
	} else {
		u = s.refill()
	}
	v := int(u & math.MaxInt64 >> 32)
	if n&(n-1) == 0 {
		return v & (n - 1)
	}
	if v > math.MaxInt32-n {
		max := int(math.MaxInt32 - (1<<31)%uint32(n))
		for v > max {
			v = int(s.Int63() >> 32)
		}
	}
	return int(int32(v) % int32(n)) // Int31n's 32-bit division
}

// int63n is rand.(*Rand).Int63n for n > 0.
func (s *source) int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return s.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := s.Int63()
	for v > max {
		v = s.Int63()
	}
	return v % n
}

// int31n is math/rand's unexported Lemire reduction behind Shuffle,
// copied verbatim (Uint32 spelled out), for n > 0.
func (s *source) int31n(n int32) int32 {
	v := uint32(s.Int63() >> 31)
	prod := uint64(v) * uint64(n)
	low := uint32(prod)
	if low < uint32(n) {
		thresh := uint32(-n) % uint32(n)
		for low < thresh {
			v = uint32(s.Int63() >> 31)
			prod = uint64(v) * uint64(n)
			low = uint32(prod)
		}
	}
	return int32(prod >> 32)
}

// shuffle permutes m in place exactly as rand.(*Rand).Shuffle(len(m), swap)
// would, consuming the same stream.
func (s *source) shuffle(m []int) {
	i := len(m) - 1
	for ; i > 1<<31-1-1; i-- {
		j := int(s.int63n(int64(i + 1)))
		m[i], m[j] = m[j], m[i]
	}
	for ; i > 0; i-- {
		j := int(s.int31n(int32(i + 1)))
		m[i], m[j] = m[j], m[i]
	}
}
