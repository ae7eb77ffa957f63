package sample

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func TestUniformDistinctAndInRange(t *testing.T) {
	f := func(seed int64) bool {
		s := New(100, seed)
		idx := s.Uniform(30)
		if len(idx) != 30 {
			return false
		}
		seen := make(map[int]bool)
		for _, i := range idx {
			if i < 0 || i >= 100 || seen[i] {
				return false
			}
			seen[i] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUniformFullPopulation(t *testing.T) {
	s := New(10, 1)
	idx := s.Uniform(10)
	seen := make(map[int]bool)
	for _, i := range idx {
		seen[i] = true
	}
	if len(seen) != 10 {
		t.Errorf("Uniform(n) covered %d of 10", len(seen))
	}
}

func TestUniformIsApproximatelyUniform(t *testing.T) {
	s := New(10, 7)
	counts := make([]int, 10)
	const trials = 20000
	for i := 0; i < trials; i++ {
		for _, v := range s.Uniform(3) {
			counts[v]++
		}
	}
	// Every index should be hit about trials*3/10 = 6000 times.
	for i, c := range counts {
		if c < 5500 || c > 6500 {
			t.Errorf("index %d drawn %d times, want ≈ 6000", i, c)
		}
	}
}

func TestUniformPanicsWhenOversampling(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic when k > n")
		}
	}()
	New(5, 1).Uniform(6)
}

func TestWithReplacement(t *testing.T) {
	s := New(3, 2)
	idx := s.WithReplacement(1000)
	if len(idx) != 1000 {
		t.Fatalf("got %d indices", len(idx))
	}
	for _, i := range idx {
		if i < 0 || i >= 3 {
			t.Fatalf("index %d out of range", i)
		}
	}
}

func TestNextCoversEpoch(t *testing.T) {
	s := New(12, 3)
	seen := make(map[int]int)
	// Exactly one epoch: 4 samples of 3.
	for b := 0; b < 4; b++ {
		for _, i := range s.Next(3) {
			seen[i]++
		}
	}
	if len(seen) != 12 {
		t.Fatalf("epoch covered %d of 12", len(seen))
	}
	for i, c := range seen {
		if c != 1 {
			t.Errorf("index %d visited %d times within one epoch", i, c)
		}
	}
}

func TestNextReshufflesOnPartialRemainder(t *testing.T) {
	s := New(10, 4)
	// Samples of 3: positions 0-2, 3-5, 6-8, then a reshuffle (remainder 1
	// is dropped). No panic, always size 3.
	for b := 0; b < 20; b++ {
		if got := s.Next(3); len(got) != 3 {
			t.Fatalf("sample %d has size %d", b, len(got))
		}
	}
}

func TestDeterminismBySeed(t *testing.T) {
	a := New(50, 9)
	b := New(50, 9)
	for i := 0; i < 5; i++ {
		x := a.Uniform(7)
		y := b.Uniform(7)
		for j := range x {
			if x[j] != y[j] {
				t.Fatalf("same seed diverged at draw %d: %v vs %v", i, x, y)
			}
		}
	}
	c := New(50, 10)
	diverged := false
	for i := 0; i < 5 && !diverged; i++ {
		x := a.Uniform(7)
		z := c.Uniform(7)
		for j := range x {
			if x[j] != z[j] {
				diverged = true
				break
			}
		}
	}
	if !diverged {
		t.Error("different seeds produced identical draws")
	}
}

func TestNextPanicsWhenOversampling(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic when k > n")
		}
	}()
	New(2, 1).Next(3)
}

// TestUniformIntoGenerationWrap forces the displacement table's
// generation stamp to wrap and checks that stale entries from before the
// wrap cannot collide with fresh ones. Before the wrap was handled, the
// counter re-entered stamp values still present in the table from early
// draws, so a stale displaced index could masquerade as fresh state and
// inject a duplicate into the sample. The draw stream must also stay
// identical to a sampler that never wrapped: the stamp is bookkeeping,
// not randomness.
func TestUniformIntoGenerationWrap(t *testing.T) {
	const n, k = 64, 48
	s := New(n, 99)
	ref := New(n, 99)
	dst, refDst := make([]int, k), make([]int, k)
	// One draw to allocate the displacement table.
	s.UniformInto(dst)
	ref.UniformInto(refDst)
	tab := &s.sc.tab
	// Poison every slot with exactly the stamp the counter hands out right
	// after wrapping (1), all displacing to index 0: if the wrap does not
	// invalidate the table, every lookup resolves to the stale 0 and the
	// draw collapses into duplicates.
	poison(tab, 1)
	// Jump the counter to the edge: the next draw wraps to 0 and restarts
	// at 1 — colliding with the poisoned stamps unless the wrap path
	// clears them.
	tab.cur = ^uint32(0)
	for draw := 0; draw < 4; draw++ {
		checkDraw(t, fmt.Sprintf("draw %d across the wrap", draw), s.UniformInto(dst), ref.UniformInto(refDst), n)
	}
	// The wrap draw restarts the counter at 1; three more draws follow.
	if tab.cur != 4 {
		t.Errorf("post-wrap generation = %d, want 4", tab.cur)
	}
}

// TestTableHandOff passes one displacement table between samplers of
// different sizes and seeds, as the pool does between trains: entries a
// previous owner stamped must never leak into the next owner's draws,
// whether the table is reused as is, grown, or wraps on the hand-off.
func TestTableHandOff(t *testing.T) {
	const k = 40
	a := New(200, 5)
	a.UniformInto(make([]int, k))
	tab := a.sc.tab
	for _, tc := range []struct {
		name string
		n    int
		cur  uint32 // 0 keeps the counter the previous owner left
	}{
		{"smaller population", 64, 0},
		{"same population", 200, 0},
		{"grown population", 500, 0},
		{"wrap on hand-off", 150, ^uint32(0)},
	} {
		b, ref := New(tc.n, 11), New(tc.n, 11)
		// Every stamp the previous owner could have left is live-looking
		// and displaces to index 0.
		poison(&tab, tab.cur)
		if tc.cur != 0 {
			poison(&tab, 1)
			tab.cur = tc.cur
		}
		b.sc.tab = tab
		dst, refDst := make([]int, k), make([]int, k)
		for draw := 0; draw < 3; draw++ {
			checkDraw(t, fmt.Sprintf("%s: draw %d", tc.name, draw), b.UniformInto(dst), ref.UniformInto(refDst), tc.n)
		}
		tab = b.sc.tab
		if len(tab.ent) < tc.n {
			t.Fatalf("%s: table holds %d slots for a population of %d", tc.name, len(tab.ent), tc.n)
		}
	}
}

// poison stamps every table slot with stamp, displacing to index 0.
func poison(tab *table, stamp uint32) {
	for i := range tab.ent {
		tab.ent[i] = entry{val: 0, gen: stamp}
	}
}

// checkDraw fails unless got is a duplicate-free in-range draw equal to
// the reference sampler's.
func checkDraw(t *testing.T, what string, got, want []int, n int) {
	t.Helper()
	seen := make(map[int]bool, len(got))
	for _, v := range got {
		if v < 0 || v >= n || seen[v] {
			t.Fatalf("%s: invalid or duplicate index %d in %v", what, v, got)
		}
		seen[v] = true
	}
	if !slices.Equal(got, want) {
		t.Errorf("%s: the table changed the sampled stream:\n got %v\nwant %v", what, got, want)
	}
}

// oldNext is the epoch iterator as it was before permInto: the first
// epoch comes from rand.Perm, reshuffles from rand.Shuffle.
type oldNext struct {
	rng  *rand.Rand
	perm []int
	pos  int
}

func (o *oldNext) next(n, k int) []int {
	if o.perm == nil {
		o.perm = o.rng.Perm(n)
	}
	if o.pos+k > n {
		o.rng.Shuffle(n, func(i, j int) { o.perm[i], o.perm[j] = o.perm[j], o.perm[i] })
		o.pos = 0
	}
	out := o.perm[o.pos : o.pos+k]
	o.pos += k
	return out
}

// TestNextMatchesRandPerm pins permInto to math/rand's Perm: the epochs
// Next hands out, across reshuffles, and the generator state afterwards
// are exactly those of rand.Perm followed by the same Shuffle calls.
func TestNextMatchesRandPerm(t *testing.T) {
	for _, n := range []int{1, 2, 7, 1023, 80000} {
		for _, seed := range []int64{1, 2, 42, -7, 1 << 40} {
			s := New(n, seed)
			ref := &oldNext{rng: rand.New(rand.NewSource(seed))}
			for _, k := range []int{1, (n + 1) / 2, n, max(1, n/3), 1} {
				for step := 0; step < 5; step++ {
					if got, want := s.Next(k), ref.next(n, k); !slices.Equal(got, want) {
						t.Fatalf("n=%d seed=%d k=%d step %d: Next diverged from rand.Perm", n, seed, k, step)
					}
				}
			}
			if got, want := s.Rand().Int63(), ref.rng.Int63(); got != want {
				t.Errorf("n=%d seed=%d: stream after the epochs %d, want %d", n, seed, got, want)
			}
		}
	}
}

// drawSchedule drains a fresh schedule of uniform then epoch draws.
func drawSchedule(n int, seed int64, k, uniform, epoch int) [][]int {
	s := Acquire(n, seed)
	defer s.Release()
	q := s.Schedule(k, uniform, epoch)
	out := make([][]int, 0, uniform+epoch)
	for i := 0; i < uniform+epoch; i++ {
		out = append(out, slices.Clone(q.Next()))
	}
	return out
}

// TestScheduleMatchesSampler pins the schedule, prefetched and inline, to
// the sampler calls it replaces: UniformInto for the uniform draws, then
// Next, in order, from the same seed.
func TestScheduleMatchesSampler(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct{ n, k, uniform, epoch int }{
		{1000, 50, 200, 100}, // epoch draws reshuffle
		{64, 64, 3, 5},       // whole-population samples
		{500, 7, 0, 19},      // epoch only, partial last chunk
		{500, 7, 13, 0},      // uniform only
		{10, 3, 8, 8},        // exactly one chunk each
	} {
		for _, seed := range []int64{1, 9, 123} {
			ref := New(tc.n, seed)
			var want [][]int
			for i := 0; i < tc.uniform; i++ {
				want = append(want, ref.Uniform(tc.k))
			}
			for i := 0; i < tc.epoch; i++ {
				want = append(want, slices.Clone(ref.Next(tc.k)))
			}
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				got := drawSchedule(tc.n, seed, tc.k, tc.uniform, tc.epoch)
				if len(got) != len(want) {
					t.Fatalf("%+v seed %d procs %d: %d samples, want %d", tc, seed, procs, len(got), len(want))
				}
				for i := range want {
					if !slices.Equal(got[i], want[i]) {
						t.Fatalf("%+v seed %d procs %d: sample %d = %v, want %v", tc, seed, procs, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestSchedulePrefetchRule pins the in-flight rule and the helper's
// lifetime: a schedule prefetches only while twice the schedules in
// flight fit in GOMAXPROCS, and Release returns only after its helper
// has exited, also when the schedule was abandoned part-way.
func TestSchedulePrefetchRule(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var samplers []*Sampler
	var done []chan struct{}
	for i, want := range []bool{true, true, false} { // the third draws inline
		s := Acquire(1000, int64(i+1))
		q := s.Schedule(10, 100, 100)
		if got := q.full != nil; got != want {
			t.Fatalf("schedule %d of %d in flight on 4 procs: prefetched = %v, want %v", i+1, i+1, got, want)
		}
		samplers, done = append(samplers, s), append(done, q.done)
		if i != 1 { // leave one schedule unread
			for j := 0; j < 50; j++ {
				q.Next()
			}
		}
	}
	for i, s := range samplers {
		s.Release()
		if done[i] == nil {
			continue
		}
		select {
		case <-done[i]:
		default:
			t.Fatalf("schedule %d: Release returned before its helper exited", i+1)
		}
	}
	if n := inFlight.Load(); n != 0 {
		t.Fatalf("after Release: %d schedules in flight, want 0", n)
	}
}

// TestScheduleTwice: a sampler runs one schedule; starting a second
// while the first runs is a bug, not a silent restart.
func TestScheduleTwice(t *testing.T) {
	s := Acquire(100, 1)
	defer s.Release()
	s.Schedule(5, 2, 1)
	defer func() {
		if recover() == nil {
			t.Error("a second Schedule on a running sampler did not panic")
		}
	}()
	s.Schedule(5, 2, 1)
}

// TestScheduleExhausted: reading past the end is a bug, not a deadlock.
func TestScheduleExhausted(t *testing.T) {
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			s := Acquire(100, 1)
			defer s.Release()
			q := s.Schedule(5, 2, 1)
			for i := 0; i < 3; i++ {
				q.Next()
			}
			defer func() {
				if recover() == nil {
					t.Errorf("procs %d: reading past the schedule did not panic", procs)
				}
			}()
			q.Next()
		}()
	}
}

// refUniform is Uniform as first written, verbatim: a map-based partial
// Fisher-Yates shuffle over math/rand. It pins UniformInto's table and
// inlined generator to the stream math/rand itself would draw.
func refUniform(rng *rand.Rand, n, k int) []int {
	displaced := make(map[int]int, 2*k)
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		vj, ok := displaced[j]
		if !ok {
			vj = j
		}
		vi, ok := displaced[i]
		if !ok {
			vi = i
		}
		out[i] = vj
		displaced[j] = vi
		displaced[i] = vj
	}
	return out
}

// TestUniformMatchesMathRand draws with UniformInto and with refUniform
// over rand.New(rand.NewSource(seed)) from the same seeds, across
// several register refills, and requires the same samples and the same
// generator state afterwards.
func TestUniformMatchesMathRand(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 64, 1000, 1 << 12, 65536, 80000} {
		for _, seed := range []int64{0, 1, 42, -1, -7, -1 << 40, 1 << 40} {
			s := New(n, seed)
			rng := rand.New(rand.NewSource(seed))
			for _, k := range []int{1, min(n, 500), n, max(1, n/3)} {
				for draw := 0; draw < 3; draw++ {
					if got, want := s.UniformInto(make([]int, k)), refUniform(rng, n, k); !slices.Equal(got, want) {
						t.Fatalf("n=%d seed=%d k=%d draw %d: UniformInto diverged from math/rand", n, seed, k, draw)
					}
				}
			}
			if got, want := s.Rand().Int63(), rng.Int63(); got != want {
				t.Errorf("n=%d seed=%d: stream after the draws %d, want %d", n, seed, got, want)
			}
		}
	}
}

// TestIntnMatchesMathRand pins the source's Intn to rand.Intn where its
// shortcuts matter: bounds that reject about half the draws (1<<30+1),
// the largest Int31n bound, and bounds past it that take Int63n.
func TestIntnMatchesMathRand(t *testing.T) {
	for _, n := range []int{1, 2, 3, 1<<30 + 1, 1<<31 - 1, 1 << 31, 1<<31 + 5, 1<<62 + 1} {
		for _, seed := range []int64{1, -3, 1 << 40} {
			src, rng := newSource(seed), rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				if got, want := src.Intn(n), rng.Intn(n); got != want {
					t.Fatalf("n=%d seed=%d draw %d: Intn = %d, want %d", n, seed, i, got, want)
				}
			}
			if got, want := src.Int63(), rng.Int63(); got != want {
				t.Errorf("n=%d seed=%d: stream after the draws %d, want %d", n, seed, got, want)
			}
		}
	}
}

// FuzzStream interleaves Intn, Int63, Float64, Shuffle and Perm, in an
// order and with bounds read from the fuzz input, on the inlined source
// and on math/rand from the same seed, and fails at the first value, or
// permutation, where they part.
func FuzzStream(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4})
	f.Add(int64(-5), []byte{3, 0xff, 0xff, 0xff, 0x7f, 4, 0x10, 0x27, 0, 0})
	f.Add(int64(1<<40), []byte{0, 0x01, 0, 0, 0x40, 0, 0, 0, 0, 2, 2, 2, 3, 0xe8, 0x03})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		src := newSource(seed)
		got, want := rand.New(src), rand.New(rand.NewSource(seed))
		for len(ops) > 0 {
			op := ops[0] % 5
			ops = ops[1:]
			// The bound, little-endian: eight bytes for Intn, so both
			// sides of MaxInt32 and of each shortcut are reachable; two
			// for Shuffle and Perm lengths.
			width := 0
			switch op {
			case 0:
				width = 8
			case 3, 4:
				width = 2
			}
			var n uint64
			for i := 0; i < width && len(ops) > 0; i++ {
				n |= uint64(ops[0]) << (8 * i)
				ops = ops[1:]
			}
			switch op {
			case 0:
				n = max(1, n&math.MaxInt64)
				if g, w := src.Intn(int(n)), want.Intn(int(n)); g != w {
					t.Fatalf("Intn(%d) = %d, want %d", n, g, w)
				}
			case 1:
				if g, w := src.Int63(), want.Int63(); g != w {
					t.Fatalf("Int63 = %d, want %d", g, w)
				}
			case 2:
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("Float64 = %v, want %v", g, w)
				}
			case 3:
				g, w := make([]int, n), make([]int, n)
				for i := range g {
					g[i], w[i] = i, i
				}
				src.shuffle(g)
				want.Shuffle(len(w), func(i, j int) { w[i], w[j] = w[j], w[i] })
				if !slices.Equal(g, w) {
					t.Fatalf("Shuffle(%d) diverged", n)
				}
			case 4:
				g := make([]int, n)
				permInto(src, g)
				if w := want.Perm(int(n)); !slices.Equal(g, w) {
					t.Fatalf("Perm(%d) diverged", n)
				}
			}
		}
		if g, w := src.Int63(), want.Int63(); g != w {
			t.Fatalf("stream after the ops %d, want %d", g, w)
		}
	})
}

// TestScheduleRingBudget pins the ring's size in indices: one ring
// (ringIndices), or one sample when a sample is larger, whatever the
// sample size, up to the whole population.
func TestScheduleRingBudget(t *testing.T) {
	const n = 80000
	for _, k := range []int{1, 500, n} {
		s := New(n, 1)
		q := s.Schedule(k, 2, 2)
		if got, budget := cap(s.sc.ring), max(ringIndices, k); got > budget {
			t.Errorf("k=%d: ring holds %d indices, budget %d", k, got, budget)
		}
		if q.per < 1 || q.slots < 1 {
			t.Errorf("k=%d: %d samples per chunk, %d chunks", k, q.per, q.slots)
		}
		s.Release()
	}
}

// TestScheduleMatchesSamplerWholePopulation runs TestScheduleMatchesSampler's
// check at k = n: a population whose ring holds two one-sample chunks,
// prefetched on 4 procs, and one whose ring holds a single sample, drawn
// inline on any number of procs.
func TestScheduleMatchesSamplerWholePopulation(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		n          int
		prefetched bool
	}{{ringIndices / 2, true}, {ringIndices + 1, false}} {
		const uniform, epoch, seed = 3, 4, 5
		ref := New(tc.n, seed)
		var want [][]int
		for i := 0; i < uniform; i++ {
			want = append(want, ref.Uniform(tc.n))
		}
		for i := 0; i < epoch; i++ {
			want = append(want, slices.Clone(ref.Next(tc.n)))
		}
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			s := Acquire(tc.n, seed)
			q := s.Schedule(tc.n, uniform, epoch)
			if got := q.full != nil; got != (tc.prefetched && procs == 4) {
				t.Errorf("n=k=%d procs %d: prefetched = %v", tc.n, procs, got)
			}
			for i := range want {
				if got := q.Next(); !slices.Equal(got, want[i]) {
					t.Fatalf("n=k=%d procs %d: sample %d differs from the sampler's", tc.n, procs, i)
				}
			}
			s.Release()
		}
	}
}

// BenchmarkScheduleDraw80k draws one default train's schedule inline:
// 200 uniform draws and 100 epoch draws of 500 over an 80k population,
// the stream a k = 0.05 school train consumes.
func BenchmarkScheduleDraw80k(b *testing.B) {
	const n, k, uniform, epoch = 80000, 500, 200, 100
	dst := make([]int, k)
	seed := int64(0)
	b.ReportAllocs()
	for b.Loop() {
		seed++
		s := Acquire(n, seed)
		for j := 0; j < uniform; j++ {
			s.UniformInto(dst)
		}
		for j := 0; j < epoch; j++ {
			s.Next(k)
		}
		s.Release()
	}
}
