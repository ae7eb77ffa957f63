package sample

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// The ring a schedule draws into: a chunk holds chunkSamples samples and
// ringChunks chunks circulate, so a prefetching helper runs up to two
// chunks ahead of the step reading the third, and the per-chunk channel
// hand-off is amortized over chunkSamples steps.
const (
	chunkSamples = 8
	ringChunks   = 3
)

// inFlight counts schedules between Schedule and Release: the trains in
// flight that the prefetch rule weighs against GOMAXPROCS.
var inFlight atomic.Int64

// Schedule is the sample sequence of one DCA run, in step order: uniform
// draws of k distinct indices (UniformInto, Algorithm 1's ladder), then
// epoch draws (Next, Algorithm 2's refinement). It reads only the
// sampler's seeded stream, never the bonus vector, so it can be drawn
// ahead of the descent: while (trains in flight) × 2 ≤ GOMAXPROCS a
// helper goroutine fills a small ring one chunk ahead of the steps;
// otherwise the consumer fills the same chunks inline. Either way every
// step gets the same draw, bit for bit. The ring (ringChunks ×
// chunkSamples × k indices) is the sampler's scratch ring.
type Schedule struct {
	s       *Sampler // nil when no schedule is active
	k       int
	uniform int // draws [0, uniform) are uniform, [uniform, total) epoch
	total   int

	chunk    int // next chunk to read
	slot     int // ring slot of the chunk being read; -1 before the first
	off, end int // ring range of the samples left in the chunk being read

	// Prefetch hand-off; nil when drawing inline.
	full, free chan int
	quit, done chan struct{}
}

// Schedule starts the sampler's schedule of uniform draws followed by
// epoch draws of k indices each. A sampler runs one schedule, which its
// Release ends: Schedule panics if one is already running, or if k > n.
func (s *Sampler) Schedule(k, uniform, epoch int) *Schedule {
	if k > s.n {
		panic(fmt.Sprintf("sample: requested %d of %d", k, s.n))
	}
	q := &s.sched
	if q.s != nil {
		panic("sample: sampler already runs a schedule")
	}
	if size := ringChunks * chunkSamples * k; cap(s.sc.ring) < size {
		s.sc.ring = make([]int, size)
	}
	*q = Schedule{s: s, k: k, uniform: uniform, total: uniform + epoch, slot: -1}
	chunks := (q.total + chunkSamples - 1) / chunkSamples
	if 2*inFlight.Add(1) <= int64(runtime.GOMAXPROCS(0)) && chunks > 0 {
		// Both buffers hold every ring slot, so neither side's send can
		// block: only ringChunks slots ever circulate.
		q.full, q.free = make(chan int, ringChunks), make(chan int, ringChunks)
		q.quit, q.done = make(chan struct{}), make(chan struct{})
		for slot := 0; slot < ringChunks; slot++ {
			q.free <- slot
		}
		go q.prefetch(chunks)
	}
	return q
}

// Next returns the schedule's next sample. The slice is valid until the
// following call or the sampler's Release. It panics past the end of the
// schedule.
func (q *Schedule) Next() []int {
	if q.off == q.end {
		q.advance()
	}
	out := q.s.sc.ring[q.off : q.off+q.k]
	q.off += q.k
	return out
}

// advance moves the reader to the next chunk: filled inline into slot 0,
// or received from the helper after handing the finished slot back.
func (q *Schedule) advance() {
	c := q.chunk
	if c*chunkSamples >= q.total {
		panic("sample: schedule exhausted")
	}
	q.chunk++
	slot := 0
	if q.full == nil {
		q.fill(slot, c)
	} else {
		if q.slot >= 0 {
			q.free <- q.slot
		}
		slot = <-q.full
		q.slot = slot
	}
	q.off = slot * chunkSamples * q.k
	q.end = q.off + (min((c+1)*chunkSamples, q.total)-c*chunkSamples)*q.k
}

// fill draws chunk c of the schedule into ring slot slot. It is the only
// code that touches the sampler's stream once the schedule has started.
func (q *Schedule) fill(slot, c int) {
	off := slot * chunkSamples * q.k
	for i := c * chunkSamples; i < min((c+1)*chunkSamples, q.total); i++ {
		dst := q.s.sc.ring[off : off+q.k]
		if i < q.uniform {
			q.s.UniformInto(dst)
		} else {
			copy(dst, q.s.Next(q.k))
		}
		off += q.k
	}
}

// prefetch is the helper goroutine: it fills each of the schedule's
// chunks into a free ring slot, in order, until done or told to quit.
func (q *Schedule) prefetch(chunks int) {
	defer close(q.done)
	for c := 0; c < chunks; c++ {
		select {
		case slot := <-q.free:
			q.fill(slot, c)
			q.full <- slot
		case <-q.quit:
			return
		}
	}
}

// stop ends an active schedule, waiting for its helper to exit.
func (q *Schedule) stop() {
	if q.s == nil {
		return
	}
	if q.quit != nil {
		close(q.quit)
		<-q.done
	}
	inFlight.Add(-1)
	*q = Schedule{}
}
