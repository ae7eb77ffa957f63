package sample

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// The ring a schedule draws into is sized in indices, not samples, so a
// large sample size cannot pin a large ring in the pool: it holds
// ringIndices indices, or one sample when a sample is larger. A chunk
// holds chunkIndices/k samples, at least one, so the channel hand-off is
// amortized over its samples. A prefetching helper fills chunks up to
// the ring's end ahead of the step reading: at the default k = 500 the
// ring holds 12 chunks of 8 samples, so the helper can bank up to 88
// steps of lead during the uniform draws and spend it on the epoch
// permutation (80,000 draws on the school cohort) that follows them. A
// ring that fits fewer than two chunks is drawn inline.
const (
	chunkIndices = 4096
	ringIndices  = 12 * chunkIndices
)

// inFlight counts schedules between Schedule and Release: the trains in
// flight that the prefetch rule weighs against GOMAXPROCS.
var inFlight atomic.Int64

// Schedule is the sample sequence of one DCA run, in step order: uniform
// draws of k distinct indices (UniformInto, Algorithm 1's ladder), then
// epoch draws (Next, Algorithm 2's refinement). It reads only the
// sampler's seeded stream, never the bonus vector, so it can be drawn
// ahead of the descent: while (trains in flight) × 2 ≤ GOMAXPROCS a
// helper goroutine fills a ring of chunks ahead of the steps; otherwise
// the consumer fills the same chunks inline. Either way every step gets
// the same draw, bit for bit. The ring (slots × per × k indices) is the
// sampler's scratch ring.
type Schedule struct {
	s       *Sampler // nil when no schedule is active
	k       int
	uniform int // draws [0, uniform) are uniform, [uniform, total) epoch
	total   int
	per     int // samples per chunk
	slots   int // chunks in the ring

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
	per := max(1, chunkIndices/max(k, 1))
	slots := max(1, ringIndices/(per*max(k, 1)))
	if size := slots * per * k; cap(s.sc.ring) < size {
		s.sc.ring = make([]int, size)
	}
	*q = Schedule{s: s, k: k, uniform: uniform, total: uniform + epoch, per: per, slots: slots, slot: -1}
	chunks := (q.total + per - 1) / per
	if 2*inFlight.Add(1) <= int64(runtime.GOMAXPROCS(0)) && chunks > 0 && slots > 1 {
		// Both buffers hold every ring slot, so neither side's send can
		// block: only slots chunks ever circulate.
		q.full, q.free = make(chan int, slots), make(chan int, slots)
		q.quit, q.done = make(chan struct{}), make(chan struct{})
		for slot := 0; slot < slots; slot++ {
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
	if c*q.per >= q.total {
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
	q.off = slot * q.per * q.k
	q.end = q.off + (min((c+1)*q.per, q.total)-c*q.per)*q.k
}

// fill draws chunk c of the schedule into ring slot slot. It is the only
// code that touches the sampler's stream once the schedule has started.
func (q *Schedule) fill(slot, c int) {
	off := slot * q.per * q.k
	for i := c * q.per; i < min((c+1)*q.per, q.total); i++ {
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
