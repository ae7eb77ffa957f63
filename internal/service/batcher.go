package service

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fairrank/internal/core"
	"fairrank/internal/faultinject"
)

// Cross-request micro-batching. Singleflight coalesces byte-identical
// requests; the batcher goes one step further and coalesces concurrent
// DISTINCT requests that share a (dataset, canonical bonus bits) pair —
// the exact sharing unit of the paper's additive design, under which any
// k, object list, or metric is answerable from one ranked pass. Requests
// joining a window wait for companions up to BatchMaxWait (or until
// BatchSize of them have gathered), then one core.AnswerBatchCtx pass
// sized to the batch's max-cut union answers everyone, and the answers
// fan out over per-caller channels. Each caller's response is
// byte-identical to the unbatched path; the cost per request drops with
// load instead of rising.

// DefaultBatchSize is the size threshold applied when batching is
// enabled (BatchMaxWait set) without an explicit BatchSize.
const DefaultBatchSize = 16

// DefaultBatchWait is the window applied when batching is enabled
// (BatchSize set) without an explicit BatchMaxWait. Two milliseconds is
// far below any ranked pass on a population worth batching, so the
// added latency is noise, while a concurrent burst lands well within it.
const DefaultBatchWait = 2 * time.Millisecond

// batcher collects concurrent same-bonus requests into windows and runs
// one shared pass per window. It sits UNDER the per-request cache probes
// and singleflight (only cache-missing work joins a window) and ABOVE
// the core entry point.
type batcher struct {
	size    int
	wait    time.Duration
	onPanic func()

	mu     sync.Mutex
	groups map[string]*batchGroup

	// Gauges for /healthz: windows flushed, member requests served
	// through a batch, and the high-water batch size.
	flushes atomic.Int64
	batched atomic.Int64
	largest atomic.Int64
}

func newBatcher(size int, wait time.Duration, onPanic func()) *batcher {
	return &batcher{size: size, wait: wait, onPanic: onPanic, groups: make(map[string]*batchGroup)}
}

// batchGroup is one open window: every call that joined, the entry and
// bonus they share, and the timer that flushes the window if the size
// threshold never arrives.
type batchGroup struct {
	key     string
	entry   *Entry
	bonus   []float64
	timer   *time.Timer
	calls   []*batchCall
	fired   bool // a size-threshold flush goroutine has been spawned
	flushed bool // a flush has claimed the group (idempotency latch)
}

type batchCall struct {
	ctx     context.Context
	queries []core.BatchQuery
	done    chan batchOutcome // buffered: a flush never blocks on a gone caller
}

type batchOutcome struct {
	answers []core.BatchAnswer
	err     error
}

// batchKey is the window identity: dataset plus the canonical bonus-bits
// signature — the same canonicalization the cache keys use, so "0" and
// an all-zero vector share a window just as they share cache rows.
func batchKey(dataset string, bonus []float64) string {
	b := make([]byte, 0, 64)
	b = append(b, "batch|"...)
	b = append(b, dataset...)
	b = append(b, '|')
	b = appendBonusSig(b, bonus)
	return string(b)
}

// stats snapshots the gauges plus the number of currently open windows.
func (b *batcher) stats() (flushes, batched, largest int64, windows int) {
	b.mu.Lock()
	windows = len(b.groups)
	b.mu.Unlock()
	return b.flushes.Load(), b.batched.Load(), b.largest.Load(), windows
}

// submit enqueues queries under the (dataset, bonus) window and blocks
// until the batch answers or the caller's own ctx dies. The returned
// answers are the caller's sub-range of the batch, in query order. A
// caller whose ctx dies mid-window returns its raw context error
// immediately (the handler maps it to 499/504) without stalling the
// window: the flush skips members whose context is already dead.
func (b *batcher) submit(ctx context.Context, e *Entry, bonus []float64, queries []core.BatchQuery) ([]core.BatchAnswer, error) {
	call := &batchCall{ctx: ctx, queries: queries, done: make(chan batchOutcome, 1)}
	key := batchKey(e.name, bonus)
	b.mu.Lock()
	g, ok := b.groups[key]
	if !ok {
		g = &batchGroup{key: key, entry: e, bonus: append([]float64(nil), bonus...)}
		b.groups[key] = g
		g.timer = time.AfterFunc(b.wait, func() { b.flush(g) })
	}
	g.calls = append(g.calls, call)
	trigger := !g.fired && len(g.calls) >= b.size
	if trigger {
		g.fired = true
	}
	b.mu.Unlock()
	if trigger {
		g.timer.Stop()
		go b.flush(g)
	}
	select {
	case out := <-call.done:
		return out.answers, out.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// flush claims the group (idempotent: the timer and the size trigger can
// both arrive), drops it from the window map so late arrivals open a new
// window, and runs one shared pass for every caller still listening.
func (b *batcher) flush(g *batchGroup) {
	b.mu.Lock()
	if g.flushed {
		b.mu.Unlock()
		return
	}
	g.flushed = true
	delete(b.groups, g.key)
	calls := g.calls
	b.mu.Unlock()

	live := make([]*batchCall, 0, len(calls))
	for _, c := range calls {
		if c.ctx.Err() != nil {
			continue // the caller already answered from its own context error
		}
		live = append(live, c)
	}
	if len(live) == 0 {
		return
	}
	b.flushes.Add(1)
	b.batched.Add(int64(len(live)))
	for {
		old := b.largest.Load()
		if int64(len(live)) <= old || b.largest.CompareAndSwap(old, int64(len(live))) {
			break
		}
	}
	g.entry.batchFlushes.Add(1)
	g.entry.batchedRequests.Add(int64(len(live)))

	// The pass runs under the BATCH's context, canceled only when every
	// member has gone: one caller's disconnect never poisons the answers
	// of the rest, while a fully abandoned batch stops at the engine's
	// next cancellation checkpoint instead of computing for nobody. The
	// watcher goroutines exit through finished once the pass returns.
	bctx, cancel := context.WithCancel(context.Background())
	finished := make(chan struct{})
	var gone atomic.Int64
	for _, c := range live {
		go func(c *batchCall) {
			select {
			case <-c.ctx.Done():
				if gone.Add(1) == int64(len(live)) {
					cancel()
				}
			case <-finished:
			}
		}(c)
	}

	answers, err := b.run(bctx, g, live)
	close(finished)
	cancel()

	off := 0
	for _, c := range live {
		out := batchOutcome{err: err}
		if err == nil {
			out.answers = answers[off : off+len(c.queries)]
		}
		off += len(c.queries)
		c.done <- out
	}
}

// run executes the shared pass behind a panic shield: a panic (injected
// at batcher.flush or real) is converted to the same 500 the recovery
// middleware answers, every waiter is released with it, and the panic
// counter ticks exactly once per batch. Nothing reaches any cache from
// here — members cache their own rows only after their submit returns
// success, so a failed batch leaves every member's keys cold.
func (b *batcher) run(ctx context.Context, g *batchGroup, live []*batchCall) (answers []core.BatchAnswer, err error) {
	defer func() {
		if v := recover(); v != nil {
			b.onPanic()
			answers, err = nil, errBatchPanic
		}
	}()
	if err := faultinject.Fire(ctx, faultinject.SiteBatcherFlush); err != nil {
		return nil, err
	}
	total := 0
	for _, c := range live {
		total += len(c.queries)
	}
	qs := make([]core.BatchQuery, 0, total)
	for _, c := range live {
		qs = append(qs, c.queries...)
	}
	return g.entry.plan(ctx, g.bonus, qs)
}

// errBatchPanic mirrors the recovery middleware's panic answer. Batch
// members wait on a channel rather than in the frame that panicked, so
// the conversion to a response happens here instead of in recovered.
var errBatchPanic = &httpError{status: http.StatusInternalServerError, msg: "internal error"}

func isZeroBonus(b []float64) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// answer runs one shared-bonus evaluation plan for a request: through the
// micro-batch window when one is configured and the bonus is non-zero,
// directly otherwise. A zero bonus is answered from the cached base order
// for free, so there is nothing to share. Every read endpoint and the
// post-train diagnostics come through here.
func (s *Server) answer(ctx context.Context, e *Entry, bonus []float64, qs []core.BatchQuery) ([]core.BatchAnswer, error) {
	if s.batch != nil && !isZeroBonus(bonus) {
		return s.batch.submit(ctx, e, bonus, qs)
	}
	return e.plan(ctx, bonus, qs)
}

// plan runs one plan on the entry's evaluator: the direct path of answer
// and a flushed batch window both end here.
func (e *Entry) plan(ctx context.Context, bonus []float64, qs []core.BatchQuery) ([]core.BatchAnswer, error) {
	return e.eval.AnswerBatchCtx(ctx, bonus, qs)
}

// sweep answers a sweep's missing points. Points that share one bonus are
// one plan, which rides the micro-batch window when one is configured;
// a multi-bonus sweep runs one plan per bonus group on the engine worker
// pool. Both resume the same prefix folds, so the rows are bit-identical
// either way, and a point's own failure fails the sweep in the same shape:
// missing-local point index plus fraction.
func (s *Server) sweep(ctx context.Context, e *Entry, spec metricSpec, pts []core.SweepPoint) ([][]float64, []float64, error) {
	for _, pt := range pts[1:] {
		if !slices.Equal(pts[0].Bonus, pt.Bonus) {
			return e.eval.SweepCtx(ctx, spec.kind, pts)
		}
	}
	qs := make([]core.BatchQuery, len(pts))
	for i, pt := range pts {
		qs[i] = core.BatchQuery{Kind: spec.kind, K: pt.K}
	}
	answers, err := s.answer(ctx, e, pts[0].Bonus, qs)
	if err != nil {
		return nil, nil, err
	}
	vecs, vals := make([][]float64, len(pts)), make([]float64, len(pts))
	for i, a := range answers {
		if a.Err != nil {
			return nil, nil, fmt.Errorf("core: sweep point %d (k=%g): %w", i, pts[i].K, a.Err)
		}
		vecs[i], vals[i] = a.Vector, a.Value
	}
	return vecs, vals, nil
}
