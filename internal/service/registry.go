package service

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"fairrank/internal/core"
	"fairrank/internal/dataset"
	"fairrank/internal/faultinject"
	"fairrank/internal/rank"
)

// Entry is one registered dataset with everything a request needs: the
// shared concurrent evaluator and a bounded pool of single-goroutine
// trainers.
type Entry struct {
	name string
	d    *dataset.Dataset
	pol  rank.Polarity

	// eval is safe for concurrent use (pooled workspaces, parallel
	// sweeps); every handler shares this one instance so the precomputed
	// base ranking and population centroid are paid once.
	eval *core.Evaluator

	// proto shares the evaluator's base scores; acquire clones it when
	// the idle pool is empty, so a burst of concurrent train requests
	// costs one workspace allocation each, never an O(n) rescore.
	proto *core.Trainer
	pool  chan *core.Trainer

	// live is the in-flight trainer token table (liveTrainerCap).
	// acquire takes a token before handing out a trainer (pooled or
	// cloned), so the total number of live trainers per dataset — and
	// with it the clone fallback's memory — is bounded; beyond the cap,
	// requests are shed with 503 instead of cloning without limit.
	live chan struct{}

	// batchFlushes counts the micro-batches flushed for this dataset and
	// batchedRequests the member requests they served; both stay zero
	// unless the server enabled micro-batching. Surfaced in the
	// /v1/datasets rank_stats block next to the ranking counters, so the
	// coalesce ratio (batchedRequests / batchFlushes) is observable per
	// dataset.
	batchFlushes    atomic.Int64
	batchedRequests atomic.Int64
}

// minLiveTrainers floors the live-trainer cap. The cap exists to stop a
// request storm from cloning trainers (each an O(n) workspace) without
// limit, not to serialize modest concurrency: on a small-GOMAXPROCS box
// 2×poolSize would shed a handful of concurrent distinct what-if
// queries that the box can happily interleave.
const minLiveTrainers = 16

// liveTrainerCap is the per-dataset bound on concurrently-out trainers:
// 2×poolSize, floored at minLiveTrainers.
func liveTrainerCap(poolSize int) int {
	if c := 2 * poolSize; c > minLiveTrainers {
		return c
	}
	return minLiveTrainers
}

// Name returns the registry key.
func (e *Entry) Name() string { return e.name }

// Dataset returns the registered dataset.
func (e *Entry) Dataset() *dataset.Dataset { return e.d }

// Polarity returns the registered selection polarity.
func (e *Entry) Polarity() rank.Polarity { return e.pol }

// Evaluator returns the shared concurrent evaluator.
func (e *Entry) Evaluator() *core.Evaluator { return e.eval }

// errTrainersBusy is the answer when a dataset's live-trainer table is
// full: every pooled trainer and every allowed clone is mid-train.
// Transient — a train finishes within one deadline — hence Retry-After.
var errTrainersBusy = &httpError{
	status:     http.StatusServiceUnavailable,
	msg:        "all trainers busy; retry shortly",
	retryAfter: 1,
}

// acquire hands out a trainer for exclusive use; pair with release. The
// idle pool answers first; when it is empty the prototype is cloned, but
// only while a live token is available — at most liveTrainerCap trainers
// exist at once, and requests beyond that are shed with errTrainersBusy
// rather than cloning unboundedly under a request storm.
func (e *Entry) acquire(ctx context.Context) (*core.Trainer, error) {
	if err := faultinject.Fire(ctx, faultinject.SiteTrainerAcquire); err != nil {
		return nil, err
	}
	select {
	case e.live <- struct{}{}:
	default:
		return nil, errTrainersBusy
	}
	select {
	case t := <-e.pool:
		return t, nil
	default:
		return e.proto.Clone(), nil
	}
}

// release returns a trainer to the idle pool, dropping it when the pool
// is full (the workspace is garbage; base scores are shared with proto),
// and frees the live token taken by acquire.
func (e *Entry) release(t *core.Trainer) {
	select {
	case e.pool <- t:
	default:
	}
	<-e.live
}

// Registry maps dataset names to entries. Registration happens at startup
// (or under test setup); lookups are concurrent.
type Registry struct {
	poolSize int

	mu      sync.RWMutex
	entries map[string]*Entry
	order   []string // registration order, for stable listings
}

// NewRegistry returns an empty registry whose entries retain at most
// poolSize idle trainers each.
func NewRegistry(poolSize int) *Registry {
	if poolSize < 1 {
		poolSize = 1
	}
	return &Registry{poolSize: poolSize, entries: make(map[string]*Entry)}
}

// Register adds a dataset under name, building its evaluator and trainer
// prototype. Empty and duplicate names are rejected.
func (r *Registry) Register(name string, d *dataset.Dataset, scorer rank.Scorer, pol rank.Polarity) error {
	if name == "" {
		return fmt.Errorf("service: empty dataset name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; ok {
		return fmt.Errorf("service: dataset %q already registered", name)
	}
	eval := core.NewEvaluator(d, scorer, pol)
	r.entries[name] = &Entry{
		name:  name,
		d:     d,
		pol:   pol,
		eval:  eval,
		proto: eval.NewTrainer(),
		pool:  make(chan *core.Trainer, r.poolSize),
		live:  make(chan struct{}, liveTrainerCap(r.poolSize)),
	}
	r.order = append(r.order, name)
	return nil
}

// Get returns the entry registered under name.
func (r *Registry) Get(name string) (*Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e, ok
}

// Entries returns all entries in registration order.
func (r *Registry) Entries() []*Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Entry, 0, len(r.order))
	for _, n := range r.order {
		out = append(out, r.entries[n])
	}
	return out
}

// Len reports the number of registered datasets.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}
