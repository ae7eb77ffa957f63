package service

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"fairrank/internal/dataset"
	"fairrank/internal/rank"
)

// DefaultCacheSize is the default entry capacity of the server's one LRU,
// which holds train results, sweep rows, counterfactual rows, audit
// bundles and baseline disparities alike.
const DefaultCacheSize = 1024

// Timeouts carries the per-endpoint request deadlines. A zero field means
// no deadline for that endpoint: the request runs until it finishes or the
// client disconnects (cancellation still propagates through the engine
// either way). fairrankd sets all five from flags.
type Timeouts struct {
	Train          time.Duration
	Evaluate       time.Duration
	Counterfactual time.Duration
	Report         time.Duration
	Explain        time.Duration
}

// Config parameterizes a Server. The zero value is usable: defaults are
// applied in New.
type Config struct {
	// CacheSize is the entry capacity of the response LRU (train results,
	// sweep rows, counterfactual rows, audit bundles and baseline
	// disparities share it); 0 means DefaultCacheSize, negative disables
	// caching.
	CacheSize int
	// TrainerPoolSize caps the idle trainers retained per dataset; 0 means
	// GOMAXPROCS. Live trainers (in-flight requests) are bounded at twice
	// this; beyond that, train requests are shed with 503.
	TrainerPoolSize int
	// MaxInFlight caps concurrently admitted /v1 requests; 0 means
	// DefaultMaxInFlight, negative disables admission control.
	MaxInFlight int
	// AdmitWait is how long an over-limit request queues for an admission
	// slot before being shed with 429; 0 means DefaultAdmitWait, negative
	// means shed immediately.
	AdmitWait time.Duration
	// BatchSize is the micro-batch size threshold: once this many
	// concurrent same-(dataset, bonus) requests have joined a window, the
	// batch flushes immediately. Zero leaves micro-batching disabled
	// unless BatchMaxWait is set (then DefaultBatchSize applies).
	BatchSize int
	// BatchMaxWait is the micro-batch window: the longest a request waits
	// for companions before its batch flushes regardless of size. Zero
	// leaves micro-batching disabled unless BatchSize is set (then
	// DefaultBatchWait applies).
	BatchMaxWait time.Duration
	// Timeouts are the per-endpoint deadlines; zero fields mean none.
	Timeouts Timeouts
}

// Server is the HTTP service state: the dataset registry, the result
// cache, the admission controller, and the start time for health
// reporting. Create one with New, Register datasets, call MarkReady, then
// mount Handler.
type Server struct {
	cfg   Config
	reg   *Registry
	cache *lruCache
	start time.Time

	// admit bounds in-flight /v1 requests; nil when admission control is
	// disabled (MaxInFlight < 0).
	admit *admission

	// ready flips once at startup (MarkReady, after registration);
	// draining flips once at shutdown (StartDrain). /readyz reports both;
	// the guard rejects new work with 503 while draining so a rolling
	// restart sheds cleanly even on kept-alive connections.
	ready    atomic.Bool
	draining atomic.Bool

	// panics counts handler panics converted to 500s by the recovery
	// middleware — a nonzero value means a bug survived to production,
	// but the process did not die for it.
	panics atomic.Int64

	// flights coalesces concurrent identical cold requests (train and
	// evaluate) into one pipeline execution.
	flights flightGroup

	// batch coalesces concurrent DISTINCT evaluate/counterfactual/report
	// requests that share a (dataset, bonus) pair into one core pass; nil
	// when micro-batching is disabled (neither BatchSize nor BatchMaxWait
	// set).
	batch *batcher

	// Execution counters observed by tests: how many times the cold train
	// pipeline, the cold sweep computation, the cold counterfactual batch,
	// and the cold audit-bundle build actually ran (coalesced and cached
	// requests don't count).
	trainExecs  atomic.Int64
	sweepExecs  atomic.Int64
	cfExecs     atomic.Int64
	reportExecs atomic.Int64
}

// New returns a Server with no datasets registered.
func New(cfg Config) *Server {
	size := cfg.CacheSize
	if size == 0 {
		size = DefaultCacheSize
	}
	pool := cfg.TrainerPoolSize
	if pool <= 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		cfg:   cfg,
		reg:   NewRegistry(pool),
		cache: newLRU(size),
		start: time.Now(),
	}
	if cfg.MaxInFlight >= 0 {
		max := cfg.MaxInFlight
		if max == 0 {
			max = DefaultMaxInFlight
		}
		wait := cfg.AdmitWait
		if wait == 0 {
			wait = DefaultAdmitWait
		}
		s.admit = newAdmission(max, wait)
	}
	if cfg.BatchSize > 0 || cfg.BatchMaxWait > 0 {
		bs := cfg.BatchSize
		if bs <= 0 {
			bs = DefaultBatchSize
		}
		bw := cfg.BatchMaxWait
		if bw <= 0 {
			bw = DefaultBatchWait
		}
		s.batch = newBatcher(bs, bw, func() { s.panics.Add(1) })
	}
	return s
}

// Register adds a dataset to the server under name. The polarity decides
// both the training direction and how bonus points enter evaluation. It
// fails on an empty or duplicate name and on datasets the trainer would
// reject (empty population, no fairness attributes).
func (s *Server) Register(name string, d *dataset.Dataset, scorer rank.Scorer, pol rank.Polarity) error {
	if d.N() == 0 {
		return fmt.Errorf("service: dataset %q is empty", name)
	}
	if d.NumFair() == 0 {
		return fmt.Errorf("service: dataset %q has no fairness attributes", name)
	}
	return s.reg.Register(name, d, scorer, pol)
}

// MarkReady declares registration complete: /readyz starts answering 200.
// Call it once, after the last Register.
func (s *Server) MarkReady() { s.ready.Store(true) }

// StartDrain begins a graceful shutdown: /readyz flips to 503 so load
// balancers stop routing here, and the guard rejects new /v1 work with
// 503 + Retry-After while requests already admitted run to completion.
// Pair it with http.Server.Shutdown, which waits for those in-flight
// requests.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// RankStats reports the combo-run merge statistics of the shared
// evaluator registered under name: run count g, the run-length spread,
// and the one-time partition + pre-sort cost. ok is false when the
// dataset is unknown or its evaluator declined the partition (too many
// distinct fairness combinations) and serves requests off the full-sort
// path instead.
func (s *Server) RankStats(name string) (rank.RunStats, bool) {
	e, ok := s.reg.Get(name)
	if !ok {
		return rank.RunStats{}, false
	}
	return e.eval.RunStats()
}

// guard is the per-endpoint resilience chain, outermost first: drain
// check (503 + Retry-After), admission (429 after AdmitWait), then the
// endpoint deadline. Handlers behind it see a context that dies when the
// client disconnects, the deadline passes, or the server shuts down —
// and the engine's cancellation checkpoints turn that into a freed
// worker within one checkpoint interval.
func (s *Server) guard(timeout time.Duration, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			writeHTTPError(w, r, errDraining)
			return
		}
		if s.admit != nil {
			if err := s.admit.acquire(r.Context()); err != nil {
				writeHTTPError(w, r, err)
				return
			}
			defer s.admit.release()
		}
		if timeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), timeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(w, r)
	}
}

// errDraining answers requests that arrive after StartDrain.
var errDraining = &httpError{
	status:     http.StatusServiceUnavailable,
	msg:        "server is draining",
	retryAfter: 1,
}

// recovered wraps the whole route table: a panicking handler answers 500
// and the process stays up. net/http would also swallow the panic, but
// only after killing that connection without a response; converting it
// here keeps the JSON error contract and feeds the panic counter.
func (s *Server) recovered(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler { //nolint:errorlint // sentinel, by contract
				panic(v)
			}
			s.panics.Add(1)
			// Best effort: if the handler already started its response the
			// status line is out and this write is dropped by net/http.
			writeError(w, http.StatusInternalServerError, "internal error")
		}()
		next.ServeHTTP(w, r)
	})
}

// Handler returns the route table. Method mismatches get 405 from the mux
// method patterns; everything under /v1 answers JSON. The /v1 endpoints
// sit behind guard (drain → admission → deadline); the health probes
// never do — a saturated or draining server must still answer them.
func (s *Server) Handler() http.Handler {
	t := s.cfg.Timeouts
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/train", s.guard(t.Train, s.handleTrain))
	mux.HandleFunc("POST /v1/evaluate", s.guard(t.Evaluate, s.handleEvaluate))
	mux.HandleFunc("POST /v1/counterfactual", s.guard(t.Counterfactual, s.handleCounterfactual))
	mux.HandleFunc("GET /v1/explain", s.guard(t.Explain, s.handleExplain))
	mux.HandleFunc("GET /v1/report", s.guard(t.Report, s.handleReport))
	mux.HandleFunc("GET /v1/datasets", s.handleDatasets)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	return s.recovered(mux)
}
