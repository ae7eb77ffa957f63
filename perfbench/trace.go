package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"time"
)

// tracer holds the traced run's spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	ids   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// reserve allocates a span id before the span ends, so children recorded
// first can name it as their parent.
func (t *tracer) reserve() int {
	t.ids++
	return t.ids
}

// finish records span id as running from start until now.
func (t *tracer) finish(id, op, parent int, name string, start time.Time, count int64) {
	end := time.Now()
	t.spans = append(t.spans, span{
		Op: op, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Count: count,
	})
}

// record is reserve plus finish. A nil tracer records nothing.
func (t *tracer) record(op, parent int, name string, start time.Time, count int64) int {
	if t == nil {
		return 0
	}
	id := t.reserve()
	t.finish(id, op, parent, name, start, count)
	return id
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayTotals are the traced run's tallies outside the spans.
type replayTotals struct {
	ops, failed int
	errs        []string
}

// replayer holds what the traced run sends each request through.
type replayer struct {
	t    *tracer
	lib  map[string]*cohort
	base string       // live service, over loopback
	h    http.Handler // shadow service, in process
	hc   *http.Client
	// Reports carry no cache field: one whose key appeared earlier in the
	// replay counts as cached (the LRU may have evicted it since, which
	// would undercount bundle builds).
	reports map[string]bool
}

// replay is the traced run. It sets up a fresh live service and a fresh
// in-process shadow service, replays the workload's seeded stream from its
// first op on one client for d, and records a span at each layer
// boundary:
//
//	op -> http.request (loopback round trip)
//	   -> service.handler (the shadow's ServeHTTP on the same request)
//	   -> core.train, core.eval, core.sweep -> rank.prefix, core.bundle,
//	      report.render, core.counterfactual, core.explain
//
// The core spans time the library calls that compute the same answer and
// are recorded only where the service computed it rather than reading its
// cache. Both services see the same requests in the same order, so their
// caches agree. Every response is checked against the library.
func replay(ctx context.Context, dir, workload string, seed int64, d time.Duration, hc *http.Client) (*tracer, replayTotals, error) {
	var tot replayTotals
	rp := &replayer{t: newTracer(), hc: hc, reports: make(map[string]bool)}
	var err error
	if rp.lib, err = newCohorts(dir, rp.t); err != nil {
		return nil, tot, err
	}
	lv, _, err := startLive(dir, hc)
	if err != nil {
		return nil, tot, err
	}
	defer lv.stop()
	rp.base = lv.base
	shadow, err := newServer(dir)
	if err != nil {
		return nil, tot, err
	}
	rp.h = shadow.Handler()
	st, err := newStream(workload, seed)
	if err != nil {
		return nil, tot, err
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		o := st.Next()
		tot.ops++
		opID := rp.t.reserve()
		opStart := time.Now()
		var trained []float64
		for i := range o.reqs {
			r := &o.reqs[i]
			if r.fromTrain {
				r.bonus = trained
			}
			b, err := rp.request(ctx, o.id, opID, r)
			if err != nil {
				tot.failed++
				if len(tot.errs) < 5 {
					tot.errs = append(tot.errs, fmt.Sprintf("op %d %s: %v", o.id, r.kind, err))
				}
				break
			}
			if r.kind == kTrain {
				trained = b
			}
		}
		rp.t.finish(opID, o.id, 0, "op", opStart, 0)
	}
	return rp.t, tot, nil
}

// request sends r to both services, checks the live answer against the
// library and returns the trained bonus of a train request.
func (rp *replayer) request(ctx context.Context, opIdx, opID int, r *request) ([]float64, error) {
	method, target, body, err := encode(r)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	status, resp, err := send(rp.hc, rp.base, method, target, body)
	httpID := rp.t.record(opIdx, opID, "http.request", start, int64(len(body)+len(resp)))
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", status, resp)
	}
	hreq := httptest.NewRequest(method, target, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	start = time.Now()
	rp.h.ServeHTTP(rec, hreq)
	handlerID := rp.t.record(opIdx, httpID, "service.handler", start, 0)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("shadow status %d: %s", rec.Code, rec.Body.Bytes())
	}
	trained, cached, err := parse(r, resp)
	if err != nil {
		return nil, err
	}
	cold := cached < r.units()
	switch r.kind {
	case kExplain:
		cold = true
	case kReport:
		key := r.dataset + "|" + formatBonus(r.bonus) + "|" + strconv.FormatFloat(r.k, 'g', -1, 64)
		cold = !rp.reports[key]
		rp.reports[key] = true
	}
	at := &attrib{t: rp.t, op: opIdx, parent: handlerID, cold: cold}
	return trained, verify(ctx, rp.lib[r.dataset], r, resp, at)
}

// layerMetrics aggregates the traced run's spans into per-op layer
// figures: times in ms per op, counts per op.
func layerMetrics(spans []span, ops int) map[string]float64 {
	self := selfTimes(spans)
	sum := make(map[string]time.Duration)
	selfSum := make(map[string]time.Duration)
	count := make(map[string]int64)
	n := make(map[string]int)
	for i := range spans {
		s := &spans[i]
		sum[s.Name] += s.dur()
		selfSum[s.Name] += self[s.ID]
		count[s.Name] += s.Count
		n[s.Name]++
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	perOp := func(d time.Duration) float64 { return ms(d) / float64(ops) }
	m := map[string]float64{
		"csvio.read_ms":           ms(sum["csvio.read"]),
		"core.evaluator_build_ms": ms(sum["core.evaluator_build"]),
		"rank.combo_build_ms":     ms(sum["rank.combo_build"]),
		"core.train_ms":           perOp(sum["core.train"]),
		"engine.steps_per_train":  0,
		"rank.prefix_ms":          perOp(sum["rank.prefix"]),
		"metrics.fold_ms":         perOp(selfSum["core.sweep"]),
		"core.bundle_ms":          perOp(sum["core.bundle"]),
		"report.render_ms":        perOp(sum["report.render"]),
		"report.bytes_per_op":     float64(count["report.render"]) / float64(ops),
		"core.counterfactual_ms":  perOp(sum["core.counterfactual"]),
		"core.explain_ms":         perOp(sum["core.explain"]),
		"service.handler_ms":      perOp(sum["service.handler"]),
		"service.self_ms":         perOp(selfSum["service.handler"]),
		"http.transport_ms":       perOp(selfSum["http.request"]),
		"http.latency_ms":         perOp(sum["http.request"]),
		"http.bytes_per_op":       float64(count["http.request"]) / float64(ops),
		"trace.op_ms":             perOp(sum["op"]),
		"core.train_share":        0,
	}
	if n["core.train"] > 0 {
		m["engine.steps_per_train"] = float64(count["core.train"]) / float64(n["core.train"])
	}
	if l := m["http.latency_ms"]; l > 0 {
		m["core.train_share"] = m["core.train_ms"] / l
	}
	return m
}
