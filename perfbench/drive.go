package main

import (
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"fairrank/perfbench/probe"
)

// Correctness sampling: a seeded share of timed ops keeps its responses
// for the after-run comparison with the library. Portal ops are cheap and
// numerous, so a smaller share of them is kept.
const maxSamples = 48

func sampleEvery(workload string) uint64 {
	if workload == "portal" {
		return 64
	}
	return 4
}

// sampled reports whether op id of a run seeded with seed is in the
// correctness sample.
func sampled(seed int64, id int, every uint64) bool {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(id)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return (z^z>>31)%every == 0
}

// sample is one timed op whose requests and responses are kept for the
// correctness gate.
type sample struct {
	id     int
	reqs   []request
	bodies [][]byte
}

// runner drives one workload's closed loop against a live service: each
// client sends its next op only after the previous one completed. The
// clients share one op stream.
type runner struct {
	seed    int64
	clients int
	hc      *http.Client
	base    string
	every   uint64

	mu     sync.Mutex
	st     *stream
	seen   map[unitKey]struct{}
	record bool // tally ops into the fields below

	lat       []float64 // ms per op, in completion order; +Inf for a failed op
	chunkEnds []int     // len(lat) at the end of each recorded chunk
	hitLat    []float64 // ms per op answered wholly from the cache
	attempted int
	failed    int
	units     int // cacheable units sent
	cached    int // units the service answered from its cache
	reused    int // units whose key an earlier op already sent
	samples   []sample
	errs      []string
}

func newRunner(workload string, seed int64, hc *http.Client, base string) (*runner, error) {
	st, err := newStream(workload, seed)
	if err != nil {
		return nil, err
	}
	return &runner{
		seed: seed, clients: clientsFor(workload),
		hc: hc, base: base, every: sampleEvery(workload),
		st: st, seen: make(map[unitKey]struct{}),
	}, nil
}

// phase runs the clients in chunks of length chunk. After each chunk,
// once every client is idle, it calls between (when non-nil) so the probe
// never runs beside a request. It returns the summed chunk wall time.
func (rn *runner) phase(chunks int, chunk time.Duration, between func()) time.Duration {
	var wall time.Duration
	for c := 0; c < chunks; c++ {
		start := time.Now()
		deadline := start.Add(chunk)
		var wg sync.WaitGroup
		for i := 0; i < rn.clients; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					rn.mu.Lock()
					o := rn.st.Next()
					keep := rn.record && len(rn.samples) < maxSamples && sampled(rn.seed, o.id, rn.every)
					rn.mu.Unlock()
					rn.runOp(o, keep)
				}
			}()
		}
		wg.Wait()
		wall += time.Since(start)
		if rn.record {
			rn.chunkEnds = append(rn.chunkEnds, len(rn.lat))
		}
		if between != nil {
			between()
		}
	}
	return wall
}

// runOp sends an op's requests in order and tallies the outcome. Latency
// is the sum of the requests' round trips; checking the bodies is not
// part of it.
func (rn *runner) runOp(o op, keep bool) {
	var (
		lat      time.Duration
		err      error
		trained  []float64
		cached   int
		bodies   [][]byte
		reqsKept []request
	)
	for i := range o.reqs {
		r := &o.reqs[i]
		if r.fromTrain {
			r.bonus = trained
		}
		method, target, body, e := encode(r)
		if e != nil {
			err = e
			break
		}
		start := time.Now()
		status, resp, e := send(rn.hc, rn.base, method, target, body)
		lat += time.Since(start)
		if e == nil && status != http.StatusOK {
			e = fmt.Errorf("status %d: %s", status, resp)
		}
		if e == nil {
			var b []float64
			var c int
			b, c, e = parse(r, resp)
			cached += c
			if r.kind == kTrain {
				trained = b
			}
		}
		if e != nil {
			err = fmt.Errorf("op %d %s: %w", o.id, r.kind, e)
			break
		}
		if keep {
			bodies = append(bodies, resp)
			reqsKept = append(reqsKept, *r)
		}
	}

	rn.mu.Lock()
	defer rn.mu.Unlock()
	reused, units := 0, 0
	for i := range o.reqs {
		o.reqs[i].unitKeys(func(k unitKey) {
			units++
			if _, ok := rn.seen[k]; ok {
				reused++
			}
			rn.seen[k] = struct{}{}
		})
	}
	rn.attempted++
	if err != nil {
		rn.failed++
		rn.note(err)
	}
	if !rn.record {
		return
	}
	if err != nil {
		rn.lat = append(rn.lat, math.Inf(1))
		return
	}
	ms := float64(lat) / float64(time.Millisecond)
	rn.lat = append(rn.lat, ms)
	if units > 0 && cached == units {
		rn.hitLat = append(rn.hitLat, ms)
	}
	rn.units += units
	rn.cached += cached
	rn.reused += reused
	if keep {
		rn.samples = append(rn.samples, sample{id: o.id, reqs: reqsKept, bodies: bodies})
	}
}

// note keeps the first few failure messages for the report on stderr.
func (rn *runner) note(err error) {
	if len(rn.errs) < 5 {
		rn.errs = append(rn.errs, err.Error())
	}
}

// probeSampler collects probe samples taken while no request is in flight.
type probeSampler struct {
	k       *probe.Kernel
	buf     []time.Duration
	samples []time.Duration
}

// probeReps is how many kernel runs one probe sample takes the median of.
const probeReps = 7

func newProbeSampler() *probeSampler {
	return &probeSampler{k: probe.New(1), buf: make([]time.Duration, 0, probeReps)}
}

func (p *probeSampler) take() { p.samples = append(p.samples, p.k.Sample(probeReps, p.buf)) }
