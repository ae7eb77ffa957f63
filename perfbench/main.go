// Command perfbench is fairrank's end-to-end benchmark. It sets up an
// in-process fairrankd service holding the paper's two cohorts (school,
// n = 80,000, and compas, n = 7,214, loaded from CSV through csvio), drives
// one of three seeded closed-loop workloads at it over loopback HTTP,
// checks the answers against the library, and prints every metric by name
// and unit. The last line of standard output is one JSON object.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload analyst --seed 1 --seconds 12 --trace 0
//
// Workloads: analyst (1 client: train, sweep to k = 0.2, report), whatif
// (1 client: never-seen bonus vectors against every read endpoint, sweeps
// to k = 1), portal (2 clients: single-applicant counterfactuals under a
// few published policies, Zipf popularity, about 70% LRU hits).
//
// Timings are host-normalized: after every timed chunk, with no request
// in flight, the benchmark times a fixed stdlib probe kernel, and every
// time is scaled by the nominal probe time over the run's median probe
// time (rates by the inverse), so drift in the host's speed is not read
// as a change in the program. Latency percentiles are the median of the
// percentiles of five consecutive windows of the timed phase, so one
// stalled window does not move them. The raw figures are reported beside
// them with --trace 1, which also replays the stream with a span at every
// layer boundary and reports the per-layer figures.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"time"
)

// dataDir holds the cohort CSVs and the span files, relative to the
// repository root the benchmark runs from.
var dataDir = filepath.Join(".bench_build", "data")

// Run shape. The timed phase is --seconds chunks of one second each.
const (
	setupReps   = 7
	warmChunks  = 1
	chunkLength = time.Second
)

type config struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	nominalMs float64
	dir       string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: analyst, whatif or portal")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the workload's op stream")
	flag.IntVar(&cfg.seconds, "seconds", 12, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 adds the traced replay and prints the per-layer metrics instead of the end-to-end ones")
	flag.Float64Var(&cfg.nominalMs, "probe-nominal-ms", 0, "nominal probe time in ms that timings are normalized to")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.dir = dataDir
	if !slices.Contains(workloads, cfg.workload) || cfg.seconds < latencyWindows || (trace != 0 && trace != 1) || cfg.nominalMs <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload analyst|whatif|portal, --seconds >= %d, --trace 0|1 and --probe-nominal-ms > 0\n", latencyWindows)
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// endToEnd is what the untraced run measured.
type endToEnd struct {
	scale                      float64 // host normalization factor for times
	probeMs                    float64
	throughput, p50, p90       float64 // raw: ops/s, ms, ms
	meanLatency                float64 // raw ms
	setup                      float64 // raw s
	heapMB                     float64
	hitShare, reuseShare       float64
	rankingsPerOp, mergesPerOp float64
	allocMBPerOp, gcPerKop     float64
	attempted, failed          int
}

func run(cfg config) (*result, error) {
	if err := writeCohorts(cfg.dir); err != nil {
		return nil, err
	}
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}
	defer hc.CloseIdleConnections()

	e, err := measure(cfg, hc)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: e.attempted, Failed: e.failed, Metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	if !cfg.trace {
		put("throughput_ops", "1/s", e.throughput/e.scale)
		put("latency_p50_ms", "ms", e.p50*e.scale)
		put("latency_p90_ms", "ms", e.p90*e.scale)
		put("setup_s", "s", e.setup*e.scale)
		put("heap_live_mb", "MiB", e.heapMB)
	} else {
		// The replay runs for half the timed phase: its figures carry no
		// bound, and each traced op costs about three untraced ones.
		t, tot, err := replay(context.Background(), cfg.dir, cfg.workload, cfg.seed, time.Duration(cfg.seconds)*time.Second/2, hc)
		if err != nil {
			return nil, err
		}
		for _, msg := range tot.errs {
			fmt.Fprintln(os.Stderr, "perfbench: traced:", msg)
		}
		res.Attempted += tot.ops
		res.Failed += tot.failed
		if err := t.write(filepath.Join(cfg.dir, "spans-"+cfg.workload+".jsonl")); err != nil {
			return nil, err
		}
		for name, v := range layerMetrics(t.spans, tot.ops) {
			put(name, unitOf(name), v)
		}
		put("trace.overhead_ms", "ms", res.Metrics["trace.op_ms"].Value-e.meanLatency)
		put("service.cache_hit_share", "ratio", e.hitShare)
		put("service.key_reuse_share", "ratio", e.reuseShare)
		put("rank.rankings_per_op", "count", e.rankingsPerOp)
		put("rank.merges_per_op", "count", e.mergesPerOp)
		put("go.alloc_mb_per_op", "MiB", e.allocMBPerOp)
		put("go.gc_cycles_per_kop", "count", e.gcPerKop)
		put("host.probe_ms", "ms", e.probeMs)
		put("raw.throughput_ops", "1/s", e.throughput)
		put("raw.latency_p50_ms", "ms", e.p50)
		put("raw.latency_p90_ms", "ms", e.p90)
		put("raw.setup_s", "s", e.setup)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// unitOf names the unit of a traced layer metric from its suffix.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_share"):
		return "ratio"
	case strings.HasSuffix(name, "bytes_per_op"):
		return "B"
	}
	return "count"
}

// measure is the untraced run: repeated set-up, a warm-up chunk, the timed
// chunks with a probe sample after each, the correctness gate over the
// sampled responses, and the live heap once everything the benchmark
// itself held is released.
func measure(cfg config, hc *http.Client) (endToEnd, error) {
	var e endToEnd
	ps := newProbeSampler()

	// Set-up runs setupReps times; its figure is the median. Only the last
	// service stays up.
	var setups []float64
	var lv *live
	for i := 0; i < setupReps; i++ {
		if lv != nil {
			if err := lv.stop(); err != nil {
				return e, err
			}
		}
		runtime.GC()
		ps.take()
		l, d, err := startLive(cfg.dir, hc)
		if err != nil {
			return e, err
		}
		lv = l
		setups = append(setups, d.Seconds())
	}
	defer lv.stop()
	e.setup = median(setups)

	rn, err := newRunner(cfg.workload, cfg.seed, hc, lv.base)
	if err != nil {
		return e, err
	}
	rn.phase(warmChunks, chunkLength, nil)

	rank0, merge0, err := rankCounts(hc, lv.base)
	if err != nil {
		return e, err
	}
	rt0 := readRuntime()
	rn.record = true
	wall := rn.phase(cfg.seconds, chunkLength, ps.take)
	rn.record = false
	rt1 := readRuntime()
	rank1, merge1, err := rankCounts(hc, lv.base)
	if err != nil {
		return e, err
	}

	timed := len(rn.lat)
	done := 0
	for _, l := range rn.lat {
		if !math.IsInf(l, 1) {
			done++
			e.meanLatency += l
		}
	}
	if done == 0 {
		return e, fmt.Errorf("no op completed in the timed phase: %v", rn.errs)
	}
	e.meanLatency /= float64(done)
	e.p50 = windowedPercentile(rn.lat, rn.chunkEnds, latencyWindows, 0.5)
	e.p90 = windowedPercentile(rn.lat, rn.chunkEnds, latencyWindows, 0.9)
	e.throughput = float64(done) / wall.Seconds()
	e.scale = hostScale(cfg.nominalMs, ps.samples)
	e.probeMs = cfg.nominalMs / e.scale
	if rn.units > 0 {
		e.hitShare = float64(rn.cached) / float64(rn.units)
		e.reuseShare = float64(rn.reused) / float64(rn.units)
	}
	e.rankingsPerOp = float64(rank1-rank0) / float64(timed)
	e.mergesPerOp = float64(merge1-merge0) / float64(timed)
	e.allocMBPerOp = (rt1.allocBytes - rt0.allocBytes) / (1 << 20) / float64(timed)
	e.gcPerKop = (rt1.gcCycles - rt0.gcCycles) * 1000 / float64(timed)

	failed, err := gate(cfg.dir, rn.samples)
	if err != nil {
		return e, err
	}
	for _, msg := range rn.errs {
		fmt.Fprintln(os.Stderr, "perfbench:", msg)
	}
	e.attempted = rn.attempted
	e.failed = rn.failed + failed
	// The cached ops' own p90 shows which latency class p50 falls in.
	slices.Sort(rn.hitLat)
	summary := fmt.Sprintf("perfbench %s seed=%d ops=%d failed=%d checked=%d hit_share=%.3f reuse_share=%.3f cached_ops=%d probe_ms=%.3f raw: throughput=%.2f/s p50=%.3fms p90=%.3fms cached_p90=%.3fms setup=%.3fs",
		cfg.workload, cfg.seed, timed, e.failed, len(rn.samples), e.hitShare, e.reuseShare, len(rn.hitLat), e.probeMs, e.throughput, e.p50, e.p90, percentile(rn.hitLat, 0.9), e.setup)

	// The live heap is read once nothing but the service is left: the
	// runner's tallies and samples go first, then two collections clear
	// the pools' victim caches. HeapInuse is printed beside it for
	// comparison.
	rn = nil
	runtime.GC()
	runtime.GC()
	e.heapMB = readRuntime().liveBytes / (1 << 20)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Printf("%s heap_live=%.3fMiB heap_inuse=%.3fMiB\n", summary, e.heapMB, float64(ms.HeapInuse)/(1<<20))
	return e, nil
}

// gate is the correctness gate: every sampled response must match, bit for
// bit, the library's answer to the same request. It returns the number of
// sampled ops that did not.
func gate(dir string, samples []sample) (int, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("the correctness sample is empty")
	}
	lib, err := newCohorts(dir, nil)
	if err != nil {
		return 0, err
	}
	ctx := context.Background()
	failed := 0
	for _, s := range samples {
		for i := range s.reqs {
			r := &s.reqs[i]
			if err := verify(ctx, lib[r.dataset], r, s.bodies[i], nil); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: op %d %s: %v\n", s.id, r.kind, err)
				failed++
				break
			}
		}
	}
	return failed, nil
}

type runtimeSample struct{ allocBytes, gcCycles, liveBytes float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(s)
	return runtimeSample{float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64()), float64(s[2].Value.Uint64())}
}
