package main

import (
	"fmt"
	"math/rand"
	"slices"
)

// Request kinds, one per endpoint the workloads drive.
type kind int

const (
	kTrain kind = iota
	kEvaluate
	kReport
	kCounterfactual
	kExplain
)

func (k kind) String() string {
	return [...]string{"train", "evaluate", "report", "counterfactual", "explain"}[k]
}

// request is one HTTP request of an op, in the program's own terms. A nil
// bonus with fromTrain set is filled in at run time from the bonus the
// op's train request returned.
type request struct {
	kind      kind
	dataset   string
	k         float64   // train, report, counterfactual, explain
	seed      int64     // train
	metric    string    // evaluate
	ks        []float64 // evaluate grid
	bonus     []float64
	fromTrain bool
	format    string // report
	objects   []int  // counterfactual
}

// op is one closed-loop unit of work: its requests run in order on one
// client, and its latency is their sum.
type op struct {
	id   int
	reqs []request
}

// Cohort sizes the generator draws objects from; they are the paper's
// populations, fixed by the cohort files the server loads.
const (
	schoolN    = 80000
	schoolDims = 4
	compasDims = 6
)

// paperK is the paper's selection fraction.
const paperK = 0.05

// Workload names.
var workloads = []string{"analyst", "whatif", "portal"}

// clientsFor is the closed-loop client count of each workload.
func clientsFor(workload string) int {
	if workload == "portal" {
		return 2
	}
	return 1
}

// grid returns the fractions i/steps for i = 1..steps scaled to max.
func grid(steps int, max float64) []float64 {
	ks := make([]float64, steps)
	for i := range ks {
		ks[i] = max * float64(i+1) / float64(steps)
	}
	return ks
}

var (
	// analystGrid stays at k <= 0.2, where every cut takes the combo-run
	// merge route.
	analystGrid = grid(20, 0.2)
	// whatifGrid spans (0, 1]: its top cut forces the full-sort route.
	whatifGrid = grid(64, 1)
	// compasGrid covers k in (0.5, 1]: every cut there selects more
	// defendants than the largest race group holds, so exposure parity
	// always has two populated groups to compare, whatever the bonus.
	compasGrid = func() []float64 {
		ks := grid(16, 0.5)
		for i := range ks {
			ks[i] += 0.5
		}
		return ks
	}()
)

// portalPolicies are the published school policies portal applicants ask
// about, on the paper's 0.5-point grid.
var portalPolicies = [][]float64{
	{2, 10.5, 9, 12},
	{1.5, 10, 8.5, 11.5},
	{2.5, 11, 9.5, 12.5},
	{0, 8, 8, 10},
}

// Portal applicant popularity: Zipf(s, v) over ranks 0..portalApplicants,
// mapped onto school objects by a stride coprime with schoolN. The
// parameters put the LRU hit share near 0.7 under the service's default
// 1,024-entry cache (see TestPortalHitShare).
const (
	portalZipfS      = 1.35
	portalZipfV      = 4
	portalApplicants = schoolN - 1
	portalStride     = 7919
)

// stream generates one workload's ops from a seed. The same seed yields
// the same ops in the same order; Next is not safe for concurrent use.
type stream struct {
	workload string
	rng      *rand.Rand
	zipf     *rand.Zipf
	seed     int64
	next     int
	seen     map[string]bool // whatif bonus vectors already issued
}

func newStream(workload string, seed int64) (*stream, error) {
	s := &stream{workload: workload, rng: rand.New(rand.NewSource(seed)), seed: seed}
	switch workload {
	case "analyst":
	case "whatif":
		s.seen = make(map[string]bool)
	case "portal":
		s.zipf = rand.NewZipf(s.rng, portalZipfS, portalZipfV, portalApplicants)
	default:
		return nil, fmt.Errorf("unknown workload %q (want analyst, whatif or portal)", workload)
	}
	return s, nil
}

// Next returns the stream's next op.
func (s *stream) Next() op {
	o := op{id: s.next}
	s.next++
	switch s.workload {
	case "analyst":
		o.reqs = s.analyst()
	case "whatif":
		o.reqs = s.whatif(o.id)
	default:
		o.reqs = s.portal()
	}
	return o
}

// analyst is one what-if session: cold trains at twice the paper's k and
// at the paper's k, each with a seed no earlier session used, then a
// disparity sweep of the paper-k vector and its report. Two trains per
// session keep the median inside one latency class: a single train's
// latency is bimodal on a 2-vCPU host (about 9 and 14 ms, split near
// half and half), which puts the median of one-train sessions in the gap.
func (s *stream) analyst() []request {
	seed := s.seed*1_000_003 + 2*int64(s.next)
	return []request{
		{kind: kTrain, dataset: "school", k: 2 * paperK, seed: seed + 1},
		{kind: kTrain, dataset: "school", k: paperK, seed: seed + 2},
		{kind: kEvaluate, dataset: "school", metric: "disparity", ks: analystGrid, fromTrain: true},
		{kind: kReport, dataset: "school", k: paperK, fromTrain: true, format: "json"},
	}
}

// whatif asks every read endpoint about bonus vectors no earlier op used.
func (s *stream) whatif(id int) []request {
	b4 := s.freshBonus(schoolDims, 15)
	b6 := s.freshBonus(compasDims, 3)
	objs := make([]int, 0, 32)
	for len(objs) < cap(objs) {
		if o := s.rng.Intn(schoolN); !slices.Contains(objs, o) {
			objs = append(objs, o)
		}
	}
	r := id % 3
	return []request{
		{kind: kEvaluate, dataset: "school", metric: []string{"disparity", "ndcg", "di"}[r], ks: whatifGrid, bonus: b4},
		{kind: kEvaluate, dataset: "compas", metric: []string{"fpr", "exposure", "topk"}[r], ks: compasGrid, bonus: b6},
		{kind: kReport, dataset: "school", k: paperK, bonus: b4, format: []string{"json", "csv", "markdown"}[r]},
		{kind: kCounterfactual, dataset: "school", k: paperK, bonus: b4, objects: objs},
		{kind: kExplain, dataset: "school", k: paperK, bonus: b4},
	}
}

// freshBonus draws a non-zero vector on the 0.5-point grid in [0, max]
// that the stream has not issued before.
func (s *stream) freshBonus(dims int, max float64) []float64 {
	steps := int(2*max) + 1
	for {
		b := make([]float64, dims)
		nonzero := false
		for j := range b {
			b[j] = float64(s.rng.Intn(steps)) / 2
			nonzero = nonzero || b[j] != 0
		}
		key := fmt.Sprint(b)
		if nonzero && !s.seen[key] {
			s.seen[key] = true
			return b
		}
	}
}

// portal is one applicant's counterfactual under one published policy.
func (s *stream) portal() []request {
	pol := portalPolicies[s.rng.Intn(len(portalPolicies))]
	rank := s.zipf.Uint64()
	obj := int((rank*portalStride + uint64(s.seed)) % schoolN)
	return []request{{kind: kCounterfactual, dataset: "school", k: paperK, bonus: pol, objects: []int{obj}}}
}

// units is the number of cacheable answers a request carries: the cache
// works per sweep point and per counterfactual object, and per request
// for train. Reports and explanations expose no cache field and count 0.
func (r *request) units() (n int) {
	r.unitKeys(func(unitKey) { n++ })
	return n
}

// unitKey is one cacheable unit as the service's cache keys it.
type unitKey struct {
	kind    kind
	dataset string
	metric  string
	bonus   [compasDims]float64
	k       float64
	seed    int64
	object  int
}

// unitKeys calls fn with the key of each cacheable unit of r. Two equal
// keys mean the second unit could be answered from the cache.
func (r *request) unitKeys(fn func(unitKey)) {
	u := unitKey{kind: r.kind, dataset: r.dataset, k: r.k}
	copy(u.bonus[:], r.bonus)
	switch r.kind {
	case kTrain:
		u.seed = r.seed
		fn(u)
	case kEvaluate:
		u.metric = r.metric
		for _, k := range r.ks {
			u.k = k
			fn(u)
		}
	case kCounterfactual:
		for _, o := range r.objects {
			u.object = o
			fn(u)
		}
	}
}
