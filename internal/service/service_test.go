package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"fairrank/internal/core"
	"fairrank/internal/rank"
	"fairrank/internal/synth"
)

// testCohortN keeps test datasets small enough that a full train request
// stays in the low milliseconds.
const testCohortN = 2500

func schoolConfig() synth.SchoolConfig {
	cfg := synth.DefaultSchoolConfig()
	cfg.N = testCohortN
	cfg.Seed = 42
	return cfg
}

func newTestServer(t testing.TB) (*Server, *httptest.Server) {
	t.Helper()
	school, err := synth.GenerateSchool(schoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	compasCfg := synth.DefaultCompasConfig()
	compasCfg.N = testCohortN
	compasCfg.Seed = 7
	compas, err := synth.GenerateCompas(compasCfg)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	if err := s.Register("school", school, rank.WeightedSum{Weights: synth.SchoolScoreWeights()}, rank.Beneficial); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("compas", compas, rank.WeightedSum{Weights: synth.CompasScoreWeights()}, rank.Adverse); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t testing.TB, url string, body any, out any) (int, string) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("decoding %q: %v", buf.String(), err)
		}
	}
	return resp.StatusCode, buf.String()
}

func getJSON(t testing.TB, url string, out any) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("decoding %q: %v", buf.String(), err)
		}
	}
	return resp.StatusCode, buf.String()
}

func TestHealthAndDatasets(t *testing.T) {
	s, ts := newTestServer(t)
	var h HealthResponse
	if code, body := getJSON(t, ts.URL+"/healthz", &h); code != 200 {
		t.Fatalf("healthz: %d %s", code, body)
	}
	if h.Status != "ok" || h.Datasets != 2 {
		t.Errorf("health = %+v", h)
	}
	var ds []DatasetInfo
	if code, body := getJSON(t, ts.URL+"/v1/datasets", &ds); code != 200 {
		t.Fatalf("datasets: %d %s", code, body)
	}
	if len(ds) != 2 || ds[0].Name != "school" || ds[1].Name != "compas" {
		t.Fatalf("datasets = %+v", ds)
	}
	if ds[0].N != testCohortN || ds[0].Polarity != "beneficial" || ds[0].HasOutcomes {
		t.Errorf("school info = %+v", ds[0])
	}
	if ds[1].Polarity != "adverse" || !ds[1].HasOutcomes {
		t.Errorf("compas info = %+v", ds[1])
	}
	// Both synthetic cohorts have discrete fairness rows, so each
	// evaluator carries a combo-run partition and the listing surfaces
	// its stats for observability — mirrored by Server.RankStats.
	for i, name := range []string{"school", "compas"} {
		rs := ds[i].RankStats
		if rs == nil {
			t.Fatalf("%s: rank_stats missing from listing", name)
		}
		if rs.Runs < 2 || rs.MinRunLen < 1 || rs.MedianRunLen < rs.MinRunLen || rs.MaxRunLen < rs.MedianRunLen {
			t.Errorf("%s rank_stats = %+v", name, rs)
		}
		st, ok := s.RankStats(name)
		if !ok {
			t.Fatalf("Server.RankStats(%q) reported no combo runs", name)
		}
		if st.Runs != rs.Runs || st.MinLen != rs.MinRunLen || st.MedianLen != rs.MedianRunLen || st.MaxLen != rs.MaxRunLen {
			t.Errorf("%s: Server.RankStats %+v disagrees with listing %+v", name, st, rs)
		}
	}
	if _, ok := s.RankStats("nope"); ok {
		t.Error("RankStats on an unknown dataset reported ok")
	}

	// A sweep of one bonus vector, then its explanation: the explanation
	// reads the order the sweep left in the evaluator's memo, and the
	// listing counts the hit.
	bonus := []float64{2, 10.5, 9, 12}
	var er EvaluateResponse
	if code, body := postJSON(t, ts.URL+"/v1/evaluate", EvaluateRequest{Dataset: "school", Metric: "disparity",
		Points: []SweepPointRequest{{Bonus: bonus, K: 0.5}}}, &er); code != 200 {
		t.Fatalf("evaluate: %d %s", code, body)
	}
	var ex ExplainResponse
	if code, body := getJSON(t, ts.URL+"/v1/explain?dataset=school&k=0.05&bonus=2,10.5,9,12", &ex); code != 200 {
		t.Fatalf("explain: %d %s", code, body)
	}
	if code, body := getJSON(t, ts.URL+"/v1/datasets", &ds); code != 200 {
		t.Fatalf("datasets: %d %s", code, body)
	}
	if rs := ds[0].RankStats; rs.MemoHits != 1 {
		t.Errorf("school memo_hits = %d after a sweep and an explanation of one bonus, want 1", rs.MemoHits)
	}
}

// TestTrainBitIdenticalToLibrary pins the service's central contract: a
// /v1/train request returns exactly the vector the library produces for
// the same dataset, objective, options, and seed — the HTTP layer adds
// caching and pooling, never drift.
func TestTrainBitIdenticalToLibrary(t *testing.T) {
	_, ts := newTestServer(t)
	school, err := synth.GenerateSchool(schoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	scorer := rank.WeightedSum{Weights: synth.SchoolScoreWeights()}

	for _, seed := range []int64{1, 5, 99} {
		var got TrainResponse
		req := TrainRequest{Dataset: "school", K: 0.05, Seed: seed}
		if code, body := postJSON(t, ts.URL+"/v1/train", req, &got); code != 200 {
			t.Fatalf("train seed %d: %d %s", seed, code, body)
		}
		opts := core.DefaultOptions()
		opts.Seed = seed
		obj, err := core.ObjectiveByName("disparity", 0.05)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Run(school, scorer, obj, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Bonus) != len(want.Bonus) {
			t.Fatalf("seed %d: bonus length %d vs %d", seed, len(got.Bonus), len(want.Bonus))
		}
		for j := range want.Bonus {
			if got.Bonus[j] != want.Bonus[j] || got.Raw[j] != want.Raw[j] {
				t.Errorf("seed %d dimension %d: service (%v, %v) != library (%v, %v)",
					seed, j, got.Bonus[j], got.Raw[j], want.Bonus[j], want.Raw[j])
			}
		}
		if got.Steps != want.Steps {
			t.Errorf("seed %d: steps %d != %d", seed, got.Steps, want.Steps)
		}
		if got.Cached {
			t.Errorf("seed %d: first request claims cached", seed)
		}
		if got.NormAfter >= got.NormBefore {
			t.Errorf("seed %d: compensation did not reduce disparity: %v -> %v", seed, got.NormBefore, got.NormAfter)
		}
	}
}

func TestTrainModesAndObjectives(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []TrainRequest{
		{Dataset: "school", K: 0.05, Mode: ModeCore},
		{Dataset: "school", K: 0.05, Mode: ModeWhole},
		{Dataset: "school", K: 0.3, Objective: "logdisc"},
		{Dataset: "school", K: 0.05, Objective: "di"},
		{Dataset: "compas", K: 0.2, Objective: "fpr"},
	}
	for _, req := range cases {
		name := fmt.Sprintf("%s-%s-%s", req.Dataset, req.Objective, req.Mode)
		t.Run(name, func(t *testing.T) {
			var got TrainResponse
			if code, body := postJSON(t, ts.URL+"/v1/train", req, &got); code != 200 {
				t.Fatalf("%d %s", code, body)
			}
			if len(got.Bonus) == 0 {
				t.Fatal("empty bonus")
			}
			for j, b := range got.Bonus {
				if b < 0 {
					t.Errorf("negative bonus dimension %d: %v", j, b)
				}
			}
		})
	}
}

func TestTrainCache(t *testing.T) {
	s, ts := newTestServer(t)
	req := TrainRequest{Dataset: "school", K: 0.1, Seed: 3}
	var first, second TrainResponse
	if code, body := postJSON(t, ts.URL+"/v1/train", req, &first); code != 200 {
		t.Fatalf("%d %s", code, body)
	}
	if first.Cached {
		t.Error("first request served from cache")
	}
	// One train populates one entry: its result. The baseline disparity
	// reads the evaluator's cached base order and is not cached.
	if s.cache.len() != 1 {
		t.Errorf("cache has %d entries, want 1", s.cache.len())
	}
	if code, body := postJSON(t, ts.URL+"/v1/train", req, &second); code != 200 {
		t.Fatalf("%d %s", code, body)
	}
	if !second.Cached {
		t.Error("identical request missed the cache")
	}
	for j := range first.Bonus {
		if first.Bonus[j] != second.Bonus[j] {
			t.Errorf("cached bonus diverged at %d", j)
		}
	}
	// A different seed is a different what-if: distinct cache entry.
	req.Seed = 4
	var third TrainResponse
	if code, body := postJSON(t, ts.URL+"/v1/train", req, &third); code != 200 {
		t.Fatalf("%d %s", code, body)
	}
	if third.Cached {
		t.Error("different seed hit the cache")
	}
}

func TestEvaluateSweeps(t *testing.T) {
	_, ts := newTestServer(t)
	var trained TrainResponse
	if code, body := postJSON(t, ts.URL+"/v1/train", TrainRequest{Dataset: "school", K: 0.05}, &trained); code != 200 {
		t.Fatalf("%d %s", code, body)
	}
	points := []SweepPointRequest{
		{Bonus: nil, K: 0.05},
		{Bonus: trained.Bonus, K: 0.05},
		{Bonus: trained.Bonus, K: 0.1},
		{Bonus: trained.Bonus, K: 0.2},
	}
	var disp EvaluateResponse
	if code, body := postJSON(t, ts.URL+"/v1/evaluate", EvaluateRequest{Dataset: "school", Metric: "disparity", Points: points}, &disp); code != 200 {
		t.Fatalf("disparity sweep: %d %s", code, body)
	}
	if len(disp.Vectors) != 4 || len(disp.Norms) != 4 {
		t.Fatalf("sweep shape: %d vectors, %d norms", len(disp.Vectors), len(disp.Norms))
	}
	if disp.Norms[1] >= disp.Norms[0] {
		t.Errorf("trained vector did not reduce disparity: %v -> %v", disp.Norms[0], disp.Norms[1])
	}
	var ndcg EvaluateResponse
	if code, body := postJSON(t, ts.URL+"/v1/evaluate", EvaluateRequest{Dataset: "school", Metric: "ndcg", Points: points}, &ndcg); code != 200 {
		t.Fatalf("ndcg sweep: %d %s", code, body)
	}
	if len(ndcg.Values) != 4 {
		t.Fatalf("ndcg shape: %d values", len(ndcg.Values))
	}
	if ndcg.Values[0] != 1 {
		t.Errorf("uncompensated nDCG = %v, want 1", ndcg.Values[0])
	}
	for i, v := range ndcg.Values {
		if v <= 0 || v > 1 {
			t.Errorf("nDCG[%d] = %v outside (0,1]", i, v)
		}
	}
	var di EvaluateResponse
	if code, body := postJSON(t, ts.URL+"/v1/evaluate", EvaluateRequest{Dataset: "school", Metric: "di", Points: points}, &di); code != 200 {
		t.Fatalf("di sweep: %d %s", code, body)
	}
	if len(di.Vectors) != 4 {
		t.Fatalf("di shape: %d vectors", len(di.Vectors))
	}
}

func TestExplainEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var trained TrainResponse
	if code, body := postJSON(t, ts.URL+"/v1/train", TrainRequest{Dataset: "school", K: 0.05}, &trained); code != 200 {
		t.Fatalf("%d %s", code, body)
	}
	bonusParam := make([]string, len(trained.Bonus))
	for j, b := range trained.Bonus {
		bonusParam[j] = fmt.Sprintf("%g", b)
	}
	url := fmt.Sprintf("%s/v1/explain?dataset=school&k=0.05&bonus=%s", ts.URL, strings.Join(bonusParam, ","))
	var exp ExplainResponse
	if code, body := getJSON(t, url, &exp); code != 200 {
		t.Fatalf("explain: %d %s", code, body)
	}
	if exp.Selected == 0 || exp.Cutoff == 0 || len(exp.Summary) == 0 {
		t.Errorf("thin explanation: %+v", exp)
	}
	if len(exp.GroupCounts) != len(exp.FairNames) {
		t.Errorf("group counts misaligned: %d vs %d", len(exp.GroupCounts), len(exp.FairNames))
	}
	if len(exp.AdmittedByBonus) == 0 {
		t.Error("compensation admitted nobody — expected beneficiaries")
	}
	// Per-object breakdown for the first beneficiary.
	withObj := fmt.Sprintf("%s&object=%d", url, exp.AdmittedByBonus[0])
	var exp2 ExplainResponse
	if code, body := getJSON(t, withObj, &exp2); code != 200 {
		t.Fatalf("explain object: %d %s", code, body)
	}
	if exp2.Object == nil || !exp2.Object.Selected {
		t.Fatalf("beneficiary not selected in breakdown: %+v", exp2.Object)
	}
	if exp2.Object.Margin < 0 {
		t.Errorf("selected beneficiary has negative margin %v", exp2.Object.Margin)
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t)
	post := func(path, body string) (int, string) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}
	cases := []struct {
		name string
		path string
		body string
		want int
		msg  string
	}{
		{"train unknown dataset", "/v1/train", `{"dataset":"nope","k":0.05}`, 404, "unknown dataset"},
		{"train missing dataset", "/v1/train", `{"k":0.05}`, 400, "missing dataset"},
		{"train bad k", "/v1/train", `{"dataset":"school","k":0}`, 400, "(0,1]"},
		{"train k above 1", "/v1/train", `{"dataset":"school","k":1.5}`, 400, "(0,1]"},
		{"train bad objective", "/v1/train", `{"dataset":"school","k":0.05,"objective":"banana"}`, 400, "banana"},
		{"train bad mode", "/v1/train", `{"dataset":"school","k":0.05,"mode":"warp"}`, 400, "mode"},
		{"train negative sample", "/v1/train", `{"dataset":"school","k":0.05,"sample_size":-5}`, 400, "sample_size"},
		{"train negative granularity", "/v1/train", `{"dataset":"school","k":0.05,"granularity":-1}`, 400, "granularity"},
		{"train negative refine", "/v1/train", `{"dataset":"school","k":0.05,"refine_steps":-1}`, 400, "refine_steps"},
		{"train unknown field", "/v1/train", `{"dataset":"school","k":0.05,"granularty":0.5}`, 400, "granularty"},
		{"train trailing garbage", "/v1/train", `{"dataset":"school","k":0.05}{"x":1}`, 400, "trailing"},
		{"train not json", "/v1/train", `hello`, 400, ""},
		{"train fpr without outcomes", "/v1/train", `{"dataset":"school","k":0.05,"objective":"fpr"}`, 400, "outcomes"},
		{"evaluate bad metric", "/v1/evaluate", `{"dataset":"school","metric":"entropy","points":[{"k":0.05}]}`, 400, "metric"},
		{"evaluate no points", "/v1/evaluate", `{"dataset":"school","metric":"disparity","points":[]}`, 400, "points"},
		{"evaluate bad fraction", "/v1/evaluate", `{"dataset":"school","metric":"disparity","points":[{"k":2}]}`, 400, "(0,1]"},
		{"evaluate wrong dims", "/v1/evaluate", `{"dataset":"school","metric":"disparity","points":[{"k":0.05,"bonus":[1,2]}]}`, 400, "dimensions"},
		{"evaluate negative bonus", "/v1/evaluate", `{"dataset":"school","metric":"disparity","points":[{"k":0.05,"bonus":[1,-2,0,0]}]}`, 400, "non-negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := post(tc.path, tc.body)
			if code != tc.want {
				t.Fatalf("status %d, want %d (%s)", code, tc.want, body)
			}
			if tc.msg != "" && !strings.Contains(body, tc.msg) {
				t.Errorf("body %q does not mention %q", body, tc.msg)
			}
			var e ErrorResponse
			if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
				t.Errorf("error body is not ErrorResponse JSON: %q", body)
			}
		})
	}
	// GET endpoints.
	if code, _ := getJSON(t, ts.URL+"/v1/explain?dataset=school&k=0.05", nil); code != 400 {
		t.Errorf("explain without bonus: %d, want 400", code)
	}
	if code, _ := getJSON(t, ts.URL+"/v1/explain?dataset=school&k=0.05&bonus=1,NaN,2,3", nil); code != 400 {
		t.Errorf("explain with NaN bonus: %d, want 400", code)
	}
	if code, _ := getJSON(t, ts.URL+"/v1/explain?dataset=ghost&k=0.05&bonus=1", nil); code != 404 {
		t.Errorf("explain unknown dataset: %d, want 404", code)
	}
	// Method mismatches answer 405 via the mux method patterns.
	if code, _ := getJSON(t, ts.URL+"/v1/train", nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/train: %d, want 405", code)
	}
}

// TestConcurrentTrainAndEvaluate is the race-cleanliness exercise: many
// goroutines mix cache-hitting and cache-missing train requests with
// evaluate sweeps and explain queries against one server. Run under
// -race; correctness is pinned by comparing every train response against
// the single-threaded reference for its seed.
func TestConcurrentTrainAndEvaluate(t *testing.T) {
	_, ts := newTestServer(t)
	school, err := synth.GenerateSchool(schoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	scorer := rank.WeightedSum{Weights: synth.SchoolScoreWeights()}
	obj, err := core.ObjectiveByName("disparity", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	const seeds = 4
	want := make([][]float64, seeds)
	for s := 0; s < seeds; s++ {
		opts := core.DefaultOptions()
		opts.Seed = int64(s + 1)
		res, err := core.Run(school, scorer, obj, opts)
		if err != nil {
			t.Fatal(err)
		}
		want[s] = res.Bonus
	}

	const workers = 8
	const perWorker = 6
	var wg sync.WaitGroup
	errc := make(chan error, workers*perWorker)
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				seed := (wkr + i) % seeds
				switch i % 3 {
				case 0, 1: // train (half of these hit the cache)
					var got TrainResponse
					code, body := postJSON(t, ts.URL+"/v1/train", TrainRequest{Dataset: "school", K: 0.05, Seed: int64(seed + 1)}, &got)
					if code != 200 {
						errc <- fmt.Errorf("worker %d: train %d %s", wkr, code, body)
						continue
					}
					for j := range want[seed] {
						if got.Bonus[j] != want[seed][j] {
							errc <- fmt.Errorf("worker %d seed %d: bonus[%d] = %v, want %v", wkr, seed+1, j, got.Bonus[j], want[seed][j])
							break
						}
					}
				case 2: // evaluate sweep against the reference vector
					req := EvaluateRequest{Dataset: "school", Metric: "disparity", Points: []SweepPointRequest{
						{Bonus: want[seed], K: 0.05}, {Bonus: nil, K: 0.1},
					}}
					var got EvaluateResponse
					code, body := postJSON(t, ts.URL+"/v1/evaluate", req, &got)
					if code != 200 {
						errc <- fmt.Errorf("worker %d: evaluate %d %s", wkr, code, body)
						continue
					}
					if len(got.Vectors) != 2 {
						errc <- fmt.Errorf("worker %d: evaluate returned %d vectors", wkr, len(got.Vectors))
					}
				}
			}
		}(wkr)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

func TestRegistry(t *testing.T) {
	school, err := synth.GenerateSchool(schoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	scorer := rank.WeightedSum{Weights: synth.SchoolScoreWeights()}
	s := New(Config{TrainerPoolSize: 2})
	if err := s.Register("", school, scorer, rank.Beneficial); err == nil {
		t.Error("empty name accepted")
	}
	if err := s.Register("school", school, scorer, rank.Beneficial); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("school", school, scorer, rank.Beneficial); err == nil {
		t.Error("duplicate name accepted")
	}
	e, ok := s.reg.Get("school")
	if !ok {
		t.Fatal("lookup failed")
	}
	// Pool: a released trainer is handed back out; beyond capacity,
	// trainers are dropped rather than blocking.
	ctx := context.Background()
	mustAcquire := func() *core.Trainer {
		t.Helper()
		tr, err := e.acquire(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	t1, t2, t3 := mustAcquire(), mustAcquire(), mustAcquire()
	e.release(t1)
	e.release(t2)
	e.release(t3) // pool cap 2: dropped, must not block
	if got := mustAcquire(); got != t1 {
		t.Error("pool did not return the first released trainer")
	}
	if got := mustAcquire(); got != t2 {
		t.Error("pool did not return the second released trainer")
	}
	if got := mustAcquire(); got == t3 {
		t.Error("over-capacity trainer was retained")
	}
	// Live bound: with every token in the table taken, the next acquire
	// is shed, and freeing one token reopens admission.
	for len(e.live) < cap(e.live) {
		e.live <- struct{}{}
	}
	if _, err := e.acquire(ctx); err != errTrainersBusy {
		t.Errorf("over-bound acquire returned %v, want errTrainersBusy", err)
	}
	<-e.live
	e.release(mustAcquire())
}
