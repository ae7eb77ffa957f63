package service

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"

	"fairrank/internal/report"
)

// TestCounterfactualMatchesCore pins the endpoint's central contract: the
// HTTP answer is exactly the core engine's answer for the registered
// evaluator.
func TestCounterfactualMatchesCore(t *testing.T) {
	s, ts := newTestServer(t)
	bonus := []float64{2, 10.5, 9, 12}
	objs := []int{0, 17, 500, 1234, 2499}
	var resp CounterfactualResponse
	code, body := postJSON(t, ts.URL+"/v1/counterfactual",
		CounterfactualRequest{Dataset: "school", Bonus: bonus, K: 0.05, Objects: objs}, &resp)
	if code != 200 {
		t.Fatalf("counterfactual: %d %s", code, body)
	}
	if len(resp.Results) != len(objs) || resp.CachedObjects != 0 {
		t.Fatalf("shape: %d results, %d cached", len(resp.Results), resp.CachedObjects)
	}
	e, _ := s.reg.Get("school")
	want, err := e.eval.CounterfactualBatchCtx(t.Context(), bonus, 0.05, objs)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range resp.Results {
		w := want[i]
		if got.Object != w.Object || got.Selected != w.Selected || got.Rank != w.Rank ||
			got.Effective != w.Effective || got.Cutoff != w.Cutoff || got.Competitor != w.Competitor ||
			got.ScoreDelta != w.ScoreDelta || got.BonusDelta != w.BonusDelta ||
			got.Feasible != w.Feasible || !reflect.DeepEqual(got.PerAttribute, w.PerAttribute) {
			t.Errorf("result %d = %+v, core says %+v", i, got, w)
		}
	}
}

// TestCounterfactualPortalMemo sends a portal's request stream: one
// applicant per request, alternating over four published policies. Once
// each policy has been merged, the evaluator's ranked-order memo answers
// every later cache miss: memo_hits rises by one per request while
// merge_count and ranking_count stay put.
func TestCounterfactualPortalMemo(t *testing.T) {
	_, ts := newTestServer(t)
	policies := [][]float64{{2, 10.5, 9, 12}, {1.5, 10, 8.5, 11.5}, {2.5, 11, 9.5, 12.5}, {0, 8, 8, 10}}
	ask := func(pol []float64, obj int) {
		t.Helper()
		var resp CounterfactualResponse
		code, body := postJSON(t, ts.URL+"/v1/counterfactual",
			CounterfactualRequest{Dataset: "school", Bonus: pol, K: 0.05, Objects: []int{obj}}, &resp)
		if code != 200 {
			t.Fatalf("counterfactual: %d %s", code, body)
		}
		if resp.CachedObjects != 0 {
			t.Fatalf("object %d came from the result cache", obj)
		}
	}
	stats := func() RankStatsInfo {
		t.Helper()
		var ds []DatasetInfo
		if code, body := getJSON(t, ts.URL+"/v1/datasets", &ds); code != 200 {
			t.Fatalf("datasets: %d %s", code, body)
		}
		return *ds[0].RankStats
	}
	for i, pol := range policies {
		ask(pol, i)
	}
	warm := stats()
	if warm.MergeCount != int64(len(policies)) {
		t.Fatalf("warm-up merged %d times, want one merge per policy (%d)", warm.MergeCount, len(policies))
	}
	const requests = 24
	for r := 0; r < requests; r++ {
		ask(policies[r%len(policies)], 100+37*r)
	}
	got := stats()
	if got.MergeCount != warm.MergeCount || got.RankingCount != warm.RankingCount {
		t.Errorf("portal requests after warm-up: merge_count %d -> %d, ranking_count %d -> %d; want both unchanged",
			warm.MergeCount, got.MergeCount, warm.RankingCount, got.RankingCount)
	}
	if d := got.MemoHits - warm.MemoHits; d != requests {
		t.Errorf("portal requests after warm-up raised memo_hits by %d, want %d", d, requests)
	}
}

// TestCounterfactualValidationHTTP covers the request rejections: unknown
// dataset, bad fraction, empty/oversized object lists, out-of-range
// objects, mis-sized and non-finite bonus vectors, unknown fields.
func TestCounterfactualValidationHTTP(t *testing.T) {
	_, ts := newTestServer(t)
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/counterfactual", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}
	cases := []struct {
		name, body string
		code       int
	}{
		{"unknown dataset", `{"dataset":"nope","k":0.1,"objects":[0]}`, 404},
		{"bad fraction", `{"dataset":"school","k":0,"objects":[0]}`, 400},
		{"no objects", `{"dataset":"school","k":0.1,"objects":[]}`, 400},
		{"negative object", `{"dataset":"school","k":0.1,"objects":[-1]}`, 400},
		{"out of range", `{"dataset":"school","k":0.1,"objects":[2500]}`, 400},
		{"mis-sized bonus", `{"dataset":"school","k":0.1,"objects":[0],"bonus":[1]}`, 400},
		{"negative bonus", `{"dataset":"school","k":0.1,"objects":[0],"bonus":[-1,0,0,0]}`, 400},
		{"unknown field", `{"dataset":"school","k":0.1,"objects":[0],"granularity":2}`, 400},
	}
	for _, tc := range cases {
		if code, body := post(tc.body); code != tc.code {
			t.Errorf("%s: %d %s, want %d", tc.name, code, body, tc.code)
		}
	}
}

// TestCounterfactualPerObjectCache pins the per-object LRU: a second
// request covering a subset of earlier objects is answered without
// ranking, and a widened list ranks only the new objects.
func TestCounterfactualPerObjectCache(t *testing.T) {
	s, ts := newTestServer(t)
	bonus := []float64{2, 10.5, 9, 12}
	req := func(objs ...int) CounterfactualRequest {
		return CounterfactualRequest{Dataset: "school", Bonus: bonus, K: 0.05, Objects: objs}
	}
	var first CounterfactualResponse
	if code, body := postJSON(t, ts.URL+"/v1/counterfactual", req(1, 2, 3, 4), &first); code != 200 {
		t.Fatalf("cold: %d %s", code, body)
	}
	if got := s.cfExecs.Load(); got != 1 {
		t.Fatalf("cold executions = %d, want 1", got)
	}

	// A reordered, duplicated subset is pure cache.
	var sub CounterfactualResponse
	if code, body := postJSON(t, ts.URL+"/v1/counterfactual", req(3, 1, 3), &sub); code != 200 {
		t.Fatalf("subset: %d %s", code, body)
	}
	if sub.CachedObjects != 3 || s.cfExecs.Load() != 1 {
		t.Errorf("subset: cached=%d execs=%d, want 3 and 1", sub.CachedObjects, s.cfExecs.Load())
	}
	if !reflect.DeepEqual(mustResult(t, sub, 3), mustResult(t, first, 3)) ||
		!reflect.DeepEqual(mustResult(t, sub, 1), mustResult(t, first, 1)) {
		t.Error("subset rows differ from the original answers")
	}

	// A widened list computes only the new objects.
	var wide CounterfactualResponse
	if code, body := postJSON(t, ts.URL+"/v1/counterfactual", req(1, 2, 7, 8), &wide); code != 200 {
		t.Fatalf("widened: %d %s", code, body)
	}
	if wide.CachedObjects != 2 || s.cfExecs.Load() != 2 {
		t.Errorf("widened: cached=%d execs=%d, want 2 and 2", wide.CachedObjects, s.cfExecs.Load())
	}

	// A different k is a different audit: cold again.
	other := req(1)
	other.K = 0.1
	var cold CounterfactualResponse
	if code, body := postJSON(t, ts.URL+"/v1/counterfactual", other, &cold); code != 200 {
		t.Fatalf("other-k: %d %s", code, body)
	}
	if cold.CachedObjects != 0 {
		t.Errorf("other-k reports %d cached objects, want 0", cold.CachedObjects)
	}
}

// mustResult digs object obj's row out of a response by id; PerAttribute
// is flattened for comparability as a struct value.
func mustResult(t *testing.T, resp CounterfactualResponse, obj int) CounterfactualResult {
	t.Helper()
	for _, r := range resp.Results {
		if r.Object == obj {
			r.PerAttribute = nil
			return r
		}
	}
	t.Fatalf("object %d not in response", obj)
	return CounterfactualResult{}
}

// TestCounterfactualCoalescing: identical concurrent cold requests rank
// once and share the results. Run under -race in CI.
func TestCounterfactualCoalescing(t *testing.T) {
	s, ts := newTestServer(t)
	req := CounterfactualRequest{Dataset: "school", Bonus: []float64{1, 2, 3, 4}, K: 0.07,
		Objects: []int{5, 50, 500}}
	const workers = 12
	start := make(chan struct{})
	resps := make([]CounterfactualResponse, workers)
	fails := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			code, body := postJSON(t, ts.URL+"/v1/counterfactual", req, &resps[w])
			if code != 200 {
				fails[w] = fmt.Sprintf("worker %d: %d %s", w, code, body)
			}
		}(w)
	}
	close(start)
	wg.Wait()
	for _, f := range fails {
		if f != "" {
			t.Fatal(f)
		}
	}
	if got := s.cfExecs.Load(); got != 1 {
		t.Errorf("cold batch executed %d times for %d identical concurrent requests, want 1", got, workers)
	}
	for w := 1; w < workers; w++ {
		if !reflect.DeepEqual(resps[w].Results, resps[0].Results) {
			t.Errorf("worker %d got different results than worker 0", w)
		}
	}
}

// reportURL builds a /v1/report query.
func reportURL(ts string, params map[string]string) string {
	q := url.Values{}
	for k, v := range params {
		q.Set(k, v)
	}
	return ts + "/v1/report?" + q.Encode()
}

// TestReportEndpointFormats: the bundle answers in all three formats with
// the right content types, and the JSON form matches a directly built
// bundle.
func TestReportEndpointFormats(t *testing.T) {
	s, ts := newTestServer(t)
	base := map[string]string{"dataset": "school", "k": "0.05", "bonus": "2,10.5,9,12"}

	resp, err := http.Get(reportURL(ts.URL, base))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 || !strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
		t.Fatalf("json report: %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var got report.Bundle
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	e, _ := s.reg.Get("school")
	want, err := report.BuildBundleCtx(t.Context(), e.eval, report.BundleConfig{
		Dataset: "school", Bonus: []float64{2, 10.5, 9, 12}, K: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != want.Version || got.Selected != want.Selected || got.Cutoff != want.Cutoff ||
		!reflect.DeepEqual(got.Policy, want.Policy) || !reflect.DeepEqual(got.Margins, want.Margins) {
		t.Errorf("HTTP bundle differs from direct build:\n got %+v\nwant %+v", got, *want)
	}

	for format, ctype := range map[string]string{"csv": "text/csv", "md": "text/markdown", "markdown": "text/markdown"} {
		p := map[string]string{"format": format}
		for k, v := range base {
			p[k] = v
		}
		r2, err := http.Get(reportURL(ts.URL, p))
		if err != nil {
			t.Fatal(err)
		}
		if r2.StatusCode != 200 || !strings.HasPrefix(r2.Header.Get("Content-Type"), ctype) {
			t.Errorf("%s report: %d %s", format, r2.StatusCode, r2.Header.Get("Content-Type"))
		}
		if format == "csv" {
			cr := csv.NewReader(r2.Body)
			cr.FieldsPerRecord = -1 // sections have different widths
			rows, err := cr.ReadAll()
			if err != nil || len(rows) == 0 {
				t.Errorf("csv report does not parse: %v", err)
			}
		}
		r2.Body.Close()
	}
}

// TestReportCachesBundleAcrossFormats: the built bundle is cached
// independently of the rendering format — three formats, one build.
func TestReportCachesBundleAcrossFormats(t *testing.T) {
	s, ts := newTestServer(t)
	base := map[string]string{"dataset": "school", "k": "0.05", "bonus": "1,2,3,4"}
	for _, format := range []string{"json", "csv", "md", "json"} {
		p := map[string]string{"format": format}
		for k, v := range base {
			p[k] = v
		}
		resp, err := http.Get(reportURL(ts.URL, p))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s report: %d", format, resp.StatusCode)
		}
	}
	if got := s.reportExecs.Load(); got != 1 {
		t.Errorf("bundle built %d times for 4 requests in 3 formats, want 1", got)
	}
}

// TestReportValidationHTTP covers the rejections: missing/zero bonus, bad
// fraction, bad margins, forced FPR on an outcome-less dataset, unknown
// format. compas (outcomes) must include FPR by default; school must not.
func TestReportValidationHTTP(t *testing.T) {
	_, ts := newTestServer(t)
	get := func(params map[string]string) (int, string) {
		t.Helper()
		resp, err := http.Get(reportURL(ts.URL, params))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 8192)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}
	cases := []struct {
		name   string
		params map[string]string
		code   int
		want   string
	}{
		{"missing bonus", map[string]string{"dataset": "school", "k": "0.05"}, 400, "missing bonus"},
		{"zero bonus", map[string]string{"dataset": "school", "k": "0.05", "bonus": "0,0,0,0"}, 400, "all zero"},
		{"bad k", map[string]string{"dataset": "school", "k": "1.5", "bonus": "1,2,3,4"}, 400, "fraction"},
		{"bad margins", map[string]string{"dataset": "school", "k": "0.05", "bonus": "1,2,3,4", "margins": "-2"}, 400, "margins"},
		{"oversized margins", map[string]string{"dataset": "school", "k": "0.05", "bonus": "1,2,3,4", "margins": "100000000"}, 400, "limit"},
		{"fpr without outcomes", map[string]string{"dataset": "school", "k": "0.05", "bonus": "1,2,3,4", "fpr": "1"}, 400, "outcomes"},
		{"unknown format", map[string]string{"dataset": "school", "k": "0.05", "bonus": "1,2,3,4", "format": "xml"}, 400, "format"},
		{"unknown dataset", map[string]string{"dataset": "nope", "k": "0.05", "bonus": "1"}, 404, "unknown dataset"},
	}
	for _, tc := range cases {
		code, body := get(tc.params)
		if code != tc.code || !strings.Contains(body, tc.want) {
			t.Errorf("%s: %d %s, want %d mentioning %q", tc.name, code, body, tc.code, tc.want)
		}
	}

	// Default FPR behavior: present with outcomes, absent without.
	code, body := get(map[string]string{"dataset": "compas", "k": "0.2", "bonus": "1,1,1,1,1,1"})
	if code != 200 || !strings.Contains(body, `"fpr_diff"`) {
		t.Errorf("compas report lacks fpr_diff: %d %s", code, body[:min(len(body), 300)])
	}
	code, body = get(map[string]string{"dataset": "school", "k": "0.05", "bonus": "1,2,3,4"})
	if code != 200 || strings.Contains(body, `"fpr_diff"`) {
		t.Errorf("school report unexpectedly carries fpr_diff: %d", code)
	}
	// fpr=0 opts an outcome-bearing dataset out.
	code, body = get(map[string]string{"dataset": "compas", "k": "0.2", "bonus": "1,1,1,1,1,1", "fpr": "0"})
	if code != 200 || strings.Contains(body, `"fpr_diff"`) {
		t.Errorf("fpr=0 still carries fpr_diff: %d", code)
	}
}

// TestReportCoalescing: identical concurrent cold report requests build
// the bundle exactly once. Run under -race in CI.
func TestReportCoalescing(t *testing.T) {
	s, ts := newTestServer(t)
	u := reportURL(ts.URL, map[string]string{"dataset": "school", "k": "0.06", "bonus": "2,2,2,2"})
	const workers = 12
	start := make(chan struct{})
	fails := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			resp, err := http.Get(u)
			if err != nil {
				fails[w] = err.Error()
				return
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				fails[w] = fmt.Sprintf("worker %d: %d", w, resp.StatusCode)
			}
		}(w)
	}
	close(start)
	wg.Wait()
	for _, f := range fails {
		if f != "" {
			t.Fatal(f)
		}
	}
	if got := s.reportExecs.Load(); got != 1 {
		t.Errorf("bundle built %d times for %d identical concurrent requests, want 1", got, workers)
	}
}
