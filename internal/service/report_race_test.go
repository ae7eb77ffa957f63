package service

import (
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sync"
	"testing"
)

// TestReportCounterfactualSharedBundleStats pins the cross-endpoint
// sharing contract: one GET /v1/report runs one BundleData pass, and its
// margin-window counterfactuals land in the per-object cache under the
// same keys POST /v1/counterfactual uses — so auditing the boundary
// objects of a freshly built bundle costs zero additional rankings and
// returns bit-identical rows.
func TestReportCounterfactualSharedBundleStats(t *testing.T) {
	s, ts := newTestServer(t)
	const bonus = "2,10.5,9,12"
	bonusVec := []float64{2, 10.5, 9, 12}

	resp, err := http.Get(reportURL(ts.URL, map[string]string{
		"dataset": "school", "k": "0.05", "bonus": bonus, "margins": "4",
	}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("report: %d", resp.StatusCode)
	}
	if got := s.reportExecs.Load(); got != 1 {
		t.Fatalf("bundle built %d times, want 1", got)
	}

	// The margin window at k=0.05 over 2500 objects spans ranks 121..128;
	// ask for those same boundary objects through /v1/counterfactual.
	e, _ := s.reg.Get("school")
	order, err := e.eval.Order(bonusVec)
	if err != nil {
		t.Fatal(err)
	}
	window := order[121:129]
	var cf CounterfactualResponse
	code, body := postJSON(t, ts.URL+"/v1/counterfactual",
		CounterfactualRequest{Dataset: "school", Bonus: bonusVec, K: 0.05, Objects: window}, &cf)
	if code != 200 {
		t.Fatalf("counterfactual: %d %s", code, body)
	}
	if cf.CachedObjects != len(window) {
		t.Errorf("%d of %d boundary objects answered from the shared bundle pass", cf.CachedObjects, len(window))
	}
	if got := s.cfExecs.Load(); got != 0 {
		t.Errorf("counterfactual batch ran %d times after the bundle seeded the cache, want 0", got)
	}
	// The seeded rows must be exactly what the counterfactual engine
	// would compute.
	want, err := e.eval.CounterfactualBatchCtx(t.Context(), bonusVec, 0.05, window)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range cf.Results {
		w := want[i]
		if got.Object != w.Object || got.Rank != w.Rank || got.ScoreDelta != w.ScoreDelta ||
			got.BonusDelta != w.BonusDelta || got.Cutoff != w.Cutoff || got.Competitor != w.Competitor ||
			got.Feasible != w.Feasible || !reflect.DeepEqual(got.PerAttribute, w.PerAttribute) {
			t.Errorf("seeded row %d = %+v, engine says %+v", i, got, w)
		}
	}
}

// TestReportCounterfactualConcurrentCold hammers GET /v1/report (two
// formats) and POST /v1/counterfactual concurrently against one cold
// dataset under -race: the report flights must coalesce into exactly one
// BundleData pass, at most one counterfactual batch may run (followers
// coalesce; after the leader, the per-object cache answers), and every
// response must be byte-identical to its format leader's.
func TestReportCounterfactualConcurrentCold(t *testing.T) {
	s, ts := newTestServer(t)
	const workers = 8
	const bonus = "2,10.5,9,12"
	bonusVec := []float64{2, 10.5, 9, 12}
	objs := []int{0, 60, 124, 125, 126, 2400}

	reportBodies := make(map[string][][]byte) // format -> bodies
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, 3*workers)
	for w := 0; w < workers; w++ {
		for _, format := range []string{"json", "md"} {
			wg.Add(1)
			go func(format string) {
				defer wg.Done()
				resp, err := http.Get(reportURL(ts.URL, map[string]string{
					"dataset": "school", "k": "0.05", "bonus": bonus, "format": format,
				}))
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("report %s: %d", format, resp.StatusCode)
					return
				}
				mu.Lock()
				reportBodies[format] = append(reportBodies[format], body)
				mu.Unlock()
			}(format)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cf CounterfactualResponse
			code, body := postJSON(t, ts.URL+"/v1/counterfactual",
				CounterfactualRequest{Dataset: "school", Bonus: bonusVec, K: 0.05, Objects: objs}, &cf)
			if code != 200 {
				errs <- fmt.Errorf("counterfactual: %d %s", code, body)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := s.reportExecs.Load(); got != 1 {
		t.Errorf("BundleData pass ran %d times under %d concurrent report requests, want exactly 1", got, 2*workers)
	}
	if got := s.cfExecs.Load(); got > 1 {
		t.Errorf("counterfactual batch ran %d times, want at most 1 (coalesced or cache-fed)", got)
	}
	for format, bodies := range reportBodies {
		if len(bodies) != workers {
			t.Fatalf("%s: %d responses, want %d", format, len(bodies), workers)
		}
		for i, b := range bodies[1:] {
			if string(b) != string(bodies[0]) {
				t.Errorf("%s response %d differs from the leader's", format, i+1)
			}
		}
	}
}
