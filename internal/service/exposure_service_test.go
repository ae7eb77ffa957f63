package service

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"fairrank/internal/metrics"
)

// TestEvaluateExposureFamily pins the serving seam of the exposure
// family: /v1/evaluate rows for exposure, expratio and topk are
// bit-identical to the pointwise evaluator calls, exposure norms are the
// DDP recovered from the cached per-capita vector, and a replay answers
// entirely from the per-point cache with the same bytes.
func TestEvaluateExposureFamily(t *testing.T) {
	s, ts := newTestServer(t)
	e, ok := s.reg.Get("compas")
	if !ok {
		t.Fatal("compas not registered")
	}
	bonus := []float64{2, 0, 1.5, 3, 0, 1}
	points := []SweepPointRequest{
		{Bonus: nil, K: 0.05},
		{Bonus: bonus, K: 0.05},
		{Bonus: bonus, K: 0.31},
		{Bonus: bonus, K: 1},
	}
	dims := e.d.NumFair()

	var expo EvaluateResponse
	if code, body := postJSON(t, ts.URL+"/v1/evaluate", EvaluateRequest{Dataset: "compas", Metric: "exposure", Points: points}, &expo); code != 200 {
		t.Fatalf("exposure sweep: %d %s", code, body)
	}
	if len(expo.Vectors) != len(points) || len(expo.Norms) != len(points) || expo.Values != nil {
		t.Fatalf("exposure shape: %d vectors, %d norms, values %v", len(expo.Vectors), len(expo.Norms), expo.Values)
	}
	for i, pt := range points {
		wantVec, wantDDP, err := e.eval.ExposureCtx(context.Background(), pt.Bonus, pt.K)
		if err != nil {
			t.Fatalf("pointwise exposure %d: %v", i, err)
		}
		if len(expo.Vectors[i]) != dims+1 {
			t.Fatalf("exposure row %d is %d wide, want %d (binary groups + rest)", i, len(expo.Vectors[i]), dims+1)
		}
		for j, v := range expo.Vectors[i] {
			if v != wantVec[j] {
				t.Errorf("exposure[%d][%d] = %v, pointwise %v", i, j, v, wantVec[j])
			}
		}
		if expo.Norms[i] != wantDDP {
			t.Errorf("exposure norm %d = %v, pointwise DDP %v", i, expo.Norms[i], wantDDP)
		}
		if ddp, err := metrics.DDPFromPerCapita(expo.Vectors[i]); err != nil || ddp != expo.Norms[i] {
			t.Errorf("norm %d not recoverable from the served vector: (%v, %v)", i, ddp, err)
		}
	}

	for _, metric := range []string{"expratio", "topk"} {
		var resp EvaluateResponse
		if code, body := postJSON(t, ts.URL+"/v1/evaluate", EvaluateRequest{Dataset: "compas", Metric: metric, Points: points}, &resp); code != 200 {
			t.Fatalf("%s sweep: %d %s", metric, code, body)
		}
		if len(resp.Vectors) != len(points) || len(resp.Norms) != len(points) {
			t.Fatalf("%s shape: %d vectors, %d norms", metric, len(resp.Vectors), len(resp.Norms))
		}
		for i, pt := range points {
			var want []float64
			var err error
			if metric == "expratio" {
				want, err = e.eval.ExposureRatioCtx(context.Background(), pt.Bonus, pt.K)
			} else {
				want, err = e.eval.TopKShareCtx(context.Background(), pt.Bonus, pt.K)
			}
			if err != nil {
				t.Fatalf("pointwise %s %d: %v", metric, i, err)
			}
			for j, v := range resp.Vectors[i] {
				if v != want[j] {
					t.Errorf("%s[%d][%d] = %v, pointwise %v", metric, i, j, v, want[j])
				}
			}
			if resp.Norms[i] != metrics.Norm(want) {
				t.Errorf("%s norm %d = %v, want L2 %v", metric, i, resp.Norms[i], metrics.Norm(want))
			}
		}
	}

	// Replay: every point answers from the per-point cache with the same
	// norms (recomputed from the cached vector at gather time).
	var again EvaluateResponse
	if code, body := postJSON(t, ts.URL+"/v1/evaluate", EvaluateRequest{Dataset: "compas", Metric: "exposure", Points: points}, &again); code != 200 {
		t.Fatalf("exposure replay: %d %s", code, body)
	}
	if again.CachedPoints != len(points) {
		t.Errorf("replay cached %d of %d points", again.CachedPoints, len(points))
	}
	for i := range points {
		if again.Norms[i] != expo.Norms[i] {
			t.Errorf("replay norm %d = %v, first answer %v", i, again.Norms[i], expo.Norms[i])
		}
	}
}

// TestExposureCapabilityGuards pins the registry's dataset-capability
// checks: the exposure family refuses the school cohort (its ENI column
// is continuous) with a 400 naming the offending column and the escape
// hatch, and the unknown-metric message lists the full registry.
func TestExposureCapabilityGuards(t *testing.T) {
	_, ts := newTestServer(t)
	points := []SweepPointRequest{{K: 0.1}}
	for _, metric := range []string{"exposure", "expratio", "topk"} {
		code, body := postJSON(t, ts.URL+"/v1/evaluate", EvaluateRequest{Dataset: "school", Metric: metric, Points: points}, nil)
		if code != http.StatusBadRequest {
			t.Fatalf("%s on school: %d %s", metric, code, body)
		}
		for _, want := range []string{"ENI", "WithFairColumns", metric} {
			if !strings.Contains(body, want) {
				t.Errorf("%s rejection %q does not mention %q", metric, body, want)
			}
		}
	}
	code, body := postJSON(t, ts.URL+"/v1/evaluate", EvaluateRequest{Dataset: "school", Metric: "entropy", Points: points}, nil)
	if code != http.StatusBadRequest || !strings.Contains(body, "disparity, ndcg, di, fpr, exposure, expratio or topk") {
		t.Errorf("unknown metric answer: %d %s", code, body)
	}
}

// TestExposureDegenerateSweepAnswers400 pins the degenerate-group path
// end to end: a cut so small that only one group is populated fails the
// sweep with the offending point's index and fraction, identically on
// the direct and the micro-batched path, and caches nothing.
func TestExposureDegenerateSweepAnswers400(t *testing.T) {
	req := EvaluateRequest{Dataset: "compas", Metric: "exposure", Points: []SweepPointRequest{
		{Bonus: []float64{1, 0, 2, 1, 0, 3}, K: 0.2},
		{Bonus: []float64{1, 0, 2, 1, 0, 3}, K: 1.0 / testCohortN}, // top-1 prefix: one populated group
	}}
	_, plain := newDiffServer(t, Config{})
	_, batched := newDiffServer(t, Config{BatchSize: 64, BatchMaxWait: time.Millisecond})
	for name, ts := range map[string]string{"direct": plain.URL, "batched": batched.URL} {
		code, body := postJSON(t, ts+"/v1/evaluate", req, nil)
		if code != http.StatusBadRequest {
			t.Fatalf("%s degenerate sweep: %d %s", name, code, body)
		}
		for _, want := range []string{"sweep point 1", "fewer than two populated exposure groups"} {
			if !strings.Contains(body, want) {
				t.Errorf("%s degenerate answer %q does not mention %q", name, body, want)
			}
		}
		// The good point must not have been cached by the failed sweep.
		good := EvaluateRequest{Dataset: req.Dataset, Metric: req.Metric, Points: req.Points[:1]}
		var resp EvaluateResponse
		if code, body := postJSON(t, ts+"/v1/evaluate", good, &resp); code != 200 {
			t.Fatalf("%s good point after failure: %d %s", name, code, body)
		}
		if resp.CachedPoints != 0 {
			t.Errorf("%s: failed sweep leaked %d points into the cache", name, resp.CachedPoints)
		}
	}
}

// TestReportExposureSection pins the audit-bundle seam: the exposure
// section appears by default exactly when the dataset's fairness
// attributes are all binary, exposure=0 opts out, exposure=1 on a
// continuous-attribute dataset is a 400 naming the column, and the two
// defaults key separate cache entries.
func TestReportExposureSection(t *testing.T) {
	_, ts := newTestServer(t)

	code, body := getJSON(t, ts.URL+"/v1/report?dataset=compas&bonus=1,0,2,1,0,3&k=0.2&format=markdown", nil)
	if code != 200 {
		t.Fatalf("compas report: %d %s", code, body)
	}
	if !strings.Contains(body, "## Exposure") {
		t.Errorf("compas report (all-binary attributes) lacks the exposure section:\n%s", body)
	}

	code, body = getJSON(t, ts.URL+"/v1/report?dataset=compas&bonus=1,0,2,1,0,3&k=0.2&format=markdown&exposure=0", nil)
	if code != 200 {
		t.Fatalf("compas report exposure=0: %d %s", code, body)
	}
	if strings.Contains(body, "## Exposure") {
		t.Errorf("exposure=0 still rendered the section:\n%s", body)
	}

	code, body = getJSON(t, ts.URL+"/v1/report?dataset=school&bonus=1,2,3,4&k=0.2", nil)
	if code != 200 {
		t.Fatalf("school report: %d %s", code, body)
	}
	if strings.Contains(body, "exposure") {
		t.Errorf("school report (continuous ENI) includes an exposure section:\n%s", body)
	}

	code, body = getJSON(t, ts.URL+"/v1/report?dataset=school&bonus=1,2,3,4&k=0.2&exposure=1", nil)
	if code != http.StatusBadRequest || !strings.Contains(body, "ENI") {
		t.Errorf("exposure=1 on school: %d %s, want 400 naming ENI", code, body)
	}

	if code, body = getJSON(t, ts.URL+"/v1/report?dataset=school&bonus=1,2,3,4&k=0.2&exposure=2", nil); code != http.StatusBadRequest {
		t.Errorf("exposure=2: %d %s, want 400", code, body)
	}
}

// TestBatchSweepUnknownMetricFailsLoudly is the regression test for the
// silent metric-kind misrouting: the batched sweep path used to map
// unknown metrics through a switch with no default, so the zero-valued
// BatchKind served DISPARITY rows under whatever name the caller passed.
// A sweep that skipped request validation must refuse instead.
func TestBatchSweepUnknownMetricFailsLoudly(t *testing.T) {
	s, _ := newDiffServer(t, Config{BatchSize: 4, BatchMaxWait: time.Millisecond})
	e, ok := s.reg.Get("compas")
	if !ok {
		t.Fatal("compas not registered")
	}
	req := EvaluateRequest{Dataset: "compas", Metric: "entropy", Points: []SweepPointRequest{{Bonus: []float64{1, 1, 1, 1, 1, 1}, K: 0.1}}}
	resp, err := s.evaluateSweep(context.Background(), e, req)
	if err == nil {
		t.Fatalf("unmapped metric answered (vecs %v, vals %v), want an error", resp.Vectors, resp.Values)
	}
	if !strings.Contains(err.Error(), `"entropy"`) || !strings.Contains(err.Error(), "registry") {
		t.Errorf("error %q does not name the metric and the registry", err)
	}
	if resp.Vectors != nil || resp.Values != nil {
		t.Errorf("failed lookup still returned rows: %v %v", resp.Vectors, resp.Values)
	}
}
