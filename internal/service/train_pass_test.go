package service

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"fairrank/internal/metrics"
	"fairrank/internal/rank"
	"fairrank/internal/synth"
)

// TestColdTrainOneRankedPass pins the cold train pipeline's ranking
// budget and its bytes: the trained vector's disparity and nDCG come from
// one shared ranked pass (one full ranking or one combo-run merge), and
// the response is byte for byte what the separate pointwise evaluations
// produce.
func TestColdTrainOneRankedPass(t *testing.T) {
	s, ts := newTestServer(t)
	cases := []TrainRequest{
		{Dataset: "school", K: 0.05, Seed: 3},
		{Dataset: "school", K: 0.05, Seed: 4},
		{Dataset: "school", K: 0.3, Objective: "logdisc"},
		{Dataset: "school", K: 0.6, Mode: ModeCore},
		{Dataset: "compas", K: 0.2, Objective: "fpr"},
	}
	for _, req := range cases {
		t.Run(fmt.Sprintf("%s-k%g-%s-%s-seed%d", req.Dataset, req.K, req.Objective, req.Mode, req.Seed), func(t *testing.T) {
			e, ok := s.reg.Get(req.Dataset)
			if !ok {
				t.Fatalf("dataset %q not registered", req.Dataset)
			}
			passes := func() int64 { return e.eval.RankingCount() + e.eval.MergeCount() }
			before := passes()
			var got TrainResponse
			code, body := postJSON(t, ts.URL+"/v1/train", req, &got)
			if code != 200 {
				t.Fatalf("%d %s", code, body)
			}
			if d := passes() - before; d != 1 {
				t.Errorf("cold train took %d ranked passes, want 1", d)
			}

			// The same response built from the pointwise evaluations.
			want := got
			var err error
			if want.DisparityAfter, err = e.eval.DisparityCtx(context.Background(), got.Bonus, req.K); err != nil {
				t.Fatal(err)
			}
			if want.NDCG, err = e.eval.NDCGCtx(context.Background(), got.Bonus, req.K); err != nil {
				t.Fatal(err)
			}
			want.NormAfter = metrics.Norm(want.DisparityAfter)
			rec := httptest.NewRecorder()
			writeJSON(rec, 200, want)
			if rec.Body.String() != body {
				t.Errorf("response bytes differ from the pointwise evaluations:\n got %s\nwant %s", body, rec.Body.String())
			}
		})
	}
}

// TestColdTrainNDCGErrorSurfaces: a failed answer in the shared pass is
// the request's failure, not a zero in the response. Under all-zero base
// scores the ideal DCG is zero, so the trained vector's nDCG is undefined.
func TestColdTrainNDCGErrorSurfaces(t *testing.T) {
	school, err := synth.GenerateSchool(schoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	flat := rank.WeightedSum{Weights: make([]float64, school.NumScore())}
	if err := s.Register("flat", school, flat, rank.Beneficial); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, body := postJSON(t, ts.URL+"/v1/train", TrainRequest{Dataset: "flat", K: 0.05}, nil)
	if code != 500 || !strings.Contains(body, metrics.ErrZeroIdealDCG.Error()) {
		t.Fatalf("train on all-zero scores: %d %s, want 500 naming %q", code, body, metrics.ErrZeroIdealDCG)
	}
}
