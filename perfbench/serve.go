package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"fairrank/internal/rank"
	"fairrank/internal/service"
)

// newServer builds a fairrankd service the way fairrankd does for CSV
// datasets: the default Config (no batch window, the default LRU and
// admission), each cohort read through csvio and registered with its
// weights and polarity, then marked ready.
func newServer(dir string) (*service.Server, error) {
	s := service.New(service.Config{})
	for _, spec := range cohortSpecs {
		d, err := readCohort(dir, spec.name)
		if err != nil {
			return nil, err
		}
		if err := s.Register(spec.name, d, rank.WeightedSum{Weights: spec.weights}, spec.pol); err != nil {
			return nil, err
		}
	}
	s.MarkReady()
	return s, nil
}

// live is a service listening on a loopback port.
type live struct {
	hs   *http.Server
	base string
	done chan error
}

// startLive sets up a service behind a loopback listener and waits until
// /readyz answers 200, returning the time that took.
func startLive(dir string, hc *http.Client) (*live, time.Duration, error) {
	start := time.Now()
	srv, err := newServer(dir)
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	l := &live{
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { l.done <- l.hs.Serve(ln) }()
	for attempt := 0; ; attempt++ {
		resp, err := hc.Get(l.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return l, time.Since(start), nil
			}
		}
		if attempt == 1000 {
			l.stop()
			return nil, 0, fmt.Errorf("service never became ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the listener down and waits for the serve loop to exit.
func (l *live) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	if serr := <-l.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// rankCounts sums the evaluators' ranking and merge counters over every
// dataset, as /v1/datasets reports them.
func rankCounts(hc *http.Client, base string) (rankings, merges int64, err error) {
	resp, err := hc.Get(base + "/v1/datasets")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var infos []service.DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		return 0, 0, err
	}
	for _, in := range infos {
		if in.RankStats != nil {
			rankings += in.RankStats.RankingCount
			merges += in.RankStats.MergeCount
		}
	}
	return rankings, merges, nil
}

// encode returns a request's method, target and body on the wire.
func encode(r *request) (method, target string, body []byte, err error) {
	switch r.kind {
	case kTrain:
		body, err = json.Marshal(service.TrainRequest{Dataset: r.dataset, K: r.k, Seed: r.seed})
		return http.MethodPost, "/v1/train", body, err
	case kEvaluate:
		pts := make([]service.SweepPointRequest, len(r.ks))
		for i, k := range r.ks {
			pts[i] = service.SweepPointRequest{Bonus: r.bonus, K: k}
		}
		body, err = json.Marshal(service.EvaluateRequest{Dataset: r.dataset, Metric: r.metric, Points: pts})
		return http.MethodPost, "/v1/evaluate", body, err
	case kCounterfactual:
		body, err = json.Marshal(service.CounterfactualRequest{Dataset: r.dataset, Bonus: r.bonus, K: r.k, Objects: r.objects})
		return http.MethodPost, "/v1/counterfactual", body, err
	}
	q := "?dataset=" + r.dataset + "&k=" + strconv.FormatFloat(r.k, 'g', -1, 64) + "&bonus=" + formatBonus(r.bonus)
	if r.kind == kExplain {
		return http.MethodGet, "/v1/explain" + q, nil, nil
	}
	return http.MethodGet, "/v1/report" + q + "&format=" + r.format, nil, nil
}

func formatBonus(b []float64) string {
	parts := make([]string, len(b))
	for i, v := range b {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

// send performs one request against base and returns the status and the
// whole response body.
func send(hc *http.Client, base, method, target string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, base+target, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}
