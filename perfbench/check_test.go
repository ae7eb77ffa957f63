package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestGateCatchesMismatch runs one op of each workload against an
// in-process service, checks that the gate accepts every answer, and that
// it rejects the same answer with one byte changed.
func TestGateCatchesMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the paper-sized cohorts")
	}
	dir := t.TempDir()
	if err := writeCohorts(dir); err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	lib, err := newCohorts(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, w := range workloads {
		s, err := newStream(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		o := s.Next()
		var trained []float64
		for i := range o.reqs {
			r := &o.reqs[i]
			if r.fromTrain {
				r.bonus = trained
			}
			method, target, body, err := encode(r)
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", w, r.kind, rec.Code, rec.Body.Bytes())
			}
			resp := rec.Body.Bytes()
			b, _, err := parse(r, resp)
			if err != nil {
				t.Fatalf("%s %s: %v", w, r.kind, err)
			}
			if r.kind == kTrain {
				trained = b
			}
			if err := verify(ctx, lib[r.dataset], r, resp, nil); err != nil {
				t.Fatalf("%s %s: gate rejects the service's answer: %v", w, r.kind, err)
			}
			// Change the leading digit of the first number after the midpoint.
			bad := bytes.Clone(resp)
			for j := len(bad) / 2; j < len(bad); j++ {
				if bad[j] >= '0' && bad[j] <= '8' && bytes.IndexByte([]byte(":,[ |-"), bad[j-1]) >= 0 {
					bad[j]++
					break
				}
			}
			if bytes.Equal(bad, resp) {
				t.Fatalf("%s %s: found no digit to change", w, r.kind)
			}
			if err := verify(ctx, lib[r.dataset], r, bad, nil); err == nil {
				t.Errorf("%s %s: gate accepts an answer with one digit changed", w, r.kind)
			}
		}
	}
}
