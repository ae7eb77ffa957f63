package main

import (
	"net/http"
	"testing"
	"time"
)

// TestPhaseTwoClients drives the portal loop's two clients against a live
// service for two short chunks; run with -race it checks the runner's
// shared tallies.
func TestPhaseTwoClients(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the paper-sized cohorts")
	}
	dir := t.TempDir()
	if err := writeCohorts(dir); err != nil {
		t.Fatal(err)
	}
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	lv, _, err := startLive(dir, hc)
	if err != nil {
		t.Fatal(err)
	}
	defer lv.stop()
	rn, err := newRunner("portal", 1, hc, lv.base)
	if err != nil {
		t.Fatal(err)
	}
	if rn.clients != 2 {
		t.Fatalf("portal runs %d clients, want 2", rn.clients)
	}
	rn.record = true
	probes := 0
	rn.phase(2, 100*time.Millisecond, func() { probes++ })
	if rn.failed != 0 || rn.attempted == 0 || len(rn.lat) != rn.attempted {
		t.Fatalf("attempted %d, failed %d, %d latencies: %v", rn.attempted, rn.failed, len(rn.lat), rn.errs)
	}
	if probes != 2 || len(rn.chunkEnds) != 2 || rn.chunkEnds[1] != len(rn.lat) {
		t.Fatalf("%d probes and chunk ends %v for %d ops", probes, rn.chunkEnds, len(rn.lat))
	}
	if rn.units != rn.attempted || rn.cached > rn.units {
		t.Fatalf("%d units, %d cached for %d single-object ops", rn.units, rn.cached, rn.attempted)
	}
}
