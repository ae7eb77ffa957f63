package main

import (
	"container/list"
	"reflect"
	"testing"

	"fairrank/internal/service"
)

func ops(t *testing.T, workload string, seed int64, n int) []op {
	t.Helper()
	s, err := newStream(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]op, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}

func TestStreamSeeded(t *testing.T) {
	for _, w := range workloads {
		a, b, c := ops(t, w, 5, 300), ops(t, w, 5, 300), ops(t, w, 6, 300)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two streams seeded 5 differ", w)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: streams seeded 5 and 6 are identical", w)
		}
	}
	if _, err := newStream("nosuch", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestWhatifNeverReuses pins the whatif property the workload exists for:
// no op repeats a bonus vector, so no request can hit the cache.
func TestWhatifNeverReuses(t *testing.T) {
	seen := make(map[unitKey]bool)
	for _, o := range ops(t, "whatif", 3, 2000) {
		for i := range o.reqs {
			o.reqs[i].unitKeys(func(k unitKey) {
				if seen[k] {
					t.Fatalf("op %d reuses a %s key", o.id, k.kind)
				}
				seen[k] = true
			})
		}
	}
}

// TestPortalHitShare replays the portal stream through an LRU of the
// service's default size: the hit share must leave both latency classes
// a margin, so p50 reads a hit and p90 a miss.
func TestPortalHitShare(t *testing.T) {
	const warm, n = 5000, 60000
	ll := list.New()
	items := make(map[unitKey]*list.Element)
	hits := 0
	for _, o := range ops(t, "portal", 11, n) {
		o.reqs[0].unitKeys(func(k unitKey) {
			if el, ok := items[k]; ok {
				ll.MoveToFront(el)
				if o.id >= warm {
					hits++
				}
				return
			}
			items[k] = ll.PushFront(k)
			if ll.Len() > service.DefaultCacheSize {
				delete(items, ll.Remove(ll.Back()).(unitKey))
			}
		})
	}
	share := float64(hits) / float64(n-warm)
	if share < 0.62 || share > 0.8 {
		t.Fatalf("portal LRU hit share %.3f, want within [0.62, 0.80]", share)
	}
}

func TestSampledShare(t *testing.T) {
	kept := 0
	for id := 0; id < 64000; id++ {
		if sampled(9, id, 64) {
			kept++
		}
	}
	if kept < 800 || kept > 1200 {
		t.Fatalf("kept %d of 64000 ops at 1/64, want about 1000", kept)
	}
}
