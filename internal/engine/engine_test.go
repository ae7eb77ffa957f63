package engine

import (
	"testing"

	"fairrank/internal/optimize"
)

func TestWorkspaceBuffersGrowAndReuse(t *testing.T) {
	ws := NewWorkspace(3)
	if ws.Dims() != 3 {
		t.Fatalf("Dims = %d, want 3", ws.Dims())
	}
	eff := ws.Eff(10)
	if len(eff) != 10 {
		t.Fatalf("Eff(10) length = %d", len(eff))
	}
	eff[5] = 42
	again := ws.Eff(8)
	if len(again) != 8 || again[5] != 42 {
		t.Fatalf("Eff(8) should reuse storage: len=%d, [5]=%v", len(again), again[5])
	}
	if len(ws.Objective()) != 3 || len(ws.Metric()) != 3 || len(ws.Pop()) != 3 {
		t.Fatal("dimension buffers must have length dims")
	}
	if got := len(ws.Sel(4)); got != 4 {
		t.Fatalf("Sel(4) length = %d", got)
	}
	if got := len(ws.Abs(6)); got != 6 {
		t.Fatalf("Abs(6) length = %d", got)
	}
	if got := len(ws.Ord(7)); got != 7 {
		t.Fatalf("Ord(7) length = %d", got)
	}
	if got := len(ws.SampleBuf(9)); got != 9 {
		t.Fatalf("SampleBuf(9) length = %d", got)
	}
	marks := ws.Marks(20)
	if len(marks) != 20 {
		t.Fatalf("Marks(20) length = %d", len(marks))
	}
	for i, m := range marks {
		if m {
			t.Fatalf("Marks must start all-false, mark[%d] set", i)
		}
	}
}

func TestLadderUpdaterWalksStages(t *testing.T) {
	ladder := optimize.Ladder{{LR: 1.0, Steps: 2}, {LR: 0.1, Steps: 3}}
	u := NewLadderUpdater(ladder, 1)
	b := []float64{10}
	dvec := []float64{1}
	wantLRs := []float64{1.0, 1.0, 0.1, 0.1, 0.1}
	want := 10.0
	for i, wantLR := range wantLRs {
		if got := u.Apply(b, dvec, i); got != wantLR {
			t.Fatalf("step %d: LR = %v, want %v", i, got, wantLR)
		}
		want -= wantLR * dvec[0]
	}
	if b[0] != want {
		t.Fatalf("bonus after ladder = %v, want %v", b[0], want)
	}
}

func TestAdamUpdaterTrailingAverage(t *testing.T) {
	u := NewAdamUpdater(1, 0.5, 1, 4, 2)
	b := []float64{1}
	// Only the last 2 of 4 steps enter the average.
	for i := 0; i < 4; i++ {
		u.Apply(b, []float64{0.1}, i)
		ClampBonus(b, 0)
		u.AfterClamp(b, i)
	}
	snapshot := b[0]
	u.Average(b)
	if b[0] == snapshot && u.count != 0 {
		// Average of trailing iterates rarely equals the final iterate; the
		// real assertion is that exactly two iterates were accumulated.
	}
	if u.count != 2 {
		t.Fatalf("trailing-average count = %d, want 2", u.count)
	}
}

func TestClampBonus(t *testing.T) {
	b := []float64{-1, 0.5, 9}
	ClampBonus(b, 3)
	if b[0] != 0 || b[1] != 0.5 || b[2] != 3 {
		t.Fatalf("ClampBonus = %v", b)
	}
	b2 := []float64{-2, 7}
	ClampBonus(b2, 0) // no cap
	if b2[0] != 0 || b2[1] != 7 {
		t.Fatalf("ClampBonus uncapped = %v", b2)
	}
}

func TestForEachCoversAllTasksDeterministically(t *testing.T) {
	const n = 137
	hits := make([]int, n)
	dims := make([]int, n)
	get := func() *Workspace { return NewWorkspace(5) }
	put := func(*Workspace) {}
	if err := ForEachWSCtx(t.Context(), n, get, put, func(ws *Workspace, i int) {
		hits[i]++
		dims[i] = ws.Dims()
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if hits[i] != 1 {
			t.Fatalf("task %d ran %d times", i, hits[i])
		}
		if dims[i] != 5 {
			t.Fatalf("task %d saw workspace dims %d", i, dims[i])
		}
	}
	if err := ForEachWSCtx(t.Context(), 0, get, put, func(*Workspace, int) { t.Fatal("ForEachWSCtx(0) must not run tasks") }); err != nil {
		t.Fatal(err)
	}
}
