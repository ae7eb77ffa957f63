package experiments

import (
	"strings"
	"testing"

	"fairrank/internal/metrics"
	"fairrank/internal/synth"
)

// tinyConfig keeps the smoke tests fast: small cohorts, short sweeps.
func tinyConfig() Config {
	cfg := QuickConfig()
	cfg.SchoolN = 8000
	cfg.KSweep = []float64{0.05, 0.3}
	cfg.WSweep = []float64{0.5, 1}
	cfg.CapSweep = []float64{0, 10}
	compas := synth.DefaultCompasConfig()
	compas.N = 4000
	cfg.Compas = compas
	return cfg
}

// TestAllExperimentsRunAndRender executes every registered experiment on a
// tiny environment and checks that it renders non-empty output — the
// regression net for the whole harness.
func TestAllExperimentsRunAndRender(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment registry")
	}
	env := NewEnv(tinyConfig())
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			r, err := e.Run(env)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			var sb strings.Builder
			if err := r.Render(&sb); err != nil {
				t.Fatalf("render %s: %v", e.ID, err)
			}
			if len(strings.TrimSpace(sb.String())) == 0 {
				t.Errorf("%s rendered empty output", e.ID)
			}
		})
	}
}

func TestRegistryLookup(t *testing.T) {
	if _, err := Lookup("table1"); err != nil {
		t.Errorf("table1 missing: %v", err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown id: expected error")
	}
	ids := IDs()
	if len(ids) != len(All()) {
		t.Errorf("IDs() has %d entries, registry %d", len(ids), len(All()))
	}
	seen := make(map[string]bool)
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate experiment id %q", id)
		}
		seen[id] = true
	}
}

// TestTable1ShapeMatchesPaper asserts the headline reproduction targets on
// a mid-size cohort: baseline norm ≈ 0.37, DCA norm < 0.1 on train and
// test, all baseline dimensions negative, refinement no worse than core.
func TestTable1ShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("trains DCA")
	}
	cfg := tinyConfig()
	cfg.SchoolN = 20000
	env := NewEnv(cfg)
	r, err := Table1(env)
	if err != nil {
		t.Fatal(err)
	}
	res := r.(*Table1Result)
	if n := metrics.Norm(res.BaselineTrain); n < 0.3 || n > 0.45 {
		t.Errorf("baseline train norm = %.3f, want ≈ 0.37", n)
	}
	for j, v := range res.BaselineTrain {
		if v >= 0 {
			t.Errorf("baseline disparity[%d] = %v, want negative", j, v)
		}
	}
	if n := metrics.Norm(res.DCATrain); n > 0.1 {
		t.Errorf("DCA train norm = %.3f, want < 0.1", n)
	}
	if n := metrics.Norm(res.DCATest); n > 0.12 {
		t.Errorf("DCA test norm = %.3f, want < 0.12", n)
	}
	if metrics.Norm(res.DCATrain) > metrics.Norm(res.CoreTrain)+0.02 {
		t.Errorf("refinement (%v) materially worse than core (%v)",
			metrics.Norm(res.DCATrain), metrics.Norm(res.CoreTrain))
	}
}

// TestFig4Crossover pins the paper's Figure 4b/4c relationship: the
// vector trained for k=5% beats the log-discounted vector exactly at
// k=5%, while the log-discounted vector wins on the (discount-weighted)
// average across k.
func TestFig4Crossover(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two DCA vectors")
	}
	cfg := tinyConfig()
	cfg.SchoolN = 30000
	cfg.KSweep = []float64{0.05, 0.15, 0.25, 0.35, 0.5}
	env := NewEnv(cfg)
	testEval, err := env.TestEval()
	if err != nil {
		t.Fatal(err)
	}
	atK, err := env.DCAAtK(0.05)
	if err != nil {
		t.Fatal(err)
	}
	logDisc, err := env.LogDiscDCA()
	if err != nil {
		t.Fatal(err)
	}
	norm := func(b []float64, k float64) float64 {
		d, err := testEval.DisparityCtx(t.Context(), b, k)
		if err != nil {
			t.Fatal(err)
		}
		return metrics.Norm(d)
	}
	if a, l := norm(atK.Bonus, 0.05), norm(logDisc.Bonus, 0.05); a >= l {
		t.Errorf("at k=0.05 the point-trained vector (%.3f) should beat log-discounted (%.3f)", a, l)
	}
	var sumAtK, sumLog float64
	for _, k := range []float64{0.15, 0.25, 0.35, 0.5} {
		sumAtK += norm(atK.Bonus, k)
		sumLog += norm(logDisc.Bonus, k)
	}
	if sumLog >= sumAtK {
		t.Errorf("away from the trained k, log-discounted (avg %.3f) should beat point-trained (avg %.3f)",
			sumLog/4, sumAtK/4)
	}
}

func TestSampleSizeFor(t *testing.T) {
	if got := SampleSizeFor(0.05, 0.10); got != 500 {
		t.Errorf("default case = %d, want the paper's 500", got)
	}
	if got := SampleSizeFor(0.01, 0.10); got != 2500 {
		t.Errorf("small k = %d, want 2500", got)
	}
	if got := SampleSizeFor(0.5, 0.005); got != 10000 {
		t.Errorf("rare group = %d, want 10000 (capped at the dataset by core)", got)
	}
}

func TestEnvMemoization(t *testing.T) {
	env := NewEnv(tinyConfig())
	a, err := env.Train()
	if err != nil {
		t.Fatal(err)
	}
	b, err := env.Train()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Train() not memoized")
	}
	r1, err := env.DCAAtK(0.05)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := env.DCAAtK(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if &r1.Bonus[0] != &r2.Bonus[0] {
		t.Error("DCAAtK not memoized")
	}
}
