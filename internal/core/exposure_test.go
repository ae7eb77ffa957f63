package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/metrics"
	"fairrank/internal/rank"
)

// binarySweepDataset is sweepDataset's binary-attributes-only sibling: the
// exposure family refuses continuous attributes, so its differential tests
// need a cohort where every fairness column is {0, 1}. Outcomes are
// present so the exposure/merit ratio is exercised too.
func binarySweepDataset(t testing.TB, n int, seed int64) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := dataset.NewBuilder([]string{"s1", "s2"}, []string{"binary", "rare"})
	for i := 0; i < n; i++ {
		bin := float64(rng.Intn(2))
		rare := 0.0
		if rng.Float64() < 0.07 {
			rare = 1
		}
		score := []float64{rng.NormFloat64() - 2*bin - rare, rng.Float64()}
		b.AddWithOutcome(score, []float64{bin, rare}, rng.Float64() < 0.4)
	}
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// exposureKGrid is randomKGrid with a floor: a count-1 prefix populates a
// single group, which is the (separately pinned) degenerate case, not a
// comparison point — the ndcg-style contract fails the whole sweep on it.
// Duplicates, unsorted order, and k=1.0 are still exercised.
func exposureKGrid(rng *rand.Rand, size int) []float64 {
	ks := []float64{0.05, 1.0}
	for len(ks) < size {
		k := 0.05 + 0.95*rng.Float64()
		ks = append(ks, k)
		if rng.Intn(3) == 0 {
			ks = append(ks, k)
		}
	}
	rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	return ks
}

// TestExposureSweepBitIdenticalToPointwise is the exposure family's
// instance of the sweep property test: for random bonus vectors and
// k-grids (duplicated, unsorted, k=1/n and k=1.0 included), every sweep
// output — per-capita exposure rows, exposure/merit ratios, top-K shares —
// must equal the pointwise evaluator bit for bit, on the homogeneous
// rank-once path and the heterogeneous per-point fallback alike. The DDP
// recovered from the sweep row must match the pointwise DDP too (the row
// cache depends on that recovery).
func TestExposureSweepBitIdenticalToPointwise(t *testing.T) {
	d := binarySweepDataset(t, 1500, 907)
	scorer := rank.WeightedSum{Weights: []float64{0.7, 0.3}}
	for _, pol := range []rank.Polarity{rank.Beneficial, rank.Adverse} {
		ev := NewEvaluator(d, scorer, pol)
		rng := rand.New(rand.NewSource(29 + int64(pol)))
		for trial := 0; trial < 8; trial++ {
			var points []SweepPoint
			if trial%3 == 2 {
				ks := exposureKGrid(rng, 6)
				for _, k := range ks {
					points = append(points, SweepPoint{Bonus: randomBonus(rng, d.NumFair()), K: k})
				}
			} else {
				bonus := randomBonus(rng, d.NumFair())
				for _, k := range exposureKGrid(rng, 9) {
					points = append(points, SweepPoint{Bonus: bonus, K: k})
				}
			}
			checkExposureSweepMatchesPointwise(t, ev, points)
			if t.Failed() {
				t.Fatalf("trial %d (polarity %v) diverged", trial, pol)
			}
		}
	}
}

func checkExposureSweepMatchesPointwise(t *testing.T, ev *Evaluator, points []SweepPoint) {
	t.Helper()
	// Pointwise first: a degenerate-group point (one populated group in the
	// prefix — data-dependent, e.g. a strong bonus making the whole prefix
	// one group) must fail the sweep the same way, so it is a first-class
	// outcome of the property, not a case to dodge.
	wantExpo := make([][]float64, len(points))
	wantDDP := make([]float64, len(points))
	degenerate := false
	for i, pt := range points {
		v, ddp, err := ev.ExposureCtx(t.Context(), pt.Bonus, pt.K)
		if errors.Is(err, metrics.ErrDegenerateGroups) {
			degenerate = true
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		wantExpo[i], wantDDP[i] = v, ddp
	}
	ref := newReference(ev)
	for i, pt := range points {
		if wantExpo[i] != nil {
			ref.checkMetric(t, "pointwise exposure", BatchExposure, pt.Bonus, pt.K, BatchAnswer{Vector: wantExpo[i], Value: wantDDP[i]})
		}
	}
	expo, err := ev.ExposureSweepCtx(t.Context(), points)
	switch {
	case degenerate:
		if !errors.Is(err, metrics.ErrDegenerateGroups) {
			t.Fatalf("pointwise degenerate but ExposureSweep err = %v", err)
		}
	case err != nil:
		t.Fatalf("ExposureSweep: %v", err)
	default:
		for i, pt := range points {
			for j := range wantExpo[i] {
				if expo[i][j] != wantExpo[i][j] {
					t.Errorf("point %d (k=%g) group %d: sweep exposure %v != pointwise %v", i, pt.K, j, expo[i][j], wantExpo[i][j])
				}
			}
			gotDDP, err := metrics.DDPFromPerCapita(expo[i])
			if err != nil {
				t.Fatalf("point %d (k=%g): DDPFromPerCapita on sweep row: %v", i, pt.K, err)
			}
			if gotDDP != wantDDP[i] {
				t.Errorf("point %d (k=%g): recovered DDP %v != pointwise %v", i, pt.K, gotDDP, wantDDP[i])
			}
		}
	}

	// The ratio and share metrics map degenerate denominators to 0, so they
	// compare point for point unconditionally.
	ratio, err := ev.ExpRatioSweepCtx(t.Context(), points)
	if err != nil {
		t.Fatalf("ExpRatioSweep: %v", err)
	}
	topk, err := ev.TopKSweepCtx(t.Context(), points)
	if err != nil {
		t.Fatalf("TopKSweep: %v", err)
	}
	for i, pt := range points {
		if ev.Dataset().HasOutcomes() {
			ref.checkMetric(t, "expratio sweep", BatchExpRatio, pt.Bonus, pt.K, BatchAnswer{Vector: ratio[i]})
		}
		ref.checkMetric(t, "topk sweep", BatchTopK, pt.Bonus, pt.K, BatchAnswer{Vector: topk[i]})
		wantRatio, err := ev.ExposureRatioCtx(t.Context(), pt.Bonus, pt.K)
		if err != nil {
			t.Fatal(err)
		}
		wantTopK, err := ev.TopKShareCtx(t.Context(), pt.Bonus, pt.K)
		if err != nil {
			t.Fatal(err)
		}
		for j := range wantRatio {
			if ratio[i][j] != wantRatio[j] {
				t.Errorf("point %d (k=%g) dim %d: sweep expratio %v != pointwise %v", i, pt.K, j, ratio[i][j], wantRatio[j])
			}
			if topk[i][j] != wantTopK[j] {
				t.Errorf("point %d (k=%g) dim %d: sweep topk %v != pointwise %v", i, pt.K, j, topk[i][j], wantTopK[j])
			}
		}
	}
}

// TestExposureBatchMatchesSweep pins the shared batch pass to the sweep
// engine for the three new kinds: heterogeneous same-bonus queries
// answered by AnswerBatch must be bit-identical to the per-request sweeps,
// and a BatchExposure answer carries the DDP in Value.
func TestExposureBatchMatchesSweep(t *testing.T) {
	d := binarySweepDataset(t, 1200, 911)
	ev := NewEvaluator(d, rank.WeightedSum{Weights: []float64{0.7, 0.3}}, rank.Beneficial)
	bonus := []float64{1.5, 0.25}
	ks := []float64{0.02, 0.5, 0.02, 0.91, 1.0}
	var qs []BatchQuery
	var pts []SweepPoint
	for _, k := range ks {
		qs = append(qs,
			BatchQuery{Kind: BatchExposure, K: k},
			BatchQuery{Kind: BatchExpRatio, K: k},
			BatchQuery{Kind: BatchTopK, K: k},
		)
		pts = append(pts, SweepPoint{Bonus: bonus, K: k})
	}
	answers, err := ev.AnswerBatchCtx(t.Context(), bonus, qs)
	if err != nil {
		t.Fatal(err)
	}
	expo, err := ev.ExposureSweepCtx(t.Context(), pts)
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := ev.ExpRatioSweepCtx(t.Context(), pts)
	if err != nil {
		t.Fatal(err)
	}
	topk, err := ev.TopKSweepCtx(t.Context(), pts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ks {
		ea, ra, ta := answers[3*i], answers[3*i+1], answers[3*i+2]
		if ea.Err != nil || ra.Err != nil || ta.Err != nil {
			t.Fatalf("k=%g: batch errors %v %v %v", ks[i], ea.Err, ra.Err, ta.Err)
		}
		wantDDP, err := metrics.DDPFromPerCapita(expo[i])
		if err != nil {
			t.Fatal(err)
		}
		if ea.Value != wantDDP {
			t.Errorf("k=%g: batch DDP %v != sweep-recovered %v", ks[i], ea.Value, wantDDP)
		}
		for j := range ea.Vector {
			if ea.Vector[j] != expo[i][j] {
				t.Errorf("k=%g group %d: batch exposure %v != sweep %v", ks[i], j, ea.Vector[j], expo[i][j])
			}
		}
		for j := range ra.Vector {
			if ra.Vector[j] != ratio[i][j] {
				t.Errorf("k=%g dim %d: batch expratio %v != sweep %v", ks[i], j, ra.Vector[j], ratio[i][j])
			}
			if ta.Vector[j] != topk[i][j] {
				t.Errorf("k=%g dim %d: batch topk %v != sweep %v", ks[i], j, ta.Vector[j], topk[i][j])
			}
		}
	}
}

// TestExposureGuards pins the capability errors: continuous fairness
// attributes are refused up front with the offending column named (never
// silently thresholded), and the exposure/merit ratio requires outcomes.
func TestExposureGuards(t *testing.T) {
	// sweepDataset's "eni" column is continuous.
	cont := sweepDataset(t, 300, 5)
	ev := NewEvaluator(cont, rank.WeightedSum{Weights: []float64{0.7, 0.3}}, rank.Beneficial)
	if _, _, err := ev.ExposureCtx(t.Context(), nil, 0.5); err == nil || !strings.Contains(err.Error(), `"eni"`) {
		t.Errorf("Exposure on continuous attrs = %v, want error naming eni", err)
	}
	for name, call := range map[string]func() error{
		"ExposureSweep": func() error { _, err := ev.ExposureSweepCtx(t.Context(), []SweepPoint{{K: 0.5}}); return err },
		"ExpRatioSweep": func() error { _, err := ev.ExpRatioSweepCtx(t.Context(), []SweepPoint{{K: 0.5}}); return err },
		"TopKSweep":     func() error { _, err := ev.TopKSweepCtx(t.Context(), []SweepPoint{{K: 0.5}}); return err },
		"batch": func() error {
			_, err := ev.AnswerBatchCtx(t.Context(), nil, []BatchQuery{{Kind: BatchExposure, K: 0.5}})
			return err
		},
		"bundle": func() error {
			_, err := ev.BundleStatsCtx(t.Context(), BundleStatsConfig{K: 0.5, IncludeExposure: true})
			return err
		},
	} {
		if err := call(); err == nil || !strings.Contains(err.Error(), "continuous") {
			t.Errorf("%s on continuous attrs = %v, want continuous-attribute error", name, err)
		}
	}

	// tinyDataset is binary but has no outcomes: the ratio refuses, the
	// other two family members work.
	bin := tinyDataset(t, 200, 9)
	ev2 := NewEvaluator(bin, rank.WeightedSum{Weights: []float64{1}}, rank.Beneficial)
	if _, err := ev2.ExposureRatioCtx(t.Context(), nil, 0.5); err == nil || !strings.Contains(err.Error(), "outcomes") {
		t.Errorf("ExposureRatio without outcomes = %v", err)
	}
	if _, err := ev2.ExpRatioSweepCtx(t.Context(), []SweepPoint{{K: 0.5}}); err == nil || !strings.Contains(err.Error(), "outcomes") {
		t.Errorf("ExpRatioSweep without outcomes = %v", err)
	}
	if _, err := ev2.AnswerBatchCtx(t.Context(), nil, []BatchQuery{{Kind: BatchExpRatio, K: 0.5}}); err == nil || !strings.Contains(err.Error(), "outcomes") {
		t.Errorf("BatchExpRatio without outcomes = %v", err)
	}
	if _, _, err := ev2.ExposureCtx(t.Context(), nil, 0.5); err != nil {
		t.Errorf("Exposure on outcome-less binary dataset: %v", err)
	}
	if _, err := ev2.TopKShareCtx(t.Context(), nil, 0.5); err != nil {
		t.Errorf("TopKShare on outcome-less binary dataset: %v", err)
	}

	// An invalid fraction is reported with its point index.
	if _, err := ev2.ExposureSweepCtx(t.Context(), []SweepPoint{{K: 0.5}, {K: 0}}); err == nil || !strings.Contains(err.Error(), "sweep point 1") {
		t.Errorf("ExposureSweep k=0 error = %v, want point-1 location", err)
	}
}

// TestExposureDegenerateIsolation pins satellite 2's serving contract: a
// selection whose prefix populates fewer than two groups is the POINT's
// failure. The sweep wraps it with the point index (the ndcg model); the
// batch isolates it to the query's own Err while batchmates still answer.
func TestExposureDegenerateIsolation(t *testing.T) {
	// Everyone is in group "f": the rest group is empty at every cut, so
	// only one group is ever populated.
	n := 60
	score := make([]float64, n)
	fair := make([]float64, n)
	for i := range score {
		score[i] = float64(i)
		fair[i] = 1
	}
	d, err := dataset.New([]string{"s"}, []string{"f"}, [][]float64{score}, [][]float64{fair}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(d, rank.WeightedSum{Weights: []float64{1}}, rank.Beneficial)

	if _, _, err := ev.ExposureCtx(t.Context(), nil, 0.5); !errors.Is(err, metrics.ErrDegenerateGroups) {
		t.Errorf("pointwise degenerate = %v, want ErrDegenerateGroups", err)
	}
	_, err = ev.ExposureSweepCtx(t.Context(), []SweepPoint{{K: 0.5}})
	if !errors.Is(err, metrics.ErrDegenerateGroups) || !strings.Contains(err.Error(), "sweep point 0") {
		t.Errorf("sweep degenerate = %v, want located ErrDegenerateGroups", err)
	}

	answers, err := ev.AnswerBatchCtx(t.Context(), nil, []BatchQuery{
		{Kind: BatchExposure, K: 0.5},
		{Kind: BatchDisparity, K: 0.5},
	})
	if err != nil {
		t.Fatalf("AnswerBatch: %v", err)
	}
	if !errors.Is(answers[0].Err, metrics.ErrDegenerateGroups) {
		t.Errorf("batch exposure Err = %v, want ErrDegenerateGroups", answers[0].Err)
	}
	if answers[1].Err != nil || answers[1].Vector == nil {
		t.Errorf("degenerate batchmate poisoned the disparity query: %+v", answers[1])
	}

	if _, err := ev.BundleStatsCtx(t.Context(), BundleStatsConfig{K: 0.5, IncludeExposure: true}); !errors.Is(err, metrics.ErrDegenerateGroups) {
		t.Errorf("bundle degenerate = %v, want ErrDegenerateGroups", err)
	}
}

// TestBundleExposureMatchesPointwise pins the bundle's exposure section to
// the pointwise evaluator on both sides, through the direct pass and the
// shared batch pass.
func TestBundleExposureMatchesPointwise(t *testing.T) {
	d := binarySweepDataset(t, 900, 913)
	ev := NewEvaluator(d, rank.WeightedSum{Weights: []float64{0.7, 0.3}}, rank.Beneficial)
	bonus := []float64{2, 0.5}
	const k = 0.17
	cfg := BundleStatsConfig{Bonus: bonus, K: k, IncludeExposure: true}

	wantExpo, wantDDP, err := ev.ExposureCtx(t.Context(), bonus, k)
	if err != nil {
		t.Fatal(err)
	}
	wantBase, wantBaseDDP, err := ev.ExposureCtx(t.Context(), nil, k)
	if err != nil {
		t.Fatal(err)
	}

	st, err := ev.BundleStatsCtx(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	answers, err := ev.AnswerBatchCtx(t.Context(), bonus, []BatchQuery{{Kind: BatchBundle, Bundle: &cfg}})
	if err != nil {
		t.Fatal(err)
	}
	if answers[0].Err != nil {
		t.Fatal(answers[0].Err)
	}
	for name, got := range map[string]*BundleStats{"direct": st, "batched": answers[0].Bundle} {
		if got.ExposureDDP != wantDDP || got.BaseExposureDDP != wantBaseDDP {
			t.Errorf("%s: DDP (%v, %v) != pointwise (%v, %v)", name, got.ExposureDDP, got.BaseExposureDDP, wantDDP, wantBaseDDP)
		}
		for j := range wantExpo {
			if got.Exposure[j] != wantExpo[j] {
				t.Errorf("%s group %d: exposure %v != pointwise %v", name, j, got.Exposure[j], wantExpo[j])
			}
			if got.BaseExposure[j] != wantBase[j] {
				t.Errorf("%s group %d: base exposure %v != pointwise %v", name, j, got.BaseExposure[j], wantBase[j])
			}
		}
	}

	// Not requested -> absent entirely.
	plain, err := ev.BundleStatsCtx(t.Context(), BundleStatsConfig{Bonus: bonus, K: k})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Exposure != nil || plain.BaseExposure != nil || plain.ExposureDDP != 0 {
		t.Errorf("exposure fields set without IncludeExposure: %+v", plain)
	}
}

// TestExposureSweepAllocations extends the sweep allocation pin to the
// exposure family: rows carved from one backing slice, prefix scratch
// (exposure rows, count rows, running sums) in the pooled workspace —
// strictly fewer than one allocation per sweep point.
func TestExposureSweepAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode drops sync.Pool items, inflating pooled-workspace alloc counts")
	}
	d := binarySweepDataset(t, 4000, 929)
	ev := NewEvaluator(d, rank.WeightedSum{Weights: []float64{0.7, 0.3}}, rank.Beneficial)
	bonus := []float64{1, 0.5}
	points := make([]SweepPoint, 16)
	for i := range points {
		points[i] = SweepPoint{Bonus: bonus, K: 0.05 + 0.02*float64(i)}
	}
	for name, call := range map[string]func(){
		"ExposureSweep": func() { _, _ = ev.ExposureSweepCtx(t.Context(), points) },
		"ExpRatioSweep": func() { _, _ = ev.ExpRatioSweepCtx(t.Context(), points) },
		"TopKSweep":     func() { _, _ = ev.TopKSweepCtx(t.Context(), points) },
	} {
		call() // warm the workspace pool
		allocs := testing.AllocsPerRun(10, call)
		if perPoint := allocs / float64(len(points)); perPoint >= 1 {
			t.Errorf("%s: %.1f allocs for %d points (%.2f per point), want < 1 per point",
				name, allocs, len(points), perPoint)
		}
	}
}
