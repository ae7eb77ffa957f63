package report

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"fairrank/internal/core"
	"fairrank/internal/dataset"
	"fairrank/internal/rank"
)

func auditDataset(t testing.TB, n int, outcomes bool) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	b := dataset.NewBuilder([]string{"s"}, []string{"low_income", "ell"})
	for i := 0; i < n; i++ {
		li := float64(rng.Intn(2))
		ell := 0.0
		if rng.Float64() < 0.2 {
			ell = 1
		}
		score := []float64{50 + 10*rng.NormFloat64() - 6*li - 4*ell}
		if outcomes {
			b.AddWithOutcome(score, []float64{li, ell}, rng.Float64() < 0.4)
		} else {
			b.Add(score, []float64{li, ell})
		}
	}
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func auditEvaluator(t testing.TB, d *dataset.Dataset) *core.Evaluator {
	t.Helper()
	return core.NewEvaluator(d, rank.WeightedSum{Weights: []float64{1}}, rank.Beneficial)
}

// TestBuildBundleErrors covers every rejection of the bundle builder:
// empty dataset, missing/zero/mis-sized bonus policy, bad fraction,
// negative margins, and FPR without outcomes. Each must fail before any
// ranking work happens and carry a discoverable message.
func TestBuildBundleErrors(t *testing.T) {
	d := auditDataset(t, 500, false)
	ev := auditEvaluator(t, d)

	empty, err := dataset.New([]string{"s"}, []string{"g"}, [][]float64{{}}, [][]float64{{}}, nil)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		ev   *core.Evaluator
		cfg  BundleConfig
		want string
	}{
		{"empty dataset", auditEvaluator(t, empty), BundleConfig{Bonus: []float64{1}, K: 0.1}, "empty dataset"},
		{"missing bonus", ev, BundleConfig{K: 0.1}, "missing bonus"},
		{"zero bonus", ev, BundleConfig{Bonus: []float64{0, 0}, K: 0.1}, "all zero"},
		{"mis-sized bonus", ev, BundleConfig{Bonus: []float64{1}, K: 0.1}, "dimensions"},
		{"bad fraction", ev, BundleConfig{Bonus: []float64{1, 2}, K: 0}, "fraction"},
		{"NaN fraction", ev, BundleConfig{Bonus: []float64{1, 2}, K: math.NaN()}, "fraction"},
		{"negative margins", ev, BundleConfig{Bonus: []float64{1, 2}, K: 0.1, Margins: -1}, "margins"},
		{"fpr without outcomes", ev, BundleConfig{Bonus: []float64{1, 2}, K: 0.1, IncludeFPR: true}, "outcomes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := BuildBundleCtx(t.Context(), tc.ev, tc.cfg)
			if err == nil {
				t.Fatalf("BuildBundle accepted %+v", tc.cfg)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestBuildBundleContents checks the assembled bundle against directly
// computed values: version, counts, cutoff consistency, policy lines,
// margin window shape and ordering.
func TestBuildBundleContents(t *testing.T) {
	d := auditDataset(t, 800, true)
	ev := auditEvaluator(t, d)
	bonus := []float64{5, 3}
	const k = 0.1
	b, err := BuildBundleCtx(t.Context(), ev, BundleConfig{Dataset: "aud", Bonus: bonus, K: k, Margins: 4, IncludeFPR: true})
	if err != nil {
		t.Fatal(err)
	}
	if b.Version != BundleVersion || b.Dataset != "aud" || b.N != 800 || b.Polarity != "beneficial" {
		t.Errorf("metadata = %+v", b)
	}
	exp, err := ev.ExplainCtx(t.Context(), bonus, k)
	if err != nil {
		t.Fatal(err)
	}
	if b.Selected != exp.Selected || b.Cutoff != exp.Cutoff || b.BaseCutoff != exp.BaseCutoff {
		t.Errorf("cutoffs: bundle (%d %v %v) vs explanation (%d %v %v)",
			b.Selected, b.Cutoff, b.BaseCutoff, exp.Selected, exp.Cutoff, exp.BaseCutoff)
	}
	if len(b.Policy) != 2 || b.Policy[0].Attribute != "low_income" || b.Policy[0].Points != 5 {
		t.Errorf("policy = %+v", b.Policy)
	}
	for j, p := range b.Policy {
		if p.SelectedWith != exp.GroupCounts[j] || p.SelectedWithout != exp.BaseGroupCounts[j] {
			t.Errorf("policy counts[%d] = %+v, explanation %d/%d", j, p, exp.GroupCounts[j], exp.BaseGroupCounts[j])
		}
		if p.GroupSize != d.GroupSize(j) {
			t.Errorf("group size[%d] = %d, want %d", j, p.GroupSize, d.GroupSize(j))
		}
	}
	if len(b.FPRDiff) != 2 {
		t.Errorf("FPRDiff = %v, want 2 entries", b.FPRDiff)
	}
	if len(b.Margins) != 8 {
		t.Fatalf("margin window has %d lines, want 8", len(b.Margins))
	}
	for i, m := range b.Margins {
		if want := b.Selected - 4 + i; m.Rank != want {
			t.Errorf("margin %d rank = %d, want %d", i, m.Rank, want)
		}
		if want := m.Rank < b.Selected; m.Selected != want {
			t.Errorf("margin %d selected = %t, want %t", i, m.Selected, want)
		}
		// A selected boundary object exits by losing score; an excluded
		// one enters by gaining it.
		if m.Selected && m.ScoreDelta >= 0 || !m.Selected && m.ScoreDelta <= 0 {
			t.Errorf("margin %d: delta %v has wrong sign for selected=%t", i, m.ScoreDelta, m.Selected)
		}
	}
	if b.NormAfter >= b.NormBefore {
		t.Errorf("policy did not reduce disparity: %v -> %v", b.NormBefore, b.NormAfter)
	}
}

// TestBundleMarginWindowClamped: a margin window wider than the
// population must clamp, not panic.
func TestBundleMarginWindowClamped(t *testing.T) {
	d := auditDataset(t, 20, false)
	ev := auditEvaluator(t, d)
	b, err := BuildBundleCtx(t.Context(), ev, BundleConfig{Dataset: "tiny", Bonus: []float64{2, 1}, K: 0.5, Margins: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Margins) != 20 {
		t.Errorf("clamped window has %d lines, want 20", len(b.Margins))
	}
}

// TestBundleBeneficiaryListsCapped: the id lists are truncated to
// MaxBeneficiaryIDs while the counts report the true totals, so a cached
// bundle cannot pin O(population) memory.
func TestBundleBeneficiaryListsCapped(t *testing.T) {
	d := auditDataset(t, 12000, false)
	ev := auditEvaluator(t, d)
	// A heavy-handed policy at a wide selection flips thousands of objects.
	b, err := BuildBundleCtx(t.Context(), ev, BundleConfig{Dataset: "big", Bonus: []float64{30, 30}, K: 0.5, Margins: 1})
	if err != nil {
		t.Fatal(err)
	}
	exp, err := ev.ExplainCtx(t.Context(), []float64{30, 30}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if b.AdmittedCount != len(exp.AdmittedByBonus) || b.DisplacedCount != len(exp.DisplacedByBonus) {
		t.Errorf("counts %d/%d, explanation %d/%d",
			b.AdmittedCount, b.DisplacedCount, len(exp.AdmittedByBonus), len(exp.DisplacedByBonus))
	}
	if b.AdmittedCount <= MaxBeneficiaryIDs {
		t.Fatalf("test cohort flips only %d objects; raise the pressure", b.AdmittedCount)
	}
	if len(b.AdmittedByBonus) != MaxBeneficiaryIDs || len(b.DisplacedByBonus) != MaxBeneficiaryIDs {
		t.Errorf("id lists have %d/%d entries, want the %d cap",
			len(b.AdmittedByBonus), len(b.DisplacedByBonus), MaxBeneficiaryIDs)
	}
	for i, id := range b.AdmittedByBonus {
		if id != exp.AdmittedByBonus[i] {
			t.Fatalf("truncated list diverges at %d: %d vs %d", i, id, exp.AdmittedByBonus[i])
		}
	}
}

// TestBundleInfeasibleMargins: at k=1 nobody can be flipped; the margin
// lines must carry Feasible=false and the renderers must not present the
// zero deltas as "zero change flips".
func TestBundleInfeasibleMargins(t *testing.T) {
	d := auditDataset(t, 30, false)
	ev := auditEvaluator(t, d)
	b, err := BuildBundleCtx(t.Context(), ev, BundleConfig{Dataset: "full", Bonus: []float64{2, 1}, K: 1, Margins: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Margins) == 0 {
		t.Fatal("no margin lines")
	}
	for i, m := range b.Margins {
		if m.Feasible {
			t.Errorf("margin %d feasible at k=1", i)
		}
	}
	var md bytes.Buffer
	if err := b.RenderMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "unflippable") {
		t.Error("markdown renders infeasible margins without marking them")
	}
	var cb bytes.Buffer
	if err := b.RenderCSV(&cb); err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(&cb)
	r.FieldsPerRecord = -1
	rows, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row[0] == "margin" && row[1] != "object" {
			if row[5] != "" || row[7] != "false" {
				t.Errorf("infeasible CSV margin row = %v, want empty delta and feasible=false", row)
			}
		}
	}
}

// TestBundleRenderJSONRoundTrip: the JSON form must decode back into an
// equivalent bundle (the archival contract).
func TestBundleRenderJSONRoundTrip(t *testing.T) {
	d := auditDataset(t, 400, true)
	ev := auditEvaluator(t, d)
	b, err := BuildBundleCtx(t.Context(), ev, BundleConfig{Dataset: "aud", Bonus: []float64{5, 3}, K: 0.1, IncludeFPR: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := b.RenderJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Bundle
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("round-trip decode: %v\n%s", err, buf.String())
	}
	if back.Version != b.Version || back.Selected != b.Selected || back.Cutoff != b.Cutoff ||
		len(back.Policy) != len(b.Policy) || len(back.Margins) != len(b.Margins) {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", back, *b)
	}
	if back.Margins[0].ScoreDelta != b.Margins[0].ScoreDelta {
		t.Errorf("full-precision delta lost in JSON: %v vs %v", back.Margins[0].ScoreDelta, b.Margins[0].ScoreDelta)
	}
}

// TestBundleRenderCSV: sectioned CSV must parse with encoding/csv and
// carry every section.
func TestBundleRenderCSV(t *testing.T) {
	d := auditDataset(t, 400, true)
	ev := auditEvaluator(t, d)
	b, err := BuildBundleCtx(t.Context(), ev, BundleConfig{Dataset: "aud", Bonus: []float64{5, 3}, K: 0.1, IncludeFPR: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := b.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(&buf)
	r.FieldsPerRecord = -1 // sections have different widths
	rows, err := r.ReadAll()
	if err != nil {
		t.Fatalf("CSV does not parse: %v", err)
	}
	sections := map[string]int{}
	for _, row := range rows {
		sections[row[0]]++
	}
	for _, want := range []string{"meta", "policy", "fpr", "margin"} {
		if sections[want] == 0 {
			t.Errorf("CSV missing section %q (got %v)", want, sections)
		}
	}
	if sections["policy"] != 3 { // header + 2 attributes
		t.Errorf("policy section has %d rows, want 3", sections["policy"])
	}
}

// TestBundleRenderMarkdown: the human-readable form must include the
// policy table, the cutoff, and the margin table.
func TestBundleRenderMarkdown(t *testing.T) {
	d := auditDataset(t, 400, false)
	ev := auditEvaluator(t, d)
	b, err := BuildBundleCtx(t.Context(), ev, BundleConfig{Dataset: "aud", Bonus: []float64{5, 3}, K: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := b.RenderMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# Fair-ranking audit bundle (v" + BundleVersion + ")",
		"## Policy", "| low_income | 5 |", "| ell | 3 |",
		"Published cutoff", "## Counterfactual margins",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "False-positive") {
		t.Error("markdown includes FPR section without outcomes")
	}
}

// TestBundleRenderDispatch covers the format dispatcher including its
// error path.
func TestBundleRenderDispatch(t *testing.T) {
	d := auditDataset(t, 100, false)
	ev := auditEvaluator(t, d)
	b, err := BuildBundleCtx(t.Context(), ev, BundleConfig{Dataset: "aud", Bonus: []float64{2, 1}, K: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"json", "csv", "markdown", "md"} {
		var buf bytes.Buffer
		if err := b.Render(&buf, f); err != nil {
			t.Errorf("Render(%q): %v", f, err)
		}
		if buf.Len() == 0 {
			t.Errorf("Render(%q) wrote nothing", f)
		}
	}
	if err := b.Render(&bytes.Buffer{}, "xml"); err == nil {
		t.Error("unknown format accepted")
	}
}
