package report

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"fairrank/internal/dataset"
)

var updateGoldens = flag.Bool("update", false, "rewrite the renderer golden files")

// goldenBundles are deterministic, hand-built cohorts pinning the
// renderer edge cases: a policy that changes nobody's selection (empty
// beneficiary lists) and a one-object population (every section at its
// minimum size, margins infeasible). All three formats must agree on how
// such sections look — present, headered, explicitly empty — which is
// exactly what the goldens freeze.
func goldenBundles(t *testing.T) map[string]*Bundle {
	t.Helper()
	out := make(map[string]*Bundle)

	// Six objects with comfortable score gaps: a 0.25-point policy cannot
	// reorder anything, so the beneficiary lists are empty while every
	// other section carries data.
	b := dataset.NewBuilder([]string{"s"}, []string{"low_income", "ell"})
	scores := []float64{10, 8, 6, 4, 2, 1}
	li := []float64{1, 0, 1, 0, 0, 1}
	ell := []float64{0, 1, 0, 0, 1, 0}
	outcomes := []bool{true, false, true, false, true, false}
	for i, s := range scores {
		b.AddWithOutcome([]float64{s}, []float64{li[i], ell[i]}, outcomes[i])
	}
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := BuildBundleCtx(t.Context(), auditEvaluator(t, d), BundleConfig{
		Dataset:         "no-changes",
		Bonus:           []float64{0.25, 0.25},
		K:               0.5,
		IncludeFPR:      true,
		IncludeExposure: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	out["empty_lists"] = bundle

	one := dataset.NewBuilder([]string{"s"}, []string{"low_income", "ell"})
	one.Add([]float64{5}, []float64{1, 0})
	od, err := one.Build()
	if err != nil {
		t.Fatal(err)
	}
	ob, err := BuildBundleCtx(t.Context(), auditEvaluator(t, od), BundleConfig{
		Dataset: "singleton",
		Bonus:   []float64{1, 1},
		K:       1,
		Margins: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	out["one_object"] = ob
	return out
}

// TestBundleRenderGoldens pins the exact bytes of every renderer on the
// edge-case bundles. Regenerate with `go test ./internal/report/ -run
// Goldens -update` and review the diff like any other code change.
func TestBundleRenderGoldens(t *testing.T) {
	formats := []struct{ name, ext string }{
		{"json", "json"},
		{"csv", "csv"},
		{"markdown", "md"},
	}
	for name, b := range goldenBundles(t) {
		for _, f := range formats {
			t.Run(name+"/"+f.name, func(t *testing.T) {
				var buf bytes.Buffer
				if err := b.Render(&buf, f.name); err != nil {
					t.Fatal(err)
				}
				path := filepath.Join("testdata", name+"."+f.ext+".golden")
				if *updateGoldens {
					if err := os.MkdirAll("testdata", 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden (run with -update): %v", err)
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Errorf("%s output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s",
						f.name, path, buf.Bytes(), want)
				}
			})
		}
	}
}
