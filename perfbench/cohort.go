package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fairrank/internal/core"
	"fairrank/internal/csvio"
	"fairrank/internal/dataset"
	"fairrank/internal/rank"
	"fairrank/internal/synth"
)

// cohortSpec is one of the paper's two cohorts as fairrankd registers it
// from CSV: score weights and selection polarity.
type cohortSpec struct {
	name    string
	weights []float64
	pol     rank.Polarity
	gen     func() (*dataset.Dataset, error)
}

var cohortSpecs = []cohortSpec{
	{"school", synth.SchoolScoreWeights(), rank.Beneficial, func() (*dataset.Dataset, error) {
		return synth.GenerateSchool(synth.DefaultSchoolConfig())
	}},
	{"compas", synth.CompasScoreWeights(), rank.Adverse, func() (*dataset.Dataset, error) {
		return synth.GenerateCompas(synth.DefaultCompasConfig())
	}},
}

func csvPath(dir, name string) string { return filepath.Join(dir, name+".csv") }

// writeCohorts writes both cohorts as CSV under dir. The cohorts are the
// paper's fixed populations; only the op streams depend on the seed.
func writeCohorts(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, spec := range cohortSpecs {
		d, err := spec.gen()
		if err != nil {
			return fmt.Errorf("generating %s: %w", spec.name, err)
		}
		path := csvPath(dir, spec.name)
		tmp := path + ".tmp"
		f, err := os.Create(tmp)
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		err = csvio.Write(w, d)
		if err == nil {
			err = w.Flush()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing %s: %w", tmp, err)
		}
		if err := os.Rename(tmp, path); err != nil {
			return err
		}
	}
	return nil
}

// readCohort loads one cohort CSV through csvio.
func readCohort(dir, name string) (*dataset.Dataset, error) {
	f, err := os.Open(csvPath(dir, name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := csvio.Read(bufio.NewReader(f))
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", name, err)
	}
	return d, nil
}

// cohort is one dataset on the direct-library side: the reference the
// correctness gate compares responses against, and the calls the traced
// run times at each layer boundary.
type cohort struct {
	cohortSpec
	d    *dataset.Dataset
	ev   *core.Evaluator
	tr   *core.Trainer
	runs *rank.ComboRuns

	all     []int
	eff     []float64
	ord     []int
	scratch rank.MergeScratch
}

// newCohorts loads both cohorts and builds their direct-library objects,
// timing the set-up layers into t when it is non-nil.
func newCohorts(dir string, t *tracer) (map[string]*cohort, error) {
	out := make(map[string]*cohort, len(cohortSpecs))
	for _, spec := range cohortSpecs {
		c := &cohort{cohortSpec: spec}
		var err error
		start := time.Now()
		if c.d, err = readCohort(dir, spec.name); err != nil {
			return nil, err
		}
		t.record(-1, 0, "csvio.read", start, 0)
		scorer := rank.WeightedSum{Weights: spec.weights}
		start = time.Now()
		c.ev = core.NewEvaluator(c.d, scorer, spec.pol)
		t.record(-1, 0, "core.evaluator_build", start, 0)
		start = time.Now()
		c.runs = rank.NewComboRuns(c.d, c.ev.BaseScores(), 0)
		t.record(-1, 0, "rank.combo_build", start, 0)
		c.tr = core.NewTrainer(c.d, scorer)
		n := c.d.N()
		c.all = make([]int, n)
		for i := range c.all {
			c.all[i] = i
		}
		c.eff = make([]float64, n)
		c.ord = make([]int, n)
		out[spec.name] = c
	}
	return out, nil
}

// prefix computes the top-p prefix of the ranking under bonus on the route
// the evaluator takes for a prefix of that length: the combo-run merge
// when the partition exists and p is at most three quarters of the
// population, otherwise a full sort when p covers half the population or
// more, otherwise a bounded heap plus a sort of the heap.
func (c *cohort) prefix(bonus []float64, p int) []int {
	n := c.d.N()
	if c.runs != nil && c.runs.Runs()*4 <= n && 4*p <= 3*n {
		if pre, ok := c.runs.MergeTopKInto(bonus, c.pol, p, &c.scratch, c.ord[:0:p], c.eff); ok {
			return pre
		}
	}
	eff := rank.EffectiveScores(c.d, c.ev.BaseScores(), c.all, bonus, c.pol, c.eff)
	if p >= n/2 {
		return rank.OrderInto(eff, c.ord)[:p]
	}
	pre := rank.TopKHeapInto(eff, p, c.ord[:0:p])
	rank.SortRanked(eff, pre)
	return pre
}
