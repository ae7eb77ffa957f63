// Command dca trains a compensatory bonus-point vector on a CSV dataset
// and reports the disparity before and after.
//
// The input follows the csvio convention: score attributes prefixed
// "score:", fairness attributes "fair:", optional "outcome" column. The
// ranking function is a weighted sum over the score columns (-weights,
// comma separated, default: equal weights).
//
// Usage:
//
//	dca -in school.csv -k 0.05 [-weights 0.55,0.45] [-objective disparity]
//	    [-adverse] [-granularity 0.5] [-max-bonus 0] [-sample 500] [-seed 1]
//	dca -in compas.csv -k 0.2 -adverse -objective fpr
//
// With -sweep the trained vector is evaluated over a k-grid through the
// same evaluation plan the fairrankd service uses (rank once, answer
// every metric at every k from prefix aggregates), and the trade-off curve is printed as
// CSV instead of the table: one row per k with nDCG, the disparity vector
// and its norm, the disparate-impact vector, when the dataset carries
// outcomes the FPR-difference vector, and when every fairness attribute
// is binary the per-capita exposure vector (groups plus "rest") with its
// demographic disparity, the top-k share deltas, and — with outcomes
// too — the exposure/merit ratios. The grid is either a comma-separated
// list of fractions or lo:hi:step:
//
//	dca -in school.csv -k 0.05 -sweep 0.01:0.30:0.01 > curve.csv
//	dca -in school.csv -k 0.05 -sweep 0.05,0.1,0.25
//
// With -counterfactual the trained vector is audited for the listed
// objects: each gets its minimal score and bonus-point change that flips
// its selection (exact at float64 resolution, computed from one ranking).
// With -report the complete versioned audit bundle — published cutoff,
// policy with leave-one-out attribution, beneficiary lists, counterfactual
// margins at the cutoff — is written to stdout as json, csv, or markdown.
// The bundle is computed by the rank-once BundleData pass (one ranking
// plus one per compensated attribute); -margins widens the counterfactual
// window on each side of the cutoff:
//
//	dca -in school.csv -k 0.05 -counterfactual 12,99,1044
//	dca -in school.csv -k 0.05 -report md -margins 10 > audit.md
//
// -rankstats prints the evaluator's combo-run merge statistics (run count
// g, run-length spread, registration pre-sort cost) to stderr, composable
// with every output mode.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"fairrank"
	"fairrank/internal/core"
	"fairrank/internal/metrics"
	"fairrank/internal/report"
)

func main() {
	var (
		in          = flag.String("in", "", "training CSV (required)")
		testIn      = flag.String("test", "", "optional held-out CSV evaluated with the trained vector")
		k           = flag.Float64("k", 0.05, "selection fraction in (0,1]")
		weightsFlag = flag.String("weights", "", "comma-separated score weights (default: equal)")
		objective   = flag.String("objective", "disparity", "objective: disparity, logdisc, di, fpr")
		adverse     = flag.Bool("adverse", false, "adverse selection (bonus lowers the score, e.g. risk flagging)")
		granularity = flag.Float64("granularity", 0.5, "bonus point granularity (0 disables rounding)")
		maxBonus    = flag.Float64("max-bonus", 0, "maximum bonus per dimension (0 = unlimited)")
		sampleSize  = flag.Int("sample", 500, "DCA sample size")
		seed        = flag.Int64("seed", 1, "sampling seed")
		explain     = flag.Bool("explain", false, "print the transparency report (cutoff, per-group counts, beneficiaries)")
		sweepSpec   = flag.String("sweep", "", "evaluate the trained vector over a k-grid and print CSV: comma-separated fractions or lo:hi:step")
		cfSpec      = flag.String("counterfactual", "", "comma-separated object ids: print each object's minimal selection-flipping delta")
		reportFmt   = flag.String("report", "", "write the full audit bundle to stdout: json, csv or md")
		margins     = flag.Int("margins", 0, "counterfactual margin window on each side of the -report cutoff (0 = default)")
		rankStats   = flag.Bool("rankstats", false, "print the evaluator's combo-run merge statistics to stderr")
	)
	flag.Parse()

	// Validate every flag before any file is opened or parsed: a typo'd
	// objective or an out-of-range fraction should fail as a usage error,
	// not after seconds of CSV ingestion.
	if *in == "" {
		usage("missing required -in")
	}
	obj, err := fairrank.ObjectiveByName(*objective, *k)
	if err != nil {
		usage(err.Error())
	}
	if *sampleSize <= 0 {
		usage(fmt.Sprintf("-sample must be positive, got %d", *sampleSize))
	}
	if *granularity < 0 || math.IsNaN(*granularity) || math.IsInf(*granularity, 0) {
		usage(fmt.Sprintf("-granularity must be finite and non-negative, got %v", *granularity))
	}
	if *maxBonus < 0 || math.IsNaN(*maxBonus) || math.IsInf(*maxBonus, 0) {
		usage(fmt.Sprintf("-max-bonus must be finite and non-negative, got %v", *maxBonus))
	}
	weights, err := fairrank.ParseWeights(*weightsFlag)
	if err != nil {
		usage(err.Error())
	}
	sweepKs, err := parseSweepSpec(*sweepSpec)
	if err != nil {
		usage(err.Error())
	}
	cfObjs, err := parseObjectSpec(*cfSpec)
	if err != nil {
		usage(err.Error())
	}
	switch *reportFmt {
	case "", "json", "csv", "md", "markdown":
	default:
		usage(fmt.Sprintf("-report must be json, csv or md, got %q", *reportFmt))
	}
	if *margins < 0 {
		usage(fmt.Sprintf("-margins must be non-negative, got %d", *margins))
	}
	if *margins != 0 && *reportFmt == "" {
		usage("-margins only applies to the -report audit bundle")
	}
	// -report replaces stdout with the bundle; combining it with the other
	// output modes would silently drop them, so reject the combination.
	if *reportFmt != "" && (*sweepSpec != "" || *cfSpec != "" || *explain || *testIn != "") {
		usage("-report writes the audit bundle alone; drop -sweep/-counterfactual/-explain/-test")
	}
	if *sweepSpec != "" && (*cfSpec != "" || *explain || *testIn != "") {
		usage("-sweep prints the trade-off CSV alone; drop -counterfactual/-explain/-test")
	}

	d, err := fairrank.ReadCSVFile(*in)
	if err != nil {
		fatal(err)
	}

	if weights == nil {
		weights = fairrank.EqualWeights(d.NumScore())
	} else if len(weights) != d.NumScore() {
		fatal(fmt.Errorf("%d weights for %d score columns", len(weights), d.NumScore()))
	}
	scorer := fairrank.WeightedSum{Weights: weights}

	opts := fairrank.DefaultOptions()
	opts.SampleSize = *sampleSize
	opts.Seed = *seed
	opts.Granularity = *granularity
	opts.MaxBonus = *maxBonus
	if *adverse {
		opts.Polarity = fairrank.Adverse
	}

	res, err := fairrank.Train(d, scorer, obj, opts)
	if err != nil {
		fatal(err)
	}

	pol := fairrank.Beneficial
	if *adverse {
		pol = fairrank.Adverse
	}
	ev := fairrank.NewEvaluator(d, scorer, pol)

	// -rankstats goes to stderr so it composes with the -sweep and
	// -report modes, whose stdout is machine-readable.
	if *rankStats {
		if st, ok := ev.RunStats(); ok {
			fmt.Fprintf(os.Stderr, "rankstats: combo runs g=%d, run len min/med/max=%d/%d/%d, pre-sorted in %s\n",
				st.Runs, st.MinLen, st.MedianLen, st.MaxLen, st.BuildCost)
		} else {
			fmt.Fprintln(os.Stderr, "rankstats: full-sort ranking path (no combo runs)")
		}
	}

	if *reportFmt != "" {
		bundle, err := fairrank.BuildAuditBundle(ev, fairrank.AuditConfig{
			Dataset:    *in,
			Bonus:      res.Bonus,
			K:          *k,
			Margins:    *margins,
			IncludeFPR: d.HasOutcomes(),
		})
		if err != nil {
			fatal(err)
		}
		if err := bundle.Render(os.Stdout, *reportFmt); err != nil {
			fatal(err)
		}
		return
	}

	if sweepKs != nil {
		if err := writeSweepCSV(d, ev, res.Bonus, sweepKs); err != nil {
			fatal(err)
		}
		return
	}

	before, err := ev.DisparityCtx(context.Background(), nil, *k)
	if err != nil {
		fatal(err)
	}
	after, err := ev.DisparityCtx(context.Background(), res.Bonus, *k)
	if err != nil {
		fatal(err)
	}
	ndcg, err := ev.NDCGCtx(context.Background(), res.Bonus, *k)
	if err != nil {
		fatal(err)
	}

	headers := append([]string{""}, d.FairNames()...)
	headers = append(headers, "Norm")
	t := &report.Table{Title: fmt.Sprintf("DCA on %s (k=%g, objective=%s, %d objects, %s)", *in, *k, *objective, d.N(), res.Elapsed), Headers: headers}
	cells := []string{"Bonus Points"}
	for _, b := range res.Bonus {
		cells = append(cells, report.Float(b))
	}
	cells = append(cells, "-")
	t.Rows = append(t.Rows, cells)
	t.AddFloatRow("Disparity before", append(append([]float64(nil), before...), metrics.Norm(before))...)
	t.AddFloatRow("Disparity after", append(append([]float64(nil), after...), metrics.Norm(after))...)
	if err := t.Render(os.Stdout); err != nil {
		fatal(err)
	}
	fmt.Printf("\nnDCG@%g = %s (1 = ranking unchanged)\n", *k, report.Float(ndcg))

	if *explain {
		exp, err := ev.ExplainCtx(context.Background(), res.Bonus, *k)
		if err != nil {
			fatal(err)
		}
		fmt.Println("\nTransparency report")
		fmt.Println("-------------------")
		for _, line := range exp.Summary() {
			fmt.Println(line)
		}
	}

	if cfObjs != nil {
		cfs, err := ev.CounterfactualBatchCtx(context.Background(), res.Bonus, *k, cfObjs)
		if err != nil {
			fatal(err)
		}
		ct := &report.Table{
			Title:   "\nCounterfactuals (minimal change that flips selection)",
			Headers: []string{"Object", "Rank", "Selected", "Effective", "Cutoff", "ScoreDelta", "BonusDelta"},
		}
		for _, cf := range cfs {
			if !cf.Feasible {
				ct.AddRow(strconv.Itoa(cf.Object), strconv.Itoa(cf.Rank), fmt.Sprint(cf.Selected),
					report.Float(cf.Effective), "-", "infeasible", "infeasible")
				continue
			}
			ct.AddRow(strconv.Itoa(cf.Object), strconv.Itoa(cf.Rank), fmt.Sprint(cf.Selected),
				report.Float(cf.Effective), report.Float(cf.Cutoff),
				strconv.FormatFloat(cf.ScoreDelta, 'g', 6, 64),
				strconv.FormatFloat(cf.BonusDelta, 'g', 6, 64))
		}
		if err := ct.Render(os.Stdout); err != nil {
			fatal(err)
		}
	}

	if *testIn != "" {
		testD, err := fairrank.ReadCSVFile(*testIn)
		if err != nil {
			fatal(err)
		}
		testEv := fairrank.NewEvaluator(testD, scorer, pol)
		tb, err := testEv.DisparityCtx(context.Background(), nil, *k)
		if err != nil {
			fatal(err)
		}
		ta, err := testEv.DisparityCtx(context.Background(), res.Bonus, *k)
		if err != nil {
			fatal(err)
		}
		tt := &report.Table{Title: fmt.Sprintf("\nHeld-out evaluation on %s (%d objects)", *testIn, testD.N()), Headers: headers}
		tt.AddFloatRow("Disparity before", append(append([]float64(nil), tb...), metrics.Norm(tb))...)
		tt.AddFloatRow("Disparity after", append(append([]float64(nil), ta...), metrics.Norm(ta))...)
		if err := tt.Render(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

// parseObjectSpec parses the -counterfactual object list: comma-separated
// non-negative ids. Range checking against the population happens after
// the CSV is loaded. It returns nil for the empty spec.
func parseObjectSpec(spec string) ([]int, error) {
	if spec == "" {
		return nil, nil
	}
	parts := strings.Split(spec, ",")
	objs := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("-counterfactual object %q: %v", p, err)
		}
		if v < 0 {
			return nil, fmt.Errorf("-counterfactual object %d is negative", v)
		}
		objs[i] = v
	}
	return objs, nil
}

// parseSweepSpec parses the -sweep k-grid: either comma-separated
// fractions ("0.05,0.1,0.25") or an inclusive range "lo:hi:step". It
// returns nil for the empty spec (sweeping disabled).
func parseSweepSpec(spec string) ([]float64, error) {
	if spec == "" {
		return nil, nil
	}
	var ks []float64
	if strings.Contains(spec, ":") {
		parts := strings.Split(spec, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("-sweep range must be lo:hi:step, got %q", spec)
		}
		var bounds [3]float64
		for i, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return nil, fmt.Errorf("-sweep range %q: %v", spec, err)
			}
			bounds[i] = v
		}
		lo, hi, step := bounds[0], bounds[1], bounds[2]
		if math.IsNaN(step) || step <= 0 {
			return nil, fmt.Errorf("-sweep step must be positive, got %v", step)
		}
		if lo > hi {
			return nil, fmt.Errorf("-sweep range %q has lo > hi", spec)
		}
		if math.IsNaN(lo) || math.IsNaN(hi) || lo <= 0 || hi > 1 {
			return nil, fmt.Errorf("-sweep range %q outside (0,1]", spec)
		}
		for i := 0; ; i++ {
			k := lo + float64(i)*step
			if k > hi+1e-9 {
				break
			}
			// Min clamps float accumulation noise only; hi <= 1 is checked.
			ks = append(ks, math.Min(k, 1))
		}
	} else {
		for _, p := range strings.Split(spec, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return nil, fmt.Errorf("-sweep fraction %q: %v", p, err)
			}
			ks = append(ks, v)
		}
	}
	for _, k := range ks {
		if math.IsNaN(k) || k <= 0 || k > 1 {
			return nil, fmt.Errorf("-sweep fraction %v outside (0,1]", k)
		}
	}
	if len(ks) == 0 {
		return nil, fmt.Errorf("-sweep %q produced no fractions", spec)
	}
	return ks, nil
}

// writeSweepCSV evaluates the trained vector over the k-grid — one plan
// asks for every metric at every k, so the whole curve costs one ranking
// — and prints the trade-off curve: k, nDCG, the disparity vector and
// norm, the disparate-impact vector, (with outcomes) the FPR-difference
// vector, and (with all-binary fairness attributes) the per-capita
// exposure vector with its DDP, the top-k share deltas, and (when
// outcomes are also present) the exposure/merit ratios.
func writeSweepCSV(d *fairrank.Dataset, ev *fairrank.Evaluator, bonus []float64, ks []float64) error {
	binaryFair, _ := d.BinaryFairColumns()
	binaryFair = binaryFair && d.NumFair() > 0
	kinds := []core.BatchKind{core.BatchNDCG, core.BatchDisparity, core.BatchDisparateImpact}
	if d.HasOutcomes() {
		kinds = append(kinds, core.BatchFPRDiff)
	}
	if binaryFair {
		kinds = append(kinds, core.BatchExposure, core.BatchTopK)
		if d.HasOutcomes() {
			kinds = append(kinds, core.BatchExpRatio)
		}
	}
	qs := make([]core.BatchQuery, 0, len(ks)*len(kinds))
	for _, k := range ks {
		for _, kind := range kinds {
			qs = append(qs, core.BatchQuery{Kind: kind, K: k})
		}
	}
	answers, err := ev.AnswerBatchCtx(context.Background(), bonus, qs)
	if err != nil {
		return err
	}
	// col[kind][i] is the answer for kind at ks[i].
	col := make(map[core.BatchKind][]core.BatchAnswer, len(kinds))
	for i, a := range answers {
		if a.Err != nil {
			return fmt.Errorf("core: sweep point %d (k=%g): %w", i/len(kinds), qs[i].K, a.Err)
		}
		col[qs[i].Kind] = append(col[qs[i].Kind], a)
	}
	ndcg, disp, di := col[core.BatchNDCG], col[core.BatchDisparity], col[core.BatchDisparateImpact]
	fpr, expo, topk, ratio := col[core.BatchFPRDiff], col[core.BatchExposure], col[core.BatchTopK], col[core.BatchExpRatio]

	// Exposure groups are the binary attributes plus the trailing "rest"
	// group (objects belonging to none).
	expoNames := append(append([]string(nil), d.FairNames()...), "rest")
	cols := []string{"k", "ndcg"}
	for _, n := range d.FairNames() {
		cols = append(cols, "disparity:"+n)
	}
	cols = append(cols, "disparity_norm")
	for _, n := range d.FairNames() {
		cols = append(cols, "di:"+n)
	}
	if fpr != nil {
		for _, n := range d.FairNames() {
			cols = append(cols, "fpr:"+n)
		}
	}
	if expo != nil {
		for _, n := range expoNames {
			cols = append(cols, "exposure:"+n)
		}
		cols = append(cols, "exposure_ddp")
		for _, n := range d.FairNames() {
			cols = append(cols, "topk:"+n)
		}
	}
	if ratio != nil {
		for _, n := range d.FairNames() {
			cols = append(cols, "expratio:"+n)
		}
	}
	fmt.Println(strings.Join(cols, ","))
	for i, k := range ks {
		row := make([]string, 0, len(cols))
		add := func(vs ...float64) {
			for _, v := range vs {
				row = append(row, strconv.FormatFloat(v, 'g', -1, 64))
			}
		}
		add(k, ndcg[i].Value)
		add(disp[i].Vector...)
		add(metrics.Norm(disp[i].Vector))
		add(di[i].Vector...)
		if fpr != nil {
			add(fpr[i].Vector...)
		}
		if expo != nil {
			add(expo[i].Vector...)
			add(expo[i].Value)
			add(topk[i].Vector...)
		}
		if ratio != nil {
			add(ratio[i].Vector...)
		}
		fmt.Println(strings.Join(row, ","))
	}
	return nil
}

func usage(msg string) {
	fmt.Fprintln(os.Stderr, "dca:", msg)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dca:", err)
	os.Exit(1)
}
