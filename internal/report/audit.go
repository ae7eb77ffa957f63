package report

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"fairrank/internal/core"
	"fairrank/internal/rank"
)

// BundleVersion identifies the audit-bundle schema. Bump it whenever a
// field is added, removed, or changes meaning, so downstream consumers of
// archived bundles can dispatch on the version they were written with.
// Version 2 added the optional exposure section.
const BundleVersion = "2"

// DefaultMargins is the number of boundary objects audited on each side of
// the cutoff when BundleConfig.Margins is zero.
const DefaultMargins = 5

// MaxBeneficiaryIDs caps the AdmittedByBonus and DisplacedByBonus id
// lists a bundle carries. AdmittedCount/DisplacedCount always report the
// true totals; the lists hold the first MaxBeneficiaryIDs ids in
// ascending order. A policy audit needs the counts and a verifiable
// sample — a full population dump is a data export, not a policy
// document, and an unbounded list would also let one cached bundle pin
// O(population) memory in a serving-layer cache.
const MaxBeneficiaryIDs = 2048

// BundleConfig parameterizes BuildBundleCtx.
type BundleConfig struct {
	// Dataset names the audited population in the bundle metadata (the
	// evaluator itself carries no name).
	Dataset string
	// Bonus is the published bonus-point policy under audit. It must be a
	// full, non-zero vector: an audit of "no policy" has no policy to
	// publish, and a truncated vector would silently drop attributes.
	Bonus []float64
	// K is the audited selection fraction, in (0, 1].
	K float64
	// Margins is how many objects on each side of the published cutoff get
	// counterfactual margin lines; 0 means DefaultMargins, negative is
	// rejected. The window is clamped to the population.
	Margins int
	// IncludeFPR adds per-group false-positive-rate differences to the
	// bundle; the dataset must carry ground-truth outcomes.
	IncludeFPR bool
	// IncludeExposure adds per-capita exposure and its demographic
	// disparity (with and without the policy) to the bundle; every
	// fairness attribute must be binary.
	IncludeExposure bool
}

// PolicyLine is one fairness attribute's row of the published policy: its
// bonus points, its selection counts with and without compensation, and
// its leave-one-out share of the disparity reduction.
type PolicyLine struct {
	Attribute       string  `json:"attribute"`
	Points          float64 `json:"points"`
	GroupSize       int     `json:"group_size"`
	SelectedWith    int     `json:"selected_with"`
	SelectedWithout int     `json:"selected_without"`
	// LeaveOneOutNorm is the disparity norm with this attribute's bonus
	// withdrawn; Contribution is how much worse that is than the full
	// policy's norm.
	LeaveOneOutNorm float64 `json:"leave_one_out_norm"`
	Contribution    float64 `json:"contribution"`
}

// MarginLine is one boundary object's counterfactual margin: how far its
// effective score sits from flipping, in score and in bonus points. When
// Feasible is false no change can flip the object (the selection covers
// the whole population) and the deltas are meaningless — renderers must
// not present them as "zero change flips".
type MarginLine struct {
	Object     int     `json:"object"`
	Rank       int     `json:"rank"`
	Selected   bool    `json:"selected"`
	Effective  float64 `json:"effective"`
	ScoreDelta float64 `json:"score_delta"`
	BonusDelta float64 `json:"bonus_delta"`
	Feasible   bool    `json:"feasible"`
}

// Bundle is a versioned audit bundle: everything a regulator, journalist,
// or applicant needs to verify a published bonus-point policy — the
// cutoff, the policy itself with per-group effects and attribution, the
// beneficiary and displaced lists, and exact counterfactual margins around
// the cutoff. Build one with BuildBundleCtx; render it with RenderJSON,
// RenderCSV, RenderMarkdown, or the format-dispatching Render.
type Bundle struct {
	Version  string  `json:"version"`
	Dataset  string  `json:"dataset"`
	N        int     `json:"n"`
	Polarity string  `json:"polarity"`
	K        float64 `json:"k"`
	Selected int     `json:"selected"`

	// Cutoff is the effective score of the last selected object under the
	// policy; BaseCutoff the same for the uncompensated ranking.
	Cutoff     float64 `json:"cutoff"`
	BaseCutoff float64 `json:"base_cutoff"`

	Policy []PolicyLine `json:"policy"`

	// NormBefore/NormAfter are the disparity norms without and with the
	// policy; NDCG is the utility retained relative to the uncompensated
	// ranking.
	NormBefore float64 `json:"norm_before"`
	NormAfter  float64 `json:"norm_after"`
	NDCG       float64 `json:"ndcg"`

	// FPRDiff carries per-group false-positive-rate differences under the
	// policy when the config asked for them (requires outcomes).
	FPRDiff []float64 `json:"fpr_diff,omitempty"`

	// Exposure carries the per-capita exposure section when the config
	// asked for it (requires binary fairness attributes); nil otherwise,
	// so an unrequested section is omitted from every rendered form.
	Exposure *ExposureSection `json:"exposure,omitempty"`

	// AdmittedCount and DisplacedCount are the numbers of objects whose
	// selection status the policy changed; AdmittedByBonus and
	// DisplacedByBonus list their ids in ascending order, truncated to
	// MaxBeneficiaryIDs entries each.
	AdmittedCount    int   `json:"admitted_count"`
	DisplacedCount   int   `json:"displaced_count"`
	AdmittedByBonus  []int `json:"admitted_by_bonus"`
	DisplacedByBonus []int `json:"displaced_by_bonus"`

	// Margins are counterfactual margin lines for the objects closest to
	// the cutoff on both sides, in rank order.
	Margins []MarginLine `json:"margins"`
}

// ExposureSection is the bundle's position-bias view: how much ranking
// attention (weight 1/log2(rank+1)) each group receives per member inside
// the selection, with and without the policy. Groups lists the binary
// fairness attributes plus the trailing "rest" group (objects belonging
// to none); DDP is the max−min spread of the per-capita entries over
// populated groups — the quantity the policy is meant to compress.
type ExposureSection struct {
	Groups        []string  `json:"groups"`
	PerCapita     []float64 `json:"per_capita"`
	DDP           float64   `json:"ddp"`
	BasePerCapita []float64 `json:"base_per_capita"`
	BaseDDP       float64   `json:"base_ddp"`
}

// BuildBundleCtx assembles the audit bundle for a bonus policy at
// fraction k from one evaluator: the transparency report (cutoff, counts,
// beneficiaries), the leave-one-out attribution, nDCG, and counterfactual
// margins for the boundary window. It is BuildBundleStatsCtx (one shared
// rank-once BundleData pass) followed by FromStats (presentation).
func BuildBundleCtx(ctx context.Context, ev *core.Evaluator, cfg BundleConfig) (*Bundle, error) {
	st, err := BuildBundleStatsCtx(ctx, ev, cfg)
	if err != nil {
		return nil, err
	}
	return FromStats(ev, cfg.Dataset, st), nil
}

// BuildBundleStatsCtx validates an audit request and runs the rank-once
// BundleData pass behind BuildBundleCtx, returning the raw quantities.
// Callers that need more than the rendered bundle — the service reuses
// the margin counterfactuals to seed its per-object cache — build the
// stats once and derive both views from them. Validation happens before
// any computation: an empty dataset, a missing or all-zero bonus policy,
// a dimensionality mismatch, a bad fraction, negative margins, and an FPR
// request without outcomes are all rejected. Once ctx is done the shared
// BundleData pass aborts at its next checkpoint and the context's error
// is returned.
func BuildBundleStatsCtx(ctx context.Context, ev *core.Evaluator, cfg BundleConfig) (*core.BundleStats, error) {
	margins, err := ValidateBundleConfig(ev, cfg)
	if err != nil {
		return nil, err
	}
	return ev.BundleStatsCtx(ctx, core.BundleStatsConfig{
		Bonus:           cfg.Bonus,
		K:               cfg.K,
		Margins:         margins,
		IncludeFPR:      cfg.IncludeFPR,
		IncludeExposure: cfg.IncludeExposure,
	})
}

// ValidateBundleConfig checks an audit request against the evaluator's
// dataset and returns the normalized margin window (zero maps to
// DefaultMargins). BuildBundleStatsCtx runs it before computing; callers
// that route the computation elsewhere — the service asks for the bundle
// as a core.BatchBundle query of a shared plan — run it themselves first,
// so every rejection is byte-identical to the direct path's.
func ValidateBundleConfig(ev *core.Evaluator, cfg BundleConfig) (int, error) {
	d := ev.Dataset()
	if d.N() == 0 {
		return 0, fmt.Errorf("report: cannot audit an empty dataset")
	}
	if len(cfg.Bonus) == 0 {
		return 0, fmt.Errorf("report: missing bonus policy (nothing to audit)")
	}
	if len(cfg.Bonus) != d.NumFair() {
		return 0, fmt.Errorf("report: bonus has %d dimensions, dataset has %d", len(cfg.Bonus), d.NumFair())
	}
	zero := true
	for _, b := range cfg.Bonus {
		if b != 0 {
			zero = false
			break
		}
	}
	if zero {
		return 0, fmt.Errorf("report: bonus policy is all zero (nothing to audit)")
	}
	if err := rank.CheckFraction(cfg.K); err != nil {
		return 0, err
	}
	if cfg.Margins < 0 {
		return 0, fmt.Errorf("report: margins must be non-negative, got %d", cfg.Margins)
	}
	if cfg.IncludeFPR && !d.HasOutcomes() {
		return 0, fmt.Errorf("report: FPR differences require outcomes, dataset has none")
	}
	if cfg.IncludeExposure {
		if ok, offending := d.BinaryFairColumns(); !ok {
			return 0, fmt.Errorf("report: the exposure section requires binary fairness attributes; %q is continuous", offending)
		}
		if d.NumFair() == 0 {
			return 0, fmt.Errorf("report: the exposure section requires fairness attributes, dataset has none")
		}
	}
	margins := cfg.Margins
	if margins == 0 {
		margins = DefaultMargins
	}
	return margins, nil
}

// FromStats shapes one BundleData pass into the versioned audit bundle.
// Every list field is non-nil, so an empty beneficiary list renders as an
// empty JSON array (and an empty CSV/Markdown section), never as null.
func FromStats(ev *core.Evaluator, dataset string, st *core.BundleStats) *Bundle {
	d := ev.Dataset()
	b := &Bundle{
		Version:          BundleVersion,
		Dataset:          dataset,
		N:                d.N(),
		Polarity:         ev.Polarity().String(),
		K:                st.K,
		Selected:         st.Selected,
		Cutoff:           st.Cutoff,
		BaseCutoff:       st.BaseCutoff,
		NormBefore:       st.NormBefore,
		NormAfter:        st.NormAfter,
		NDCG:             st.NDCG,
		FPRDiff:          st.FPRDiff,
		AdmittedCount:    len(st.AdmittedByBonus),
		DisplacedCount:   len(st.DisplacedByBonus),
		AdmittedByBonus:  capIDs(st.AdmittedByBonus),
		DisplacedByBonus: capIDs(st.DisplacedByBonus),
	}
	b.Policy = make([]PolicyLine, d.NumFair())
	for j := range b.Policy {
		b.Policy[j] = PolicyLine{
			Attribute:       st.FairNames[j],
			Points:          st.Bonus[j],
			GroupSize:       ev.GroupSize(j),
			SelectedWith:    st.GroupCounts[j],
			SelectedWithout: st.BaseGroupCounts[j],
			LeaveOneOutNorm: st.LeaveOneOut[j],
			Contribution:    st.Contribution[j],
		}
	}
	if st.Exposure != nil {
		groups := make([]string, 0, d.NumFair()+1)
		groups = append(groups, st.FairNames...)
		groups = append(groups, "rest")
		b.Exposure = &ExposureSection{
			Groups:        groups,
			PerCapita:     append([]float64(nil), st.Exposure...),
			DDP:           st.ExposureDDP,
			BasePerCapita: append([]float64(nil), st.BaseExposure...),
			BaseDDP:       st.BaseExposureDDP,
		}
	}
	b.Margins = make([]MarginLine, len(st.Margins))
	for i, cf := range st.Margins {
		b.Margins[i] = MarginLine{
			Object:     cf.Object,
			Rank:       cf.Rank,
			Selected:   cf.Selected,
			Effective:  cf.Effective,
			ScoreDelta: cf.ScoreDelta,
			BonusDelta: cf.BonusDelta,
			Feasible:   cf.Feasible,
		}
	}
	return b
}

// capIDs copies at most MaxBeneficiaryIDs leading ids into a fresh,
// never-nil slice; the copy also detaches the bundle from the stats'
// backing slice, and non-nil keeps the JSON form an array even when the
// list is empty.
func capIDs(ids []int) []int {
	if len(ids) > MaxBeneficiaryIDs {
		ids = ids[:MaxBeneficiaryIDs]
	}
	out := make([]int, len(ids))
	copy(out, ids)
	return out
}

// Render writes the bundle in the named format: "json", "csv", or
// "markdown" (alias "md").
func (b *Bundle) Render(w io.Writer, format string) error {
	switch format {
	case "json":
		return b.RenderJSON(w)
	case "csv":
		return b.RenderCSV(w)
	case "markdown", "md":
		return b.RenderMarkdown(w)
	default:
		return fmt.Errorf("report: unknown bundle format %q (want json, csv or markdown)", format)
	}
}

// RenderJSON writes the bundle as indented JSON, the machine-readable
// archival form.
func (b *Bundle) RenderJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// RenderCSV writes the bundle as sectioned CSV: every row starts with a
// section tag (meta, policy, fpr, exposure, exposure_ddp, admitted,
// displaced, margin) so the flat
// file remains self-describing when sections are filtered with standard
// tools. Every section that applies to the bundle opens with a header row
// even when it has no data rows (an empty beneficiary list is a finding,
// not a formatting accident); only a section that was not requested — fpr
// on a bundle built without FPR differences — is omitted entirely. The
// same rule governs the JSON and Markdown forms.
func (b *Bundle) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	meta := [][2]string{
		{"version", b.Version},
		{"dataset", b.Dataset},
		{"n", strconv.Itoa(b.N)},
		{"polarity", b.Polarity},
		{"k", fmtG(b.K)},
		{"selected", strconv.Itoa(b.Selected)},
		{"cutoff", fmtG(b.Cutoff)},
		{"base_cutoff", fmtG(b.BaseCutoff)},
		{"norm_before", fmtG(b.NormBefore)},
		{"norm_after", fmtG(b.NormAfter)},
		{"ndcg", fmtG(b.NDCG)},
		{"admitted_count", strconv.Itoa(b.AdmittedCount)},
		{"displaced_count", strconv.Itoa(b.DisplacedCount)},
	}
	for _, kv := range meta {
		if err := cw.Write([]string{"meta", kv[0], kv[1]}); err != nil {
			return err
		}
	}
	if err := cw.Write([]string{"policy", "attribute", "points", "group_size",
		"selected_with", "selected_without", "leave_one_out_norm", "contribution"}); err != nil {
		return err
	}
	for _, p := range b.Policy {
		if err := cw.Write([]string{"policy", p.Attribute, fmtG(p.Points),
			strconv.Itoa(p.GroupSize), strconv.Itoa(p.SelectedWith), strconv.Itoa(p.SelectedWithout),
			fmtG(p.LeaveOneOutNorm), fmtG(p.Contribution)}); err != nil {
			return err
		}
	}
	if b.FPRDiff != nil {
		if err := cw.Write([]string{"fpr", "attribute", "fpr_diff"}); err != nil {
			return err
		}
		for j, v := range b.FPRDiff {
			if err := cw.Write([]string{"fpr", b.Policy[j].Attribute, fmtG(v)}); err != nil {
				return err
			}
		}
	}
	if b.Exposure != nil {
		if err := cw.Write([]string{"exposure", "group", "per_capita", "base_per_capita"}); err != nil {
			return err
		}
		for j, g := range b.Exposure.Groups {
			if err := cw.Write([]string{"exposure", g,
				fmtG(b.Exposure.PerCapita[j]), fmtG(b.Exposure.BasePerCapita[j])}); err != nil {
				return err
			}
		}
		if err := cw.Write([]string{"exposure_ddp", "with_policy", fmtG(b.Exposure.DDP)}); err != nil {
			return err
		}
		if err := cw.Write([]string{"exposure_ddp", "without_policy", fmtG(b.Exposure.BaseDDP)}); err != nil {
			return err
		}
	}
	if err := cw.Write([]string{"admitted", "object"}); err != nil {
		return err
	}
	for _, id := range b.AdmittedByBonus {
		if err := cw.Write([]string{"admitted", strconv.Itoa(id)}); err != nil {
			return err
		}
	}
	if err := cw.Write([]string{"displaced", "object"}); err != nil {
		return err
	}
	for _, id := range b.DisplacedByBonus {
		if err := cw.Write([]string{"displaced", strconv.Itoa(id)}); err != nil {
			return err
		}
	}
	if err := cw.Write([]string{"margin", "object", "rank", "selected",
		"effective", "score_delta", "bonus_delta", "feasible"}); err != nil {
		return err
	}
	for _, m := range b.Margins {
		score, bonus := fmtG(m.ScoreDelta), fmtG(m.BonusDelta)
		if !m.Feasible {
			// An unflippable object has no meaningful delta; empty cells
			// beat a literal 0 that reads as "zero change flips".
			score, bonus = "", ""
		}
		if err := cw.Write([]string{"margin", strconv.Itoa(m.Object), strconv.Itoa(m.Rank),
			strconv.FormatBool(m.Selected), fmtG(m.Effective), score, bonus,
			strconv.FormatBool(m.Feasible)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// RenderMarkdown writes the bundle as the human-readable policy document —
// the form the paper argues bonus points make possible: published in
// advance, read directly as policy.
func (b *Bundle) RenderMarkdown(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("# Fair-ranking audit bundle (v%s)\n\n", b.Version)
	p("Dataset **%s** — %d objects, %s selection, top %s%% (%d selected).\n\n",
		b.Dataset, b.N, b.Polarity, fmtG(b.K*100), b.Selected)
	p("Published cutoff: **%s** (uncompensated: %s). ", fmtG(b.Cutoff), fmtG(b.BaseCutoff))
	p("Disparity norm %s → %s; nDCG %s.\n\n", fmtG(b.NormBefore), fmtG(b.NormAfter), fmtG(b.NDCG))

	p("## Policy\n\n")
	p("| Attribute | Bonus points | Group size | Selected (with) | Selected (without) | Norm w/o this bonus | Contribution |\n")
	p("| --- | ---: | ---: | ---: | ---: | ---: | ---: |\n")
	for _, line := range b.Policy {
		p("| %s | %s | %d | %d | %d | %s | %s |\n", line.Attribute, fmtG(line.Points),
			line.GroupSize, line.SelectedWith, line.SelectedWithout,
			fmtG(line.LeaveOneOutNorm), fmtG(line.Contribution))
	}
	p("\n")
	if len(b.FPRDiff) > 0 {
		p("## False-positive-rate differences\n\n| Attribute | FPR diff |\n| --- | ---: |\n")
		for j, v := range b.FPRDiff {
			p("| %s | %s |\n", b.Policy[j].Attribute, fmtG(v))
		}
		p("\n")
	}
	if b.Exposure != nil {
		p("## Exposure\n\n")
		p("Per-capita ranking attention (weight 1/log2(rank+1)) inside the selection; ")
		p("disparity (max − min over populated groups) %s → %s under the policy.\n\n",
			fmtG(b.Exposure.BaseDDP), fmtG(b.Exposure.DDP))
		p("| Group | Per capita (with policy) | Per capita (without) |\n")
		p("| --- | ---: | ---: |\n")
		for j, g := range b.Exposure.Groups {
			p("| %s | %s | %s |\n", g, fmtG(b.Exposure.PerCapita[j]), fmtG(b.Exposure.BasePerCapita[j]))
		}
		p("\n")
	}
	p("## Selection changes\n\nAdmitted through bonus points: %d; displaced: %d.\n\n",
		b.AdmittedCount, b.DisplacedCount)
	p("%s\n", idLine("Admitted ids", b.AdmittedByBonus, b.AdmittedCount))
	p("%s\n\n", idLine("Displaced ids", b.DisplacedByBonus, b.DisplacedCount))

	p("## Counterfactual margins at the cutoff\n\n")
	p("Minimal change that flips each boundary object, in effective score and in bonus points.\n\n")
	p("| Object | Rank | Selected | Effective | Score delta | Bonus delta |\n")
	p("| ---: | ---: | :-: | ---: | ---: | ---: |\n")
	for _, m := range b.Margins {
		score, bonus := fmtG(m.ScoreDelta), fmtG(m.BonusDelta)
		if !m.Feasible {
			score, bonus = "unflippable", "unflippable"
		}
		p("| %d | %d | %t | %s | %s | %s |\n", m.Object, m.Rank, m.Selected,
			fmtG(m.Effective), score, bonus)
	}
	return err
}

// idLine renders one beneficiary id list as a Markdown line. An empty
// list says "none" explicitly — the same section always appears, so the
// three renderers agree on what an empty list looks like — and a
// truncated list names the cap so the count/list mismatch reads as
// policy, not as missing data.
func idLine(label string, ids []int, total int) string {
	if len(ids) == 0 {
		return label + ": none."
	}
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.Itoa(id)
	}
	if total > len(ids) {
		label += fmt.Sprintf(" (first %d of %d)", len(ids), total)
	}
	return label + ": " + strings.Join(parts, ", ") + "."
}

// fmtG formats a float at full precision, the bundle's archival rule:
// rendered numbers must survive a round-trip.
func fmtG(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
