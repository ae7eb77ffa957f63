package core

import (
	"context"
	"fmt"

	"fairrank/internal/engine"
)

// Explanation is the transparency report the paper argues bonus points make
// possible (Section III-C): a published cutoff, per-attribute participation,
// and per-object score breakdowns, so that "applicants can easily assess
// their chances" and "know their score and fairness adjustments at the time
// of application".
type Explanation struct {
	// K is the selection fraction explained.
	K float64
	// Selected is the number of selected objects.
	Selected int
	// Cutoff is the effective score of the last selected object: with the
	// bonus vector published, any applicant can compare their own adjusted
	// score against it.
	Cutoff float64
	// BaseCutoff is the cutoff of the uncompensated ranking, for contrast.
	BaseCutoff float64
	// Bonus is the bonus vector the report explains (copied; always one
	// entry per fairness attribute, so a nil bonus reads as the zero
	// vector and ExplainObject can index it).
	Bonus []float64
	// FairNames are the fairness attribute names, aligned with Bonus.
	FairNames []string
	// AdmittedByBonus lists objects selected under the bonus but not in
	// the uncompensated selection (the beneficiaries).
	AdmittedByBonus []int
	// DisplacedByBonus lists objects selected without the bonus but not
	// under it.
	DisplacedByBonus []int
	// GroupCounts[j] counts selected members of binary fairness attribute
	// j (value > 0.5) under the bonus; BaseGroupCounts is the same for the
	// uncompensated selection.
	GroupCounts     []int
	BaseGroupCounts []int
}

// ObjectExplanation breaks one object's effective score into its published
// components.
type ObjectExplanation struct {
	Object     int
	BaseScore  float64
	BonusTotal float64 // signed contribution: negative under Adverse polarity
	// PerAttribute lists each fairness attribute's contribution
	// (attribute value x bonus points, signed by polarity).
	PerAttribute []float64
	Effective    float64
	Selected     bool
	// Margin is Effective - Cutoff: how far above (positive) or below
	// (negative) the published threshold the object lands.
	Margin float64
}

// ExplainCtx produces the transparency report for a bonus vector at
// selection fraction k. A nil bonus explains the uncompensated ranking;
// the report's Bonus is then the zero vector. It is one BatchExplain
// query: a single ranked prefix of the selection, read against the cached
// uncompensated order.
func (e *Evaluator) ExplainCtx(ctx context.Context, bonus []float64, k float64) (*Explanation, error) {
	a, err := e.answerOne(ctx, bonus, BatchQuery{Kind: BatchExplain, K: k})
	return a.Explanation, err
}

// explainWS answers one BatchExplain query from a plan's order.
func (e *Evaluator) explainWS(ws *engine.Workspace, order []int, eff, bonus []float64, k float64, cnt int) *Explanation {
	dims := e.d.NumFair()
	exp := &Explanation{
		K:               k,
		Selected:        cnt,
		Bonus:           make([]float64, dims),
		FairNames:       e.d.FairNames(),
		GroupCounts:     make([]int, dims),
		BaseGroupCounts: make([]int, dims),
	}
	copy(exp.Bonus, bonus)
	exp.Cutoff, exp.BaseCutoff, exp.AdmittedByBonus, exp.DisplacedByBonus = e.selectionWS(ws, order, eff, cnt, exp.GroupCounts, exp.BaseGroupCounts)
	return exp
}

// ExplainObject breaks down one object's score against the report's
// published cutoff.
func (e *Evaluator) ExplainObject(exp *Explanation, obj int) (ObjectExplanation, error) {
	if obj < 0 || obj >= e.d.N() {
		return ObjectExplanation{}, fmt.Errorf("core: object %d outside [0,%d)", obj, e.d.N())
	}
	sign := e.pol.Sign()
	oe := ObjectExplanation{
		Object:       obj,
		BaseScore:    e.base[obj],
		PerAttribute: make([]float64, e.d.NumFair()),
	}
	for j := range oe.PerAttribute {
		c := sign * e.d.Fair(obj, j) * exp.Bonus[j]
		oe.PerAttribute[j] = c
		oe.BonusTotal += c
	}
	oe.Effective = oe.BaseScore + oe.BonusTotal
	oe.Margin = oe.Effective - exp.Cutoff
	oe.Selected = oe.Margin > 0 || (oe.Margin == 0)
	// Margin == 0 means the object sits exactly at the cutoff; whether it
	// is in depends on the tie-break, so resolve it precisely.
	if oe.Margin == 0 {
		sel, err := e.SelectCtx(context.Background(), exp.Bonus, exp.K)
		if err != nil {
			return ObjectExplanation{}, err
		}
		oe.Selected = false
		for _, i := range sel {
			if i == obj {
				oe.Selected = true
				break
			}
		}
	}
	return oe, nil
}

// Summary renders the report as human-readable lines.
func (exp *Explanation) Summary() []string {
	lines := []string{
		fmt.Sprintf("selection: top %.1f%% = %d objects", exp.K*100, exp.Selected),
		fmt.Sprintf("published cutoff: %.3f (uncompensated cutoff: %.3f)", exp.Cutoff, exp.BaseCutoff),
	}
	for j, name := range exp.FairNames {
		lines = append(lines, fmt.Sprintf("%s: %g bonus points; selected members %d (was %d)",
			name, exp.Bonus[j], exp.GroupCounts[j], exp.BaseGroupCounts[j]))
	}
	lines = append(lines, fmt.Sprintf("admitted through bonus points: %d; displaced: %d",
		len(exp.AdmittedByBonus), len(exp.DisplacedByBonus)))
	return lines
}
