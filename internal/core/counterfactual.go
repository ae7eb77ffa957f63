package core

import (
	"context"
	"fmt"
	"math"

	"fairrank/internal/engine"
	"fairrank/internal/metrics"
)

// Counterfactual answers, for one object, the question the paper's
// transparency framing invites every applicant to ask: "how far am I from
// the published cutoff, and what is the smallest change that would flip my
// outcome?" Because bonus points enter the effective score additively
// (Definition 2), the answer is exactly computable from the ranked order:
// the flip is decided against a single boundary competitor, and the
// minimal delta is found by a bit-level binary search between the object's
// effective score and the published cutoff.
type Counterfactual struct {
	// Object is the absolute object id the counterfactual explains.
	Object int
	// Selected reports whether the object is in the top-k selection under
	// the audited bonus vector.
	Selected bool
	// Rank is the object's position in the ranked order (0 = best).
	Rank int
	// Effective is the object's effective (bonus-adjusted) score.
	Effective float64
	// Cutoff is the effective score of the boundary competitor the flip is
	// decided against: the last selected object when entering, the first
	// excluded object when exiting.
	Cutoff float64
	// Competitor is that boundary object's id.
	Competitor int
	// ScoreDelta is the minimal signed change to the object's effective
	// score that flips Selected — positive to enter the selection, negative
	// to leave it. Minimality is exact at float64 resolution: applying
	// ScoreDelta flips the selection, and no smaller-magnitude float64
	// does (see TestCounterfactualConsistency).
	ScoreDelta float64
	// BonusDelta is ScoreDelta expressed in bonus points — the change to
	// the object's total awarded bonus A_f(o)·B that achieves ScoreDelta.
	// Under Adverse polarity bonus points are subtracted from the score,
	// so BonusDelta = -ScoreDelta there (more points pull the object out
	// of an adverse selection).
	BonusDelta float64
	// PerAttribute[j] is the change to published bonus B_j that would hand
	// this object BonusDelta through attribute j alone:
	// BonusDelta / A_f(o)_j. Zero marks attributes the object is not a
	// member of (no change to that attribute's bonus can move it). This is
	// the individual reading — "how many more points on attribute j would
	// this object have needed" — not a policy change, which would move
	// every group member; see Evaluator.AttributeDisparity for the
	// group-level view.
	PerAttribute []float64
	// Feasible is false when no score change can flip the object: the
	// selection covers the whole population, so nobody can enter or leave.
	Feasible bool
}

// Attribution is the group-level companion of Counterfactual: a
// leave-one-attribute-out decomposition of the disparity reduction the
// bonus vector buys. Each attribute's bonus is zeroed in turn (the other
// entries kept), and the resulting disparity norm shows what that
// attribute's compensation contributes to the whole policy.
type Attribution struct {
	// K is the selection fraction attributed.
	K float64
	// FairNames are the fairness attribute names, aligned with Bonus,
	// LeaveOneOut and Contribution.
	FairNames []string
	// Bonus is the attributed bonus vector (copied; a nil bonus is the
	// zero vector).
	Bonus []float64
	// NormBase is the disparity norm of the uncompensated selection and
	// NormFull the norm under the full bonus vector; Reduction is their
	// difference — the total effect the policy is being credited for.
	NormBase  float64
	NormFull  float64
	Reduction float64
	// LeaveOneOut[j] is the disparity norm with attribute j's bonus zeroed
	// and every other entry kept.
	LeaveOneOut []float64
	// Contribution[j] = LeaveOneOut[j] - NormFull: how much worse the
	// disparity norm gets when attribute j's compensation is withdrawn.
	// Contributions need not sum to Reduction — overlapping group
	// memberships interact — which is exactly what the decomposition
	// surfaces.
	Contribution []float64
}

// checkBonusDims validates a bonus vector's dimensionality; nil means the
// zero vector and is always valid.
func (e *Evaluator) checkBonusDims(bonus []float64) error {
	if bonus != nil && len(bonus) != e.d.NumFair() {
		return fmt.Errorf("core: bonus has %d dimensions, dataset has %d", len(bonus), e.d.NumFair())
	}
	return nil
}

// CounterfactualBatchCtx computes counterfactuals for every listed object
// in one pass: the population is ranked once (through a pooled engine
// workspace, like every evaluator path), and each object is then answered
// in O(64) comparisons against its boundary competitor — the binary search
// runs over float64 bit patterns, so the returned delta is the smallest
// representable change that flips the selection. The only allocations
// are the one-query plan, the result slice and one backing array for the
// per-attribute rows. It is one BatchCounterfactual query. On the
// combo-run merge route the batch needs no population-wide pass at all:
// the boundary competitors come off a prefix of cnt+1 positions, merged
// or read from the ranked-order memo, and each object's rank from per-run
// binary searches; otherwise the plan ranks the full order. The single
// ranking pass aborts at its next checkpoint once ctx is done and the
// context's error is returned.
func (e *Evaluator) CounterfactualBatchCtx(ctx context.Context, bonus []float64, k float64, objs []int) ([]Counterfactual, error) {
	a, err := e.answerOne(ctx, bonus, BatchQuery{Kind: BatchCounterfactual, K: k, Objects: objs})
	return a.Counterfactuals, err
}

// counterfactualsWS answers every listed object against a plan's ranked
// order and the effective scores it was ranked by, both on the same
// workspace. The order may be a prefix as long as it covers the boundary
// competitors (positions cnt-1 and, when cnt < n, cnt). Each object's rank
// and effective score come from one of two sources:
//
//   - merged: per-run binary searches (ComboRuns.RankOf,
//     O(g·log(n/g)) per object) against the run offsets rankedPrefixWS
//     left in the workspace scratch. The order is then a prefix, merged or
//     read from the ranked-order memo. The rank every run contributes is
//     the count of members outranking the object under the same total
//     order the full sort realizes, so an object past the prefix gets its
//     exact rank.
//   - otherwise: the inverse permutation of order, which must then cover
//     every listed object. objs may alias order (the bundle margin window
//     passes a slice of it); the inverse is built before any result is
//     written, and nothing below mutates either buffer.
func (e *Evaluator) counterfactualsWS(ws *engine.Workspace, order []int, eff effScores, merged bool, cnt int, objs []int) []Counterfactual {
	n := e.d.N()
	var inv []int
	if !merged {
		// The abs buffer is unused by the ranking path.
		inv = ws.Abs(n)
		for pos, o := range order {
			inv[o] = pos
		}
	}
	// The boundary competitors: the last selected object and, when the
	// selection leaves anyone out, the first excluded one.
	last := order[cnt-1]
	lastEff := eff.at(last)
	first, firstEff := -1, 0.0
	if cnt < n {
		first = order[cnt]
		firstEff = eff.at(first)
	}
	dims := e.d.NumFair()
	sign := e.pol.Sign()
	backing := make([]float64, len(objs)*dims)
	out := make([]Counterfactual, len(objs))
	for r, obj := range objs {
		cf := Counterfactual{Object: obj, PerAttribute: backing[r*dims : (r+1)*dims : (r+1)*dims]}
		if merged {
			cf.Rank, cf.Effective = e.runs.RankOf(obj, ws.Merge())
		} else {
			cf.Rank, cf.Effective = inv[obj], eff.at(obj)
		}
		cf.Selected = cf.Rank < cnt
		if cf.Selected {
			// A selected object leaves only by dropping below the first
			// excluded object; with k covering everyone there is none.
			if first < 0 {
				cf.Competitor = -1
				out[r] = cf
				continue
			}
			cf.Competitor, cf.Cutoff = first, firstEff
		} else {
			cf.Competitor, cf.Cutoff = last, lastEff
		}
		e.finishCounterfactual(&cf, sign)
		out[r] = cf
	}
	return out
}

// finishCounterfactual computes the minimal flip delta and the
// per-attribute readings of a counterfactual whose identity fields
// (Object, Rank, Effective, Selected, Competitor, Cutoff, PerAttribute
// backing) are already set. Both rank sources of counterfactualsWS go
// through it, so their results are bit-identical by construction.
// Feasible stays false when no finite delta flips (an overflowed score
// landed at ±Inf): the object is reported unflippable rather than
// emitting a non-finite delta that JSON cannot carry.
func (e *Evaluator) finishCounterfactual(cf *Counterfactual, sign float64) {
	delta, ok := minFlipDelta(cf.Effective, cf.Cutoff, cf.Object, cf.Competitor, cf.Selected)
	if !ok {
		return
	}
	cf.Feasible = true
	cf.ScoreDelta = delta
	cf.BonusDelta = sign * cf.ScoreDelta
	for j := 0; j < e.d.NumFair(); j++ {
		if a := e.d.Fair(cf.Object, j); a > 0 {
			cf.PerAttribute[j] = cf.BonusDelta / a
		}
	}
}

// flips reports whether moving the object's effective score to s flips it
// relative to the boundary competitor, under the evaluator's exact
// tie-break (higher score wins, ties go to the lower index). For a
// selected object the flip is falling below the first excluded object; for
// an unselected object it is overtaking the last selected one.
func flips(s, cutoff float64, obj, competitor int, selected bool) bool {
	if selected {
		return cutoff > s || (cutoff == s && competitor < obj)
	}
	return s > cutoff || (s == cutoff && obj < competitor)
}

// minFlipDelta finds the minimal-magnitude signed float64 delta d such
// that the object's effective score moved to eff+d flips its selection.
// The flip predicate is monotone in the delta's magnitude, and
// non-negative float64 values are order-isomorphic to their bit patterns,
// so a binary search over the bit space finds the exact minimal
// representable delta in at most 63 probes. This is the "binary search
// over the published cutoff" of the audit workload: no closed form is
// trusted, only the same comparison the ranking itself performs.
//
// ok is false when no finite delta flips the object — possible only when
// an effective score overflowed to ±Inf, where adding MaxFloat64 cannot
// cross the cutoff.
func minFlipDelta(eff, cutoff float64, obj, competitor int, selected bool) (d float64, ok bool) {
	dir := 1.0 // unselected objects enter by gaining score
	if selected {
		dir = -1 // selected objects leave by losing score
	}
	probe := func(m float64) bool {
		return flips(eff+dir*m, cutoff, obj, competitor, selected)
	}
	if probe(0) {
		return 0, true // already flipped — cannot happen for a consistent ranking
	}
	hi := math.Float64bits(math.MaxFloat64)
	if !probe(math.MaxFloat64) {
		return 0, false
	}
	var lo uint64 // probe(0) is false
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if probe(math.Float64frombits(mid)) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return dir * math.Float64frombits(hi), true
}

// AttributeDisparity decomposes the disparity reduction of a bonus vector
// at fraction k by leaving each attribute's bonus out in turn. All
// dims+2 evaluations (zero vector, full vector, one leave-one-out vector
// per attribute) run through DisparitySweepCtx, so distinct vectors fan
// over the worker pool and duplicates — an attribute whose bonus is
// already zero leaves the vector unchanged — are ranked only once.
func (e *Evaluator) AttributeDisparity(bonus []float64, k float64) (*Attribution, error) {
	if err := e.checkBonusDims(bonus); err != nil {
		return nil, err
	}
	dims := e.d.NumFair()
	points := make([]SweepPoint, dims+2)
	points[0] = SweepPoint{Bonus: nil, K: k}
	points[1] = SweepPoint{Bonus: bonus, K: k}
	looBacking := make([]float64, dims*dims)
	for j := 0; j < dims; j++ {
		loo := looBacking[j*dims : (j+1)*dims]
		copy(loo, bonus)
		loo[j] = 0
		points[2+j] = SweepPoint{Bonus: loo, K: k}
	}
	vecs, err := e.DisparitySweepCtx(context.Background(), points)
	if err != nil {
		return nil, err
	}
	att := &Attribution{
		K:            k,
		FairNames:    e.d.FairNames(),
		Bonus:        make([]float64, dims),
		NormBase:     metrics.Norm(vecs[0]),
		NormFull:     metrics.Norm(vecs[1]),
		LeaveOneOut:  make([]float64, dims),
		Contribution: make([]float64, dims),
	}
	copy(att.Bonus, bonus)
	att.Reduction = att.NormBase - att.NormFull
	for j := 0; j < dims; j++ {
		att.LeaveOneOut[j] = metrics.Norm(vecs[2+j])
		att.Contribution[j] = att.LeaveOneOut[j] - att.NormFull
	}
	return att, nil
}
