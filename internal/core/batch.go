package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"fairrank/internal/engine"
	"fairrank/internal/metrics"
	"fairrank/internal/rank"
)

// The evaluation plan. Because bonus points enter the effective score
// additively (Definition 2), the ranked order under a (dataset, bonus)
// pair does not depend on the selection fraction, the metric, or the
// object ids being asked about — so any set of questions about one bonus
// vector is answerable from ONE ranked prefix sized to their maximum cut.
// A plan is that set: every evaluator entry point builds one (or, for a
// multi-bonus sweep, one per bonus group) and runs it.
//
//   - validation happens once, up front, for every query of the plan;
//   - rankedPrefixWS ranks once (ranked-order memo → combo-run merge →
//     bounded-heap prefix → full order), and the primary pass leaves its
//     order in the memo, so the next plan on the same bonus (another
//     request, another k) reads it instead of ranking again;
//   - each metric kind runs its prefix fold once over the ascending union
//     of its queries' cuts and its finisher turns one row per query into
//     the answer — a fold's value at a cut does not depend on which other
//     cuts share the grid, so answers are bit-identical however queries
//     are grouped;
//   - counterfactual, bundle and explanation queries read the same order;
//     bundles add one leave-one-out prefix per attribute with a non-zero
//     bonus, fanned out beside the primary pass and shared by every bundle
//     of the plan.
//
// AnswerBatchCtx exposes the plan directly: the service micro-batcher
// collects heterogeneous (k, ids, metric) queries behind one window and
// one plan answers them all.

// BatchKind selects what one BatchQuery asks of the shared pass.
type BatchKind int

const (
	// BatchDisparity asks for the full-population disparity vector of the
	// top-K selection.
	BatchDisparity BatchKind = iota
	// BatchNDCG asks for the utility retained at fraction K.
	BatchNDCG
	// BatchDisparateImpact asks for the scaled disparate-impact vector of
	// the top-K selection.
	BatchDisparateImpact
	// BatchFPRDiff asks for the per-group FPR difference vector of the
	// top-K selection; the dataset must carry outcomes.
	BatchFPRDiff
	// BatchCounterfactual asks for the minimal flip deltas of Objects at
	// fraction K.
	BatchCounterfactual
	// BatchBundle asks for a full BundleStatsCtx audit pass; Bundle carries
	// the config, whose bonus must canonically equal the batch's.
	BatchBundle
	// BatchExposure asks for the per-capita exposure vector of the top-K
	// selection (named groups plus the unprotected rest) together with its
	// DDP scalar; fairness attributes must be binary.
	BatchExposure
	// BatchExpRatio asks for the exposure/merit ratio vector of the top-K
	// selection; fairness attributes must be binary and the dataset must
	// carry outcomes.
	BatchExpRatio
	// BatchTopK asks for the top-K rank-fairness share vector of the top-K
	// selection; fairness attributes must be binary.
	BatchTopK
	// BatchExplain asks for the transparency report (Explain) of the top-K
	// selection.
	BatchExplain
)

// metricKinds are the kinds answered by a prefix fold plus a finisher —
// the kinds a sweep can ask for.
var metricKinds = [...]BatchKind{BatchDisparity, BatchNDCG, BatchDisparateImpact, BatchFPRDiff, BatchExposure, BatchExpRatio, BatchTopK}

// BatchQuery is one member request of a shared-bonus batch.
type BatchQuery struct {
	Kind BatchKind
	// K is the selection fraction (unused by BatchBundle, which reads
	// Bundle.K).
	K float64
	// Objects are the ids a BatchCounterfactual query explains.
	Objects []int
	// Bundle parameterizes a BatchBundle query.
	Bundle *BundleStatsConfig
}

// BatchAnswer is one query's result. The payload fields matching the query
// kind are set — exactly one for most kinds; a BatchExposure answer sets
// both Vector (the per-capita row) and Value (the DDP) — unless Err is
// set, which carries the data-dependent failures the per-request path
// reports per point (metrics.ErrZeroIdealDCG,
// metrics.ErrDegenerateGroups): a bad query never poisons its batchmates.
type BatchAnswer struct {
	// Vector holds disparity / disparate-impact / FPR-difference /
	// exposure-family rows.
	Vector []float64
	// Value holds the nDCG scalar, or a BatchExposure query's DDP.
	Value float64
	// Counterfactuals holds a BatchCounterfactual query's results.
	Counterfactuals []Counterfactual
	// Bundle holds a BatchBundle query's results.
	Bundle *BundleStats
	// Explanation holds a BatchExplain query's report.
	Explanation *Explanation
	// Err is the query's own failure; the other fields are zero.
	Err error
}

// batchGeom is the per-query pass geometry resolved during validation.
type batchGeom struct {
	cnt     int // selection count; a BatchNDCG query's prefix-DCG cut
	cut     int // leading positions of the shared order this query reads
	ndcgCut int // bundle utility cut
}

// plan is one shared-bonus evaluation: its validated queries, their pass
// geometry, and the answers the pass fills, all in query order.
type plan struct {
	e      *Evaluator
	given  []float64 // the bonus as the caller spelled it
	bonus  []float64 // canonical: nil ranks by the cached base order
	qs     []BatchQuery
	geom   []batchGeom
	ans    []BatchAnswer
	maxCut int
	full   bool // a counterfactual needs every object's rank
}

// queryError is one query's validation failure. Error words it as
// AnswerBatchCtx reports it, locating the query; the cause is what the
// single-query entry points have always returned.
type queryError struct {
	msg   string
	cause error
}

func (q *queryError) Error() string { return q.msg }
func (q *queryError) Unwrap() error { return q.cause }

// fracError locates a selection-fraction failure of query i.
func fracError(i int, k float64, err error) error {
	return &queryError{fmt.Sprintf("core: batch query %d (k=%g): %v", i, k, err), err}
}

// plainErr strips a queryError down to its cause.
func plainErr(err error) error {
	var qe *queryError
	if errors.As(err, &qe) {
		return qe.cause
	}
	return err
}

// kindGuard checks the dataset capabilities a query kind needs.
func (e *Evaluator) kindGuard(kind BatchKind) error {
	switch kind {
	case BatchFPRDiff:
		if !e.d.HasOutcomes() {
			return fmt.Errorf("core: FPR evaluation requires outcomes")
		}
	case BatchExposure, BatchExpRatio, BatchTopK:
		if err := e.exposureGuard(); err != nil {
			return err
		}
		if kind == BatchExpRatio && !e.d.HasOutcomes() {
			return fmt.Errorf("core: exposure/merit ratio requires outcomes")
		}
	}
	return nil
}

// vectorWidth is the row width of a kind's Vector answer (0: none).
func (e *Evaluator) vectorWidth(kind BatchKind) int {
	switch kind {
	case BatchDisparity, BatchDisparateImpact, BatchFPRDiff, BatchExpRatio, BatchTopK:
		return e.d.NumFair()
	case BatchExposure:
		return e.d.NumFair() + 1
	}
	return 0
}

// queryGeom validates query i against the dataset and the canonical plan
// bonus and resolves its pass geometry.
func (e *Evaluator) queryGeom(i int, q *BatchQuery, bonus []float64) (batchGeom, error) {
	n := e.d.N()
	var g batchGeom
	switch q.Kind {
	case BatchDisparity, BatchDisparateImpact, BatchFPRDiff, BatchExposure, BatchExpRatio, BatchTopK, BatchExplain, BatchCounterfactual:
		if err := e.kindGuard(q.Kind); err != nil {
			return g, err
		}
		cnt, err := rank.SelectCount(n, q.K)
		if err != nil {
			return g, fracError(i, q.K, err)
		}
		g.cnt, g.cut = cnt, cnt
		if q.Kind != BatchCounterfactual {
			break
		}
		for _, obj := range q.Objects {
			if obj < 0 || obj >= n {
				return g, &queryError{fmt.Sprintf("core: batch query %d: object %d outside [0,%d)", i, obj, n),
					fmt.Errorf("core: object %d outside [0,%d)", obj, n)}
			}
		}
		if cnt < n {
			g.cut = cnt + 1 // the first excluded object is a boundary competitor too
		}
	case BatchNDCG:
		cut, err := metrics.PrefixCount(n, q.K)
		if err != nil {
			return g, fracError(i, q.K, err)
		}
		g.cnt, g.cut = cut, cut
	case BatchBundle:
		b := q.Bundle
		if b == nil {
			return g, fmt.Errorf("core: batch query %d: bundle query without a config", i)
		}
		if !slices.Equal(canonBonus(b.Bonus), bonus) {
			return g, fmt.Errorf("core: batch query %d: bundle bonus differs from the batch bonus", i)
		}
		if b.Margins < 0 {
			return g, fmt.Errorf("core: margin window %d is negative", b.Margins)
		}
		if b.IncludeFPR {
			if err := e.kindGuard(BatchFPRDiff); err != nil {
				return g, err
			}
		}
		if b.IncludeExposure {
			if err := e.exposureGuard(); err != nil {
				return g, err
			}
		}
		cnt, err := rank.SelectCount(n, b.K)
		if err != nil {
			return g, fracError(i, b.K, err)
		}
		// The nDCG cut resolves through the metric package's own fraction
		// arithmetic, exactly as a BatchNDCG query does.
		ndcgCut, err := metrics.PrefixCount(n, b.K)
		if err != nil {
			return g, fracError(i, b.K, err)
		}
		g.cnt, g.ndcgCut = cnt, ndcgCut
		g.cut = max(min(cnt+b.Margins, n), ndcgCut)
	default:
		return g, fmt.Errorf("core: batch query %d: unknown kind %d", i, q.Kind)
	}
	return g, nil
}

// init validates a shared-bonus plan once, up front — the bonus
// dimensions, a non-empty dataset, then every query in order — and carves
// each vector answer from one backing array. geom and ans are len(qs)
// scratch the plan adopts.
func (p *plan) init(e *Evaluator, bonus []float64, qs []BatchQuery, geom []batchGeom, ans []BatchAnswer) error {
	if err := e.checkBonusDims(bonus); err != nil {
		return err
	}
	if e.d.N() == 0 {
		return fmt.Errorf("core: cannot evaluate an empty dataset")
	}
	*p = plan{e: e, given: bonus, bonus: canonBonus(bonus), qs: qs, geom: geom, ans: ans}
	width := 0
	for i := range qs {
		g, err := e.queryGeom(i, &qs[i], p.bonus)
		if err != nil {
			return err
		}
		p.add(i, g)
		width += e.vectorWidth(qs[i].Kind)
	}
	rows := make([]float64, width)
	for i := range qs {
		w := e.vectorWidth(qs[i].Kind)
		ans[i].Vector, rows = rows[:w:w], rows[w:]
	}
	return nil
}

// add records query i's validated geometry.
func (p *plan) add(i int, g batchGeom) {
	p.geom[i] = g
	p.maxCut = max(p.maxCut, g.cut)
	p.full = p.full || p.qs[i].Kind == BatchCounterfactual
}

// AnswerBatchCtx validates every query up front (a batch-wide error, so
// the service layer can keep malformed requests out of the window), then
// runs one plan: one ranked prefix sized to the batch's maximum cut
// answers every query. The ranking budget is one pass for the whole batch
// — plus, when bundles are present, one leave-one-out prefix per
// attribute with a non-zero bonus, shared across every bundle — instead
// of one per request; a zero bonus is answered from the cached base order
// for free.
//
// Cancellation is cooperative: ctx is the BATCH's
// context, not any one caller's — the batcher cancels it only when every
// member is gone, so one caller's disconnect never poisons the rest. A
// non-nil error means no answers were produced.
func (e *Evaluator) AnswerBatchCtx(ctx context.Context, bonus []float64, qs []BatchQuery) ([]BatchAnswer, error) {
	var p plan
	if err := p.init(e, bonus, qs, make([]batchGeom, len(qs)), make([]BatchAnswer, len(qs))); err != nil || len(qs) == 0 {
		return nil, err
	}
	if err := p.run(ctx); err != nil {
		return nil, err
	}
	return p.ans, nil
}

// onePlan is a one-query plan with its scratch inline, so a pointwise
// entry point costs one allocation for the plan.
type onePlan struct {
	plan
	q [1]BatchQuery
	g [1]batchGeom
	a [1]BatchAnswer
}

// answerOne runs q as a one-query plan. Validation failures come back as
// the single-query entry points have always worded them, and the answer's
// own Err is returned as the error.
func (e *Evaluator) answerOne(ctx context.Context, bonus []float64, q BatchQuery) (BatchAnswer, error) {
	o := &onePlan{q: [1]BatchQuery{q}}
	if err := o.init(e, bonus, o.q[:], o.g[:], o.a[:]); err != nil {
		return BatchAnswer{}, plainErr(err)
	}
	if err := o.run(ctx); err != nil {
		return BatchAnswer{}, err
	}
	return o.a[0], o.a[0].Err
}

// run answers the plan. Without bundles (or under a zero bonus) it is one
// ranked pass on a pooled workspace; with them, the primary pass runs as
// task 0 of the leave-one-out fan, so on a multicore box the distinct
// rankings overlap.
func (p *plan) run(ctx context.Context) error {
	e := p.e
	var looJobs, bcuts []int
	for i := range p.qs {
		if p.qs[i].Kind == BatchBundle && p.bonus != nil {
			bcuts = append(bcuts, p.geom[i].cnt)
		}
	}
	if bcuts != nil {
		for j, b := range p.bonus {
			if b != 0 {
				looJobs = append(looJobs, j)
			}
		}
	}
	if len(looJobs) == 0 {
		ws := e.ws()
		defer e.put(ws)
		if err := p.pass(ctx, ws); err != nil {
			return err
		}
		p.finishBundles(nil, nil, nil)
		return nil
	}

	// Leave-one-out norms at every bundle's selection count, from one
	// prefix per withdrawn attribute sized to the largest of them.
	sort.Ints(bcuts)
	bcuts = slices.Compact(bcuts)
	dims := e.d.NumFair()
	looBacking := make([]float64, len(looJobs)*dims)
	looNorms := make([]float64, len(looJobs)*len(bcuts))
	terrs := make([]error, 1+len(looJobs))
	perr := e.parallelCtx(ctx, 1+len(looJobs), func(ws *engine.Workspace, t int) {
		if t == 0 {
			terrs[0] = p.pass(ctx, ws)
			return
		}
		r := t - 1
		vec := looBacking[r*dims : (r+1)*dims]
		copy(vec, p.bonus)
		vec[looJobs[r]] = 0
		ord, _, _, err := e.rankedPrefixWS(ctx, ws, vec, bcuts[len(bcuts)-1], false)
		if err != nil {
			terrs[t] = err
			return
		}
		disp := make([]BatchAnswer, len(bcuts))
		at := make([]int, len(bcuts))
		for c := range disp {
			disp[c].Vector, at[c] = make([]float64, dims), c
		}
		e.fold(ws, ord, BatchDisparity, bcuts, at, at, disp)
		for c := range disp {
			looNorms[r*len(bcuts)+c] = metrics.Norm(disp[c].Vector)
		}
	})
	if err := firstErr(perr, terrs); err != nil {
		return err
	}
	p.finishBundles(looJobs, bcuts, looNorms)
	return nil
}

// pass ranks once and answers every query from that order: the metric
// kinds through their prefix folds, then counterfactuals, bundles and
// explanations. Only a failed ranking (cancellation) is an error; a
// query's data-dependent failure lands in its own answer.
func (p *plan) pass(ctx context.Context, ws *engine.Workspace) error {
	e := p.e
	order, buf, merged, err := e.rankedPrefixWS(ctx, ws, p.bonus, p.maxCut, p.full)
	if err != nil {
		return err
	}
	eff := effScores{e: e, bonus: p.bonus, buf: buf}
	if p.bonus != nil {
		e.memo.write(p.bonus, order, e.d.N())
	}

	// Grid scratch, reused kind by kind: the queries of one kind (idx),
	// their deduplicated ascending cuts, and each query's cut position.
	nm := 0
	for i := range p.qs {
		if slices.Contains(metricKinds[:], p.qs[i].Kind) {
			nm++
		}
	}
	grid := make([]int, 3*nm)
	for _, kind := range metricKinds {
		idx := grid[:0:nm]
		for i := range p.qs {
			if p.qs[i].Kind == kind {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			continue
		}
		cuts, pos := grid[nm:nm+len(idx)], grid[2*nm:2*nm+len(idx)]
		for r, qi := range idx {
			cuts[r] = p.geom[qi].cnt
		}
		sort.Ints(cuts)
		cuts = slices.Compact(cuts)
		for r, qi := range idx {
			pos[r], _ = slices.BinarySearch(cuts, p.geom[qi].cnt)
		}
		e.fold(ws, order, kind, cuts, pos, idx, p.ans)
	}

	for i := range p.qs {
		q, g := &p.qs[i], &p.geom[i]
		switch q.Kind {
		case BatchCounterfactual:
			// A merged pass (a merged prefix, or the memo's copy of one)
			// answers objects through per-run rank lookups; the full
			// order answers them by inverting the permutation.
			p.ans[i].Counterfactuals = e.counterfactualsWS(ws, order, eff, merged, g.cnt, q.Objects)
		case BatchBundle:
			p.ans[i].Bundle, p.ans[i].Err = e.bundleWS(ws, order, eff, q.Bundle, g)
		case BatchExplain:
			p.ans[i].Explanation = e.explainWS(ws, order, eff, p.given, q.K, g.cnt)
		}
	}
	return nil
}

// fold is the one implementation of every metric kind: the kind's prefix
// fold runs once over order at the ascending cuts, and its finisher turns
// the row at cuts[pos[r]] into answer ans[idx[r]], writing its preset
// Vector (or Value, or Err).
func (e *Evaluator) fold(ws *engine.Workspace, order []int, kind BatchKind, cuts, pos, idx []int, ans []BatchAnswer) {
	n, dims, nc := e.d.N(), e.d.NumFair(), len(cuts)
	gw := dims + 1
	switch kind {
	case BatchDisparity:
		cent := metrics.PrefixCentroidInto(e.d, order, cuts, ws.Pop(), ws.Agg(nc*dims))
		for r, qi := range idx {
			row, dst := cent[pos[r]*dims:], ans[qi].Vector
			for j := range dst {
				dst[j] = row[j] - e.centroid[j]
			}
		}
	case BatchNDCG:
		agg := ws.Agg(2 * nc)
		corrected, ideal := agg[:nc], agg[nc:]
		metrics.PrefixDCGPairInto(e.base, order, e.origOrd, cuts, corrected, ideal)
		for r, qi := range idx {
			if c := pos[r]; ideal[c] == 0 {
				ans[qi].Err = metrics.ErrZeroIdealDCG
			} else {
				ans[qi].Value = corrected[c] / ideal[c]
			}
		}
	case BatchDisparateImpact, BatchTopK:
		counts := metrics.PrefixGroupCountsInto(e.d, order, cuts, ws.Cnts(nc*dims))
		for r, qi := range idx {
			row, sel, dst := counts[pos[r]*dims:], cuts[pos[r]], ans[qi].Vector
			for j := range dst {
				if kind == BatchTopK {
					dst[j] = metrics.TopKFromCounts(row[j], sel, e.groupTot[j], n)
				} else {
					dst[j] = metrics.ImpactFromCounts(row[j], e.groupTot[j], sel-row[j], n-e.groupTot[j])
				}
			}
		}
	case BatchFPRDiff:
		cnts := ws.Cnts(nc*dims + nc)
		rows, all := cnts[:nc*dims], cnts[nc*dims:]
		metrics.PrefixFPCountsInto(e.d, order, cuts, rows, all)
		for r, qi := range idx {
			c, dst := pos[r], ans[qi].Vector
			clear(dst)
			if e.negAll == 0 {
				continue
			}
			overall := float64(all[c]) / float64(e.negAll)
			for j := range dst {
				if e.negTot[j] != 0 {
					dst[j] = float64(rows[c*dims+j])/float64(e.negTot[j]) - overall
				}
			}
		}
	case BatchExposure:
		expo := metrics.PrefixExposureInto(e.d, order, cuts, ws.PopN(gw), ws.Agg(nc*gw))
		sizes := metrics.PrefixExposureCountsInto(e.d, order, cuts, ws.Cnts(nc*gw))
		for r, qi := range idx {
			c := pos[r]
			row, szs := expo[c*gw:(c+1)*gw], sizes[c*gw:(c+1)*gw]
			ddp, err := metrics.DDPFromExposure(row, szs)
			if err != nil {
				ans[qi].Vector, ans[qi].Err = nil, err
				continue
			}
			metrics.ExposurePerCapitaInto(row, szs, ans[qi].Vector)
			ans[qi].Value = ddp
		}
	case BatchExpRatio:
		expo := metrics.PrefixExposureInto(e.d, order, cuts, ws.PopN(gw), ws.Agg(nc*gw))
		counts := metrics.PrefixGroupCountsInto(e.d, order, cuts, ws.Cnts(nc*dims))
		for r, qi := range idx {
			erow, crow, dst := expo[pos[r]*gw:], counts[pos[r]*dims:], ans[qi].Vector
			for j := range dst {
				dst[j] = metrics.ExpRatioFromCounts(erow[j], crow[j], e.groupTot[j]-e.negTot[j], e.groupTot[j])
			}
		}
	}
}

// foldOne answers one metric query at cut over ord outside a plan's cut
// grid: a bundle's compensated and uncompensated sides.
func (e *Evaluator) foldOne(ws *engine.Workspace, ord []int, kind BatchKind, cut int) BatchAnswer {
	a := []BatchAnswer{{Vector: make([]float64, e.vectorWidth(kind))}}
	zero := []int{0}
	e.fold(ws, ord, kind, []int{cut}, zero, zero, a)
	return a[0]
}

// selectionWS reads the published-selection quantities that Explanation
// and BundleStatsCtx share off a plan's order: the cutoffs of the policy's
// and of the uncompensated top cnt, the per-group counts of both (into
// groups and baseGroups), and the objects the bonus admitted and
// displaced, ascending.
func (e *Evaluator) selectionWS(ws *engine.Workspace, order []int, eff effScores, cnt int, groups, baseGroups []int) (cutoff, baseCutoff float64, admitted, displaced []int) {
	dims := e.d.NumFair()
	cuts := []int{cnt}
	copy(groups, metrics.PrefixGroupCountsInto(e.d, order, cuts, ws.Cnts(dims)))
	copy(baseGroups, metrics.PrefixGroupCountsInto(e.d, e.origOrd, cuts, ws.Cnts(dims)))

	// Beneficiary sets: both selections marked in a bitmap of n bits
	// each, the differences read back ascending word by word.
	base := e.origOrd[:cnt]
	words := (e.d.N() + 63) / 64
	marks := ws.Bits(2 * words)
	pol, unc := marks[:words], marks[words:]
	for _, o := range order[:cnt] {
		pol[o>>6] |= 1 << (o & 63)
	}
	for _, o := range base {
		unc[o>>6] |= 1 << (o & 63)
	}
	return eff.at(order[cnt-1]), e.base[base[cnt-1]], andNotIDs(pol, unc), andNotIDs(unc, pol)
}

// andNotIDs lists the ids whose bit is set in a and clear in b,
// ascending, in a slice of exactly their number; nil when there are none.
func andNotIDs(a, b []uint64) []int {
	cnt := 0
	for w, x := range a {
		cnt += bits.OnesCount64(x &^ b[w])
	}
	if cnt == 0 {
		return nil
	}
	ids := make([]int, 0, cnt)
	for w, x := range a {
		for x &^= b[w]; x != 0; x &= x - 1 {
			ids = append(ids, w<<6|bits.TrailingZeros64(x))
		}
	}
	return ids
}

// finishBundles completes every bundle answer once the primary pass and
// the leave-one-out fan are in: looNorms holds one norm per (withdrawn
// attribute looJobs[r], bundle count bcuts[c]). An attribute whose bonus
// is already zero leaves the vector unchanged, so its leave-one-out norm
// IS the full policy's norm — no ranking.
func (p *plan) finishBundles(looJobs, bcuts []int, looNorms []float64) {
	for i := range p.qs {
		st := p.ans[i].Bundle
		if st == nil {
			continue
		}
		c, _ := slices.BinarySearch(bcuts, p.geom[i].cnt)
		for r, j := range looJobs {
			st.LeaveOneOut[j] = looNorms[r*len(bcuts)+c]
		}
		st.Reduction = st.NormBefore - st.NormAfter
		for j := range st.LeaveOneOut {
			if p.bonus == nil || p.bonus[j] == 0 {
				st.LeaveOneOut[j] = st.NormAfter
			}
			st.Contribution[j] = st.LeaveOneOut[j] - st.NormAfter
		}
	}
}
