package core

import (
	"context"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"fairrank/internal/dataset"
	"fairrank/internal/engine"
	"fairrank/internal/faultinject"
	"fairrank/internal/metrics"
	"fairrank/internal/rank"
)

// Evaluator measures the effect of a bonus vector on a full dataset. It
// precomputes the base scores, the uncompensated ranking (the nDCG ideal),
// and the population centroid so repeated evaluations — parameter sweeps
// across k, bonus scalings, per-figure series — stay cheap.
//
// An Evaluator is safe for concurrent use: scratch buffers come from an
// internal pool of engine workspaces, one per active goroutine, and the
// Sweep methods fan their points over a worker pool.
type Evaluator struct {
	d        *dataset.Dataset
	pol      rank.Polarity
	base     []float64
	origOrd  []int
	centroid []float64
	pool     sync.Pool // *engine.Workspace

	// Population constants of the prefix-sweep engine: per-dimension group
	// sizes (attribute > 0.5), and — when outcomes are present — the
	// ground-truth-negative totals overall and per group. They depend only
	// on the dataset, never on a bonus vector or selection fraction.
	groupTot []int
	negTot   []int
	negAll   int

	// runs is the combo-run merge structure: the population partitioned by
	// distinct fairness row, each run pre-sorted by base score at
	// construction, so any cold top-p prefix is an O(p log g) merge instead
	// of an O(n log n) sort (a bonus vector shifts each run by one constant
	// offset and can never reorder it internally). nil when the partition
	// declined — too many distinct rows for the merge to pay off.
	runs *rank.ComboRuns

	// rankings counts the full-population ranking passes the evaluator has
	// performed (score evaluation + ordering; the cached uncompensated
	// order is free and never counted). This is the engine's ranking-count
	// hook: the rank-once tests pin their ranking budgets on deltas of it.
	// merges is its combo-run counterpart: prefix requests answered by the
	// g-way merge, which touches only O(p + g) elements and is therefore
	// never a full-population pass.
	rankings atomic.Int64
	merges   atomic.Int64

	// memo is the ranked-order memo shared across requests, and memoHits
	// counts the prefix requests it answered with neither a ranking pass
	// nor a merge.
	memo     orderMemo
	memoHits atomic.Int64
}

// memoSlots caps the bonus vectors the ranked-order memo keeps at once. It
// bounds the memo's linear lookup, not its memory: every slot's positions
// share one arena of at most n. Eight is twice the four policies the
// perfbench portal publishes, so a portal's policies keep their slots
// while as many other vectors (an analyst's or a what-if session's short
// prefixes) come and go on the same evaluator; a lookup compares at most
// eight keys of dims floats, which nothing measurable costs next to
// copying a prefix out.
const memoSlots = 8

// orderMemo holds the leading positions of the rankings recent plans'
// primary passes produced, one slot per bonus vector, keyed on the exact
// bits of its canonical bonus. A stakeholder asks many questions of one
// bonus vector (a sweep over k, then an audit, counterfactuals and an
// explanation), and a portal answers every applicant against the same few
// published policies; the ranked order answers all of them, so every
// later request on a stored vector reads the order instead of ranking it
// again.
//
// Every slot's positions are a window of one arena, a []int32 that grows
// (doubling, at most to n) only when the stored prefixes need more room
// and is never given up: the memo pins at most n positions (4·n bytes,
// 0.31 MiB on the 80k cohort) whatever the slot count, and a portal's few
// cnt+1 prefixes pin only about what they hold. A new bonus takes an
// empty slot or the least recently used one. A slot that needs more
// positions (a new bonus, or a stored one ranked further) evicts the
// least recently used others until all fit in n and takes a window at the
// arena's free tail, packing the survivors to the front first when the
// tail is short. Once the arena has reached the size a traffic mix needs
// (a portal's prefixes, a what-if stream's full orders, or both in turn)
// no request allocates memo memory. A slot is always a copy, never a view
// of a workspace.
type orderMemo struct {
	mu    sync.Mutex
	clock uint64
	arena []int32
	slots [memoSlots]memoSlot
}

// memoSlot is one stored bonus vector and its ranked prefix, the arena
// window ord = arena[off : off+len(ord)]. used is the memo clock at its
// last read or write; 0 marks an empty slot.
type memoSlot struct {
	bonus []float64
	ord   []int32
	off   int
	used  uint64
}

// find returns the slot holding bonus, or nil.
func (m *orderMemo) find(bonus []float64) *memoSlot {
	for i := range m.slots {
		if s := &m.slots[i]; s.used != 0 && sameBits(s.bonus, bonus) {
			return s
		}
	}
	return nil
}

// readWS copies the leading positions of the ranking under bonus into ws:
// want of them when the memo holds that many, else floor of them when it
// holds at least floor (floor <= want). A miss leaves the workspace alone.
func (m *orderMemo) readWS(bonus []float64, want, floor int, ws *engine.Workspace) ([]int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.find(bonus)
	if s == nil || len(s.ord) < floor {
		return nil, false
	}
	p := floor
	if len(s.ord) >= want {
		p = want
	}
	m.clock++
	s.used = m.clock
	out := ws.Ord(p)
	for i, id := range s.ord[:p] {
		out[i] = int(id)
	}
	return out, true
}

// write records order, a leading segment of the ranking under bonus in a
// population of n: a new bonus takes an empty slot or the least recently
// used one, and a stored bonus ranked further is stored again at its new
// length. Only finite bonuses are kept, since their rankings are total
// orders whose prefixes every route agrees on.
func (m *orderMemo) write(bonus []float64, order []int, n int) {
	for _, b := range bonus {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.find(bonus)
	if s == nil {
		s = &m.slots[0]
		for i := range m.slots {
			if m.slots[i].used < s.used {
				s = &m.slots[i]
			}
		}
		s.bonus = append(s.bonus[:0], bonus...)
		s.ord = nil
	}
	m.clock++
	s.used = m.clock
	if len(order) <= len(s.ord) {
		return
	}
	m.place(s, len(order), n)
	for i, id := range order {
		s.ord[i] = int32(id)
	}
}

// place gives slot s a new window of c positions (c <= n) in place of its
// old one. It evicts the least recently used other slots until they and c
// fit in n positions, then takes c at the arena's free tail, packing the
// survivors to the front in arena order when the tail is short and
// growing the arena when even that leaves too little room.
func (m *orderMemo) place(s *memoSlot, c, n int) {
	s.ord = nil
	for {
		held := 0
		var lru *memoSlot
		for i := range m.slots {
			if o := &m.slots[i]; len(o.ord) > 0 {
				held += len(o.ord)
				if lru == nil || o.used < lru.used {
					lru = o
				}
			}
		}
		if held+c <= n {
			break
		}
		*lru = memoSlot{bonus: lru.bonus[:0]}
	}
	var buf [memoSlots]*memoSlot
	live, end := buf[:0], 0
	for i := range m.slots {
		if o := &m.slots[i]; len(o.ord) > 0 {
			live = append(live, o)
			end = max(end, o.off+len(o.ord))
		}
	}
	if len(m.arena)-end < c {
		//fairlint:allow rankonce -- orders at most memoSlots memo windows by arena offset, never score data
		slices.SortFunc(live, func(a, b *memoSlot) int { return a.off - b.off })
		end = 0
		for _, o := range live {
			copy(m.arena[end:], o.ord)
			o.off = end
			end += len(o.ord)
		}
		if len(m.arena)-end < c {
			grown := make([]int32, min(n, max(2*len(m.arena), end+c)))
			copy(grown, m.arena[:end])
			m.arena = grown
		}
		for _, o := range live {
			o.ord = m.arena[o.off : o.off+len(o.ord) : o.off+len(o.ord)]
		}
	}
	s.off = end
	s.ord = m.arena[end : end+c : end+c]
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			return false
		}
	}
	return true
}

// NewEvaluator builds an evaluator for the dataset under the given ranking
// function and polarity.
func NewEvaluator(d *dataset.Dataset, scorer rank.Scorer, pol rank.Polarity) *Evaluator {
	base := scorer.BaseScores(d)
	e := &Evaluator{
		d:        d,
		pol:      pol,
		base:     base,
		origOrd:  rank.Order(base),
		centroid: d.FairCentroid(),
		groupTot: make([]int, d.NumFair()),
	}
	for j := range e.groupTot {
		e.groupTot[j] = d.GroupSize(j)
	}
	if d.HasOutcomes() {
		e.negTot = make([]int, d.NumFair())
		cols := d.FairColumns()
		for i := 0; i < d.N(); i++ {
			if d.Outcome(i) {
				continue
			}
			e.negAll++
			for j, col := range cols {
				if col[i] > 0.5 {
					e.negTot[j]++
				}
			}
		}
	}
	e.runs = rank.NewComboRunsOrdered(d, base, e.origOrd, 0)
	e.pool.New = func() any { return engine.NewWorkspace(d.NumFair()) }
	return e
}

// Dataset returns the underlying dataset.
func (e *Evaluator) Dataset() *dataset.Dataset { return e.d }

// Polarity returns the selection polarity the evaluator was built with.
func (e *Evaluator) Polarity() rank.Polarity { return e.pol }

// BaseScores returns the uncompensated scores (do not modify).
func (e *Evaluator) BaseScores() []float64 { return e.base }

func (e *Evaluator) ws() *engine.Workspace   { return e.pool.Get().(*engine.Workspace) }
func (e *Evaluator) put(w *engine.Workspace) { e.pool.Put(w) }

// RankingCount reports how many full-population ranking passes the
// evaluator has performed so far. Tests assert rank-once invariants by
// taking the difference across a call ("a cold bundle costs at most
// dims+2 rankings"); it is safe to read concurrently.
func (e *Evaluator) RankingCount() int64 { return e.rankings.Load() }

// MergeCount reports how many prefix requests the evaluator has answered
// through the combo-run merge instead of a full-population ranking pass.
// Together with RankingCount it pins the routing: the merge-path tests
// assert a cold 80k bundle performs zero full rankings and exactly its
// per-order budget of merges.
func (e *Evaluator) MergeCount() int64 { return e.merges.Load() }

// MemoHitCount reports how many prefix requests the evaluator has
// answered from its ranked-order memo, with neither a ranking pass nor a
// merge: the third lifetime counter beside RankingCount and MergeCount.
func (e *Evaluator) MemoHitCount() int64 { return e.memoHits.Load() }

// GroupSize returns the number of members of fairness attribute j (value
// > 0.5), as dataset.GroupSize counts them, from the evaluator's cache.
func (e *Evaluator) GroupSize(j int) int { return e.groupTot[j] }

// RunStats reports the combo-run decomposition statistics (g, run-length
// spread, one-time construction cost). ok is false when the partition
// declined and every request takes the full-sort path.
func (e *Evaluator) RunStats() (rank.RunStats, bool) {
	if e.runs == nil {
		return rank.RunStats{}, false
	}
	return e.runs.Stats(), true
}

// mergeEligible reports whether the combo-run merge should answer a
// prefix request of length p. The merge pays O(g) setup (offsets +
// heapify) and ~log2(g) heap compares per emitted position; the
// full-scan paths pay an O(n) scoring pass plus n·log2(p) bounded-heap
// work (or n·log2(n) for a full sort). The thresholds are
// benchmark-derived (see BENCH_rank.json): a heterogeneous cohort whose
// runs average fewer than ~4 members cannot amortize its heap entries,
// and once the prefix covers most of the population the heavily
// optimized full sort catches the merge's per-position heap work — both
// shapes keep their existing full-scan route, so the merge never
// regresses a worst case.
func (e *Evaluator) mergeEligible(p int) bool {
	if e.runs == nil {
		return false
	}
	n := e.d.N()
	g := e.runs.Runs()
	return g*4 <= n && 4*p <= 3*n
}

// rankedPrefixWS is the evaluator's one ranking route. It returns the
// first p positions of the ranking under bonus (descending effective
// score, ties by ascending index) — or, when full is set and the prefix
// is not merged, the whole order — using workspace buffers; the result
// aliases ws (or the cached original order) and must not be retained past
// the workspace. merged reports a p-position prefix on the combo-run
// route (merged, or read from the memo for a full request); ws.Merge()
// then holds the bonus's run offsets, against which the caller reads each
// object's rank through per-run lookups (ComboRuns.RankOf) instead of
// inverting the order. The route:
//
//   - a zero bonus reads the cached uncompensated order for free;
//   - the ranked-order memo, when it holds the bonus to at least p
//     positions: a copy, no ranking at all. A full request takes all n
//     when the memo holds them; otherwise, when mergeEligible(p) and the
//     run offsets it prepares are finite, it takes the p-position prefix
//     as merged, the answer the merge below would give;
//   - the combo-run merge when mergeEligible(p): O(p log g) pops over the
//     pre-sorted runs, no population-wide pass at all, reported as
//     merged; it declines (and falls through) only for non-finite
//     offsets;
//   - otherwise one scoring pass, then a full sort when full is set (a
//     counterfactual asks about arbitrary objects) or p covers most of the
//     population, and a bounded-heap selection of p sorted by the ranking
//     comparator — O(n log p) — otherwise.
//
// The comparator is a total order, so every route's prefix is
// bit-identical to the full sort's leading segment. Every non-zero route
// fills ws.Eff for each id it emits; a memo hit fills it with the term
// route's expression, which every other route's score equals bit for bit.
// Cancellation surfaces from the poll ahead of the memo, from the
// merge's amortized checkpoint, or from the poll ahead of a scoring pass;
// a non-nil error means no order was produced. The faultinject
// rank.prefix site fires on every non-zero-bonus call, memo hits included,
// so chaos tests can make each ranking pass arbitrarily slow without
// touching real data. Only plan.pass writes the memo.
func (e *Evaluator) rankedPrefixWS(ctx context.Context, ws *engine.Workspace, bonus []float64, p int, full bool) (order []int, merged bool, err error) {
	n := e.d.N()
	if isZero(bonus) {
		if full {
			return e.origOrd, false, nil
		}
		return e.origOrd[:p], false, nil
	}
	if err := faultinject.Fire(ctx, faultinject.SiteRankPrefix); err != nil {
		return nil, false, err
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	eligible := e.mergeEligible(p)
	want, floor := p, p
	if full {
		// A merged prefix answers a full request only through per-run
		// rank lookups against the offsets prepared here, so a bonus whose
		// offsets are not all finite (finite entries can sum to ±Inf)
		// needs all n positions, from the memo or a full sort.
		eligible = eligible && e.runs.PrepareOffsets(bonus, e.pol, ws.Merge())
		want = n
		if !eligible {
			floor = n
		}
	}
	if ord, ok := e.memo.readWS(bonus, want, floor, ws); ok {
		if len(ord) == n {
			rank.EffectiveScoresEach(e.d, e.base, bonus, e.pol, ws.Eff(n))
		} else {
			rank.EffectiveScoresAt(e.d, e.base, ord, bonus, e.pol, ws.Eff(n))
		}
		e.memoHits.Add(1)
		return ord, len(ord) < want, nil
	}
	if eligible {
		pre, ok, err := e.runs.MergeTopKIntoCtx(ctx, bonus, e.pol, p, ws.Merge(), ws.Ord(p), ws.Eff(n))
		if err != nil {
			return nil, false, err
		}
		if ok {
			e.merges.Add(1)
			return pre, true, nil
		}
	}
	eff := rank.EffectiveScoresEach(e.d, e.base, bonus, e.pol, ws.Eff(n))
	e.rankings.Add(1)
	if full || p >= n/2 {
		// Selecting most of the population saves nothing over sorting it.
		ord := rank.OrderInto(eff, ws.Ord(n))
		if !full {
			ord = ord[:p]
		}
		return ord, false, nil
	}
	pre := rank.TopKHeapInto(eff, p, ws.Ord(p))
	rank.SortRanked(eff, pre)
	return pre, false, nil
}

// Order returns the full ranking under the given bonus vector (descending
// effective score) as a fresh slice. A nil or all-zero bonus reproduces
// the original ranking; any other bonus must have one entry per fairness
// attribute. It takes the ranking route every evaluator query takes, so
// it reads the ranked-order memo too.
func (e *Evaluator) Order(bonus []float64) ([]int, error) {
	if err := e.checkBonusDims(bonus); err != nil {
		return nil, err
	}
	ws := e.ws()
	defer e.put(ws)
	ord, _, err := e.rankedPrefixWS(context.Background(), ws, bonus, e.d.N(), true)
	if err != nil {
		return nil, err
	}
	return slices.Clone(ord), nil
}

// SelectCtx returns the top-k fraction of the population under the bonus
// vector, in ranked order.
func (e *Evaluator) SelectCtx(ctx context.Context, bonus []float64, k float64) ([]int, error) {
	if err := e.checkBonusDims(bonus); err != nil {
		return nil, err
	}
	cnt, err := rank.SelectCount(e.d.N(), k)
	if err != nil {
		return nil, err
	}
	ws := e.ws()
	defer e.put(ws)
	sel, _, err := e.rankedPrefixWS(ctx, ws, bonus, cnt, false)
	if err != nil {
		return nil, err
	}
	return slices.Clone(sel), nil
}

// DisparityCtx returns the full-population disparity vector of the top-k
// selection under the bonus vector.
func (e *Evaluator) DisparityCtx(ctx context.Context, bonus []float64, k float64) ([]float64, error) {
	a, err := e.answerOne(ctx, bonus, BatchQuery{Kind: BatchDisparity, K: k})
	return a.Vector, err
}

// NDCGCtx returns the utility of the compensated ranking at selection
// fraction k, with the uncompensated ranking as the ideal.
func (e *Evaluator) NDCGCtx(ctx context.Context, bonus []float64, k float64) (float64, error) {
	a, err := e.answerOne(ctx, bonus, BatchQuery{Kind: BatchNDCG, K: k})
	return a.Value, err
}

// LogDiscounted returns the logarithmically discounted disparity of the
// full ranking under the bonus vector.
func (e *Evaluator) LogDiscounted(bonus []float64, ld metrics.LogDiscount) ([]float64, error) {
	if err := e.checkBonusDims(bonus); err != nil {
		return nil, err
	}
	ws := e.ws()
	defer e.put(ws)
	ord, _, err := e.rankedPrefixWS(context.Background(), ws, bonus, e.d.N(), true)
	if err != nil {
		return nil, err
	}
	return ld.Eval(e.d, ord)
}

// DisparateImpact returns the scaled disparate-impact vector of the top-k
// selection under the bonus vector.
func (e *Evaluator) DisparateImpact(bonus []float64, k float64) ([]float64, error) {
	a, err := e.answerOne(context.Background(), bonus, BatchQuery{Kind: BatchDisparateImpact, K: k})
	return a.Vector, err
}

// FPRDiff returns the per-group FPR difference vector of the top-k
// selection under the bonus vector. The dataset must carry outcomes.
func (e *Evaluator) FPRDiff(bonus []float64, k float64) ([]float64, error) {
	a, err := e.answerOne(context.Background(), bonus, BatchQuery{Kind: BatchFPRDiff, K: k})
	return a.Vector, err
}

// parallelCtx fans n tasks over the engine worker pool, each goroutine
// holding one pooled workspace for its whole share of the work. Once ctx
// is done, no further index is dispatched and the context's error is
// returned after in-flight tasks finish.
func (e *Evaluator) parallelCtx(ctx context.Context, n int, fn func(ws *engine.Workspace, i int)) error {
	return engine.ForEachWSCtx(ctx, n, e.ws, e.put, fn)
}

// scaleProbes interior points per multisection round shrink the bracket by
// a factor of scaleProbes+1; 18 rounds of 4 probes reach a bracket below
// 2^-41, finer than the 40 bisection steps they replace.
const (
	scaleProbes = 4
	scaleRounds = 18
)

// FindScaleForNDCG searches for the proportional weight w in [0, 1] such
// that applying Scale(bonus, w) reaches the target nDCG at selection
// fraction k (Section VI-A2: "the correct proportion of bonus points to
// apply can be selected through a binary search"). nDCG decreases as w
// grows, so the search brackets the largest w whose nDCG is still at least
// target. Each round evaluates its interior probe points through
// NDCGSweepCtx, which groups probes whose granularity-rounded vectors
// coincide — common in late rounds, when the bracket is narrower than the
// granularity — so every distinct scaled vector is ranked exactly once per
// round. The probe count is fixed, so the result is deterministic
// regardless of parallelism.
func (e *Evaluator) FindScaleForNDCG(bonus []float64, k, target, granularity float64) (w float64, err error) {
	if err := e.checkBonusDims(bonus); err != nil {
		return 0, err
	}
	if bonus == nil {
		bonus = make([]float64, e.d.NumFair()) // Scale keeps the length
	}
	full, err := e.NDCGCtx(context.Background(), Scale(bonus, 1, granularity), k)
	if err != nil {
		return 0, err
	}
	if full >= target {
		return 1, nil
	}
	lo, hi := 0.0, 1.0
	probes := make([]SweepPoint, scaleProbes)
	for round := 0; round < scaleRounds; round++ {
		width := hi - lo
		for i := range probes {
			p := lo + width*float64(i+1)/float64(scaleProbes+1)
			probes[i] = SweepPoint{Bonus: Scale(bonus, p, granularity), K: k}
		}
		vals, err := e.NDCGSweepCtx(context.Background(), probes)
		if err != nil {
			return 0, err
		}
		// Keep the rightmost sub-bracket whose left end still meets the
		// target: [probe_m, probe_m+1) with m the largest passing probe.
		m := -1
		for i := 0; i < scaleProbes; i++ {
			if vals[i] >= target {
				m = i
			}
		}
		newLo := lo
		if m >= 0 {
			newLo = lo + width*float64(m+1)/float64(scaleProbes+1)
		}
		hi = lo + width*float64(m+2)/float64(scaleProbes+1)
		lo = newLo
	}
	return lo, nil
}

func isZero(b []float64) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}
