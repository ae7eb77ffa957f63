package rank

import (
	"context"
	"math"
	"sort"
	"time"

	"fairrank/internal/dataset"
)

// DefaultMaxComboRuns caps the combo-run partition. A dataset whose
// fairness attributes are effectively continuous produces close to one
// run per object, at which point the merge degenerates to a full sort
// with worse constants; above this cap NewComboRuns declines to build.
// It is the cap of the dataset's combo-row index the runs are built on.
const DefaultMaxComboRuns = dataset.MaxCombos

// ComboRuns is the pre-sorted run decomposition that makes any cold
// top-k an O(k log g) merge instead of an O(n log n) sort.
//
// The population is partitioned into g runs of bitwise-identical
// fairness rows. Because the compensated score is f(o) + sign·(A_f·B),
// every member of a run receives the *same* bonus total under every
// bonus vector B: a bonus shifts a whole run by one constant offset and
// can never reorder the run internally. Each run is therefore ordered
// once, at construction, by the base-score total order (base descending,
// id ascending — the ranking of Order/SortRanked), and the ranking under
// any bonus is recovered by a g-way merge of the offset runs.
//
// A ComboRuns is immutable after construction and safe for concurrent
// use; per-request mutable state lives in MergeScratch.
type ComboRuns struct {
	n    int
	dims int

	ids     []int32   // object ids, runs contiguous, each run pre-sorted
	bases   []float64 // base score aligned with ids
	starts  []int32   // run r occupies ids[starts[r]:starts[r+1]]; len g+1
	reps    []float64 // the dataset's combo rows, flat; run r is combo r
	comboOf []int32   // the dataset's combo of every object id (its run)
	posOf   []int32   // position of every object id inside ids

	buildCost time.Duration
}

// NewComboRuns partitions d by distinct fairness row and orders each run
// by base score, dealing one ranking of base into the runs. The partition
// is the dataset's combo-row index (dataset.ComboIndex), shared rather
// than copied, so building runs over a dataset whose index exists costs
// only the deal. It returns nil when the structure cannot help: more than
// maxRuns distinct rows (maxRuns <= 0 or above DefaultMaxComboRuns means
// DefaultMaxComboRuns), a non-finite base score, or a population too
// large for int32 ids.
// base is retained only during construction.
func NewComboRuns(d *dataset.Dataset, base []float64, maxRuns int) *ComboRuns {
	return NewComboRunsOrdered(d, base, nil, maxRuns)
}

// NewComboRunsOrdered is NewComboRuns for a caller that already holds
// order = Order(base), such as an evaluator caching its base order: the
// runs are dealt from order instead of ranking base again. A nil order
// ranks base here. Neither slice is retained.
func NewComboRunsOrdered(d *dataset.Dataset, base []float64, order []int, maxRuns int) *ComboRuns {
	if maxRuns <= 0 || maxRuns > DefaultMaxComboRuns {
		maxRuns = DefaultMaxComboRuns
	}
	n := d.N()
	if n == 0 || n > math.MaxInt32 || len(base) != n || (order != nil && len(order) != n) {
		return nil
	}
	for _, v := range base {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil // NaN breaks the total order; decline rather than diverge
		}
	}
	begin := time.Now() //fairlint:allow determinism -- one-time BuildElapsed stat in RunStats is pure observability; run contents and merge order never read the clock
	comboOf, reps, ok := d.ComboIndex()
	if !ok {
		return nil
	}
	g := 1
	if dims := d.NumFair(); dims > 0 {
		g = len(reps) / dims
	}
	if g > maxRuns {
		return nil
	}
	c := &ComboRuns{
		n:       n,
		dims:    d.NumFair(),
		ids:     make([]int32, n),
		bases:   make([]float64, n),
		starts:  make([]int32, g+1),
		reps:    reps,
		comboOf: comboOf,
	}
	// Run boundaries from the run sizes.
	for _, r := range comboOf {
		c.starts[r+1]++
	}
	for r := 1; r <= g; r++ {
		c.starts[r] += c.starts[r-1]
	}
	// Deal one ranking of the base scores into the runs: a stable
	// counting pass keeps each run in the exact full-ranking order (base
	// descending, ties by ascending id) with no per-run sort.
	next := make([]int32, g)
	copy(next, c.starts[:g])
	if order == nil {
		order = Order(base)
	}
	for _, id := range order {
		r := comboOf[id]
		c.ids[next[r]] = int32(id)
		next[r]++
	}
	c.posOf = make([]int32, n)
	for p, id := range c.ids {
		c.bases[p] = base[id]
		c.posOf[id] = int32(p)
	}
	c.buildCost = time.Since(begin)
	return c
}

// N returns the population size.
func (c *ComboRuns) N() int { return c.n }

// Runs returns g, the number of distinct fairness combinations.
func (c *ComboRuns) Runs() int { return len(c.starts) - 1 }

// rep returns run r's fairness row.
func (c *ComboRuns) rep(r int) []float64 { return c.reps[r*c.dims : (r+1)*c.dims] }

// RunStats summarizes a combo-run decomposition for observability.
type RunStats struct {
	Runs      int           // g, distinct fairness combinations
	MinLen    int           // smallest run
	MedianLen int           // median run length
	MaxLen    int           // largest run
	BuildCost time.Duration // one-time partition cost, plus the base ranking when built without an order
}

// Stats reports run-count and run-length statistics plus the one-time
// construction cost.
func (c *ComboRuns) Stats() RunStats {
	g := c.Runs()
	lens := make([]int, g)
	for r := 0; r < g; r++ {
		lens[r] = int(c.starts[r+1] - c.starts[r])
	}
	sort.Ints(lens)
	return RunStats{
		Runs:      g,
		MinLen:    lens[0],
		MedianLen: lens[g/2],
		MaxLen:    lens[g-1],
		BuildCost: c.buildCost,
	}
}

// bonusTerm computes sign·(row·bonus) with the exact summation order of
// EffectiveScores — the unrolled products for 2–4 dimensions and the
// ascending FairDot loop otherwise — so that base + bonusTerm is
// bit-identical to the effective score the full-sort path computes.
func bonusTerm(row, bonus []float64, sign float64) float64 {
	switch len(row) {
	case 2:
		return sign * (row[0]*bonus[0] + row[1]*bonus[1])
	case 3:
		return sign * (row[0]*bonus[0] + row[1]*bonus[1] + row[2]*bonus[2])
	case 4:
		return sign * (row[0]*bonus[0] + row[1]*bonus[1] + row[2]*bonus[2] + row[3]*bonus[3])
	default:
		s := 0.0
		for j, v := range row {
			s += v * bonus[j]
		}
		return sign * s
	}
}

// mergeEntry is one run head inside the merge heap.
type mergeEntry struct {
	eff float64
	id  int32
	run int32
}

// beats reports whether a ranks strictly above b under the full-ranking
// total order (higher effective score first, ties by lower id).
func (a mergeEntry) beats(b mergeEntry) bool {
	if a.eff != b.eff {
		return a.eff > b.eff
	}
	return a.id < b.id
}

// MergeScratch holds the per-request mutable state of a merge: run
// offsets, cursors, the run-head max-heap, and the bookkeeping for
// equal-effective-score groups. It is not safe for concurrent use; keep
// one per goroutine (e.g. inside an engine workspace) and reuse it
// across requests — after the first request against a given g it
// allocates nothing.
type MergeScratch struct {
	offsets []float64    // per-run bonus offset
	heap    []mergeEntry // run-head max-heap
	pos     []int32      // next unconsumed position per run
	ge      []int32      // equal-eff group end (exclusive) per run
	rem     []int32      // unemitted members of the active group per run
	last    []int32      // last id emitted from the active group per run
}

// ensure sizes the scratch for g runs.
func (s *MergeScratch) ensure(g int) {
	if cap(s.offsets) < g {
		s.offsets = make([]float64, g)
		s.heap = make([]mergeEntry, 0, g)
		s.pos = make([]int32, g)
		s.ge = make([]int32, g)
		s.rem = make([]int32, g)
		s.last = make([]int32, g)
	}
	s.offsets = s.offsets[:g]
	s.pos = s.pos[:g]
	s.ge = s.ge[:g]
	s.rem = s.rem[:g]
	s.last = s.last[:g]
}

// prepareOffsets fills the per-run bonus offsets, reporting false when
// any offset is non-finite (a NaN or ±Inf bonus breaks the total order,
// so callers must fall back to the full-sort path for bit-identity).
func (c *ComboRuns) prepareOffsets(bonus []float64, pol Polarity, s *MergeScratch) bool {
	g := c.Runs()
	s.ensure(g)
	sign := pol.Sign()
	for r := 0; r < g; r++ {
		off := bonusTerm(c.rep(r), bonus, sign)
		if math.IsNaN(off) || math.IsInf(off, 0) {
			return false
		}
		s.offsets[r] = off
	}
	return true
}

// head returns run r's current best unemitted entry under the total
// order, or ok=false when the run is exhausted.
//
// Within a run the offset effective score is non-increasing (adding a
// constant is monotone), but it is not always *strictly* decreasing
// where the base was: two distinct bases can collapse to one effective
// value in float arithmetic, and the full sort then breaks that tie by
// ascending id — an order the base-descending pre-sort does not
// guarantee. head therefore detects the equal-eff group at the cursor
// lazily (one extra compare in the common size-1 case) and, for larger
// groups, emits members in ascending-id order via a linear scan per
// pop. Groups beyond size 1 arise only from this rounding collapse, so
// they are rare and tiny and the O(m²) group emission never shows up.
func (s *MergeScratch) head(c *ComboRuns, r int32) (mergeEntry, bool) {
	p := s.pos[r]
	end := c.starts[r+1]
	if p >= end {
		return mergeEntry{}, false
	}
	off := s.offsets[r]
	eff := c.bases[p] + off
	if s.rem[r] == 0 {
		ge := p + 1
		for ge < end && c.bases[ge]+off == eff {
			ge++
		}
		if ge == p+1 {
			return mergeEntry{eff: eff, id: c.ids[p], run: r}, true
		}
		s.ge[r] = ge
		s.rem[r] = ge - p
		s.last[r] = -1
	}
	best := int32(math.MaxInt32)
	for q := p; q < s.ge[r]; q++ {
		if id := c.ids[q]; id > s.last[r] && id < best {
			best = id
		}
	}
	return mergeEntry{eff: eff, id: best, run: r}, true
}

// pop consumes run r's current head (the entry head would return).
func (s *MergeScratch) pop(r int32, id int32) {
	if s.rem[r] > 0 {
		s.last[r] = id
		s.rem[r]--
		if s.rem[r] == 0 {
			s.pos[r] = s.ge[r]
		}
		return
	}
	s.pos[r]++
}

// MergeTopKInto computes the leading k entries of the full ranking under
// bonus by a g-way bounded-heap merge of the pre-sorted runs, appending
// the selected ids in exact rank order to dst[:0] (dst must have
// capacity >= k). When effOut is non-nil (length >= n) the effective
// score of every emitted id is stored at effOut[id], matching what the
// full-sort path writes for prefix members.
//
// The result is bit-identical to Order(EffectiveScoresAll(...))[:k] —
// the same ids in the same order. ok=false means the merge declined
// (non-finite offsets) and the caller must use the full-sort path;
// dst is untouched in that case.
func (c *ComboRuns) MergeTopKInto(bonus []float64, pol Polarity, k int, s *MergeScratch, dst []int, effOut []float64) ([]int, bool) {
	// context.Background is never canceled, so the error is statically nil.
	out, ok, _ := c.MergeTopKIntoCtx(context.Background(), bonus, pol, k, s, dst, effOut)
	return out, ok
}

// mergeCheckInterval is the number of heap pops between cooperative
// cancellation checkpoints in MergeTopKIntoCtx. It must be a power of two
// (the checkpoint test is a bitmask) and is sized so the poll cost
// disappears against the O(log g) sift of each pop.
const mergeCheckInterval = 4096

// MergeTopKIntoCtx is MergeTopKInto with cooperative cancellation: the
// emit loop polls ctx every mergeCheckInterval pops and abandons the merge
// with ctx's error once it is done. A non-nil error means neither dst nor
// effOut hold a usable prefix; the caller must give up rather than fall
// back to the full-sort path (ok is still true in that case — the merge
// structure itself did not decline).
func (c *ComboRuns) MergeTopKIntoCtx(ctx context.Context, bonus []float64, pol Polarity, k int, s *MergeScratch, dst []int, effOut []float64) ([]int, bool, error) {
	checkK(c.n, k)
	if !c.prepareOffsets(bonus, pol, s) {
		return nil, false, nil
	}
	g := int32(c.Runs())
	for r := int32(0); r < g; r++ {
		s.pos[r] = c.starts[r]
		s.rem[r] = 0
	}
	s.heap = s.heap[:0]
	for r := int32(0); r < g; r++ {
		if e, ok := s.head(c, r); ok {
			s.heap = append(s.heap, e)
		}
	}
	for i := len(s.heap)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
	out := dst[:0]
	for len(out) < k {
		if len(out)&(mergeCheckInterval-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, true, err
			}
		}
		e := s.heap[0]
		out = append(out, int(e.id))
		if effOut != nil {
			effOut[e.id] = e.eff
		}
		s.pop(e.run, e.id)
		if ne, ok := s.head(c, e.run); ok {
			s.heap[0] = ne
		} else {
			n := len(s.heap) - 1
			s.heap[0] = s.heap[n]
			s.heap = s.heap[:n]
		}
		if len(s.heap) > 0 {
			s.siftDown(0)
		}
	}
	return out, true, nil
}

// siftDown restores the max-heap property downward from root.
func (s *MergeScratch) siftDown(root int) {
	h := s.heap
	for {
		child := 2*root + 1
		if child >= len(h) {
			return
		}
		if child+1 < len(h) && h[child+1].beats(h[child]) {
			child++
		}
		if !h[child].beats(h[root]) {
			return
		}
		h[root], h[child] = h[child], h[root]
		root = child
	}
}

// RankOf returns the 0-based rank of object obj in the full ranking
// under bonus, together with its effective score, without materializing
// any prefix: each run contributes a binary-search count of members
// ranking above obj (effective score strictly greater, or equal with a
// lower id), an O(g log(n/g)) total. ok=false means the merge structure
// declined (non-finite offsets); fall back to a full ranking.
func (c *ComboRuns) RankOf(obj int, bonus []float64, pol Polarity, s *MergeScratch) (rankPos int, eff float64, ok bool) {
	if !c.prepareOffsets(bonus, pol, s) {
		return 0, 0, false
	}
	e := c.bases[c.posOf[obj]] + s.offsets[c.comboOf[obj]]
	above := 0
	for r := 0; r < c.Runs(); r++ {
		lo, hi := int(c.starts[r]), int(c.starts[r+1])
		off := s.offsets[r]
		// First position with eff <= e; everything before it ranks above.
		cut := lo + sort.Search(hi-lo, func(q int) bool {
			return c.bases[lo+q]+off <= e
		})
		above += cut - lo
		// Among the equal-eff region, ids lower than obj rank above.
		for q := cut; q < hi && c.bases[q]+off == e; q++ {
			if int(c.ids[q]) < obj {
				above++
			}
		}
	}
	return above, e, true
}
