package dataset

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Dataset is an immutable columnar collection of objects. The zero value is
// an empty dataset; use a Builder or New to construct a populated one.
type Dataset struct {
	n          int
	scoreNames []string
	fairNames  []string
	score      [][]float64 // score[j][i]: score attribute j of object i
	fair       [][]float64 // fair[j][i]: fairness attribute j of object i
	outcome    []bool      // optional; nil when absent
	fairBinary []bool      // fairBinary[j]: every value of fair[j] is exactly 0 or 1

	// combos is the combo-row index, built by the first ComboIndex call
	// and read by the hot paths once it exists.
	comboOnce sync.Once
	combos    atomic.Pointer[comboIndex]
}

// comboIndex maps every object to its distinct fairness row. ok is false
// when the dataset has more than MaxCombos distinct rows; comboOf and
// reps are nil then.
type comboIndex struct {
	comboOf []int32   // combo of every object id
	reps    []float64 // one row per combo, flat: combo c is reps[c*dims:(c+1)*dims]
	ok      bool
}

// ErrNoOutcomes is returned by Outcome when the dataset was built without
// ground-truth outcomes.
var ErrNoOutcomes = errors.New("dataset: no outcomes recorded")

// New assembles a dataset from column-major data. The score and fair slices
// are retained (not copied); callers must not mutate them afterwards. The
// outcome slice may be nil.
func New(scoreNames, fairNames []string, score, fair [][]float64, outcome []bool) (*Dataset, error) {
	if len(score) != len(scoreNames) {
		return nil, fmt.Errorf("dataset: %d score columns for %d names", len(score), len(scoreNames))
	}
	if len(fair) != len(fairNames) {
		return nil, fmt.Errorf("dataset: %d fairness columns for %d names", len(fair), len(fairNames))
	}
	n := -1
	for j, col := range score {
		if n == -1 {
			n = len(col)
		}
		if len(col) != n {
			return nil, fmt.Errorf("dataset: score column %q has %d rows, want %d", scoreNames[j], len(col), n)
		}
	}
	fairBinary := make([]bool, len(fair))
	for j, col := range fair {
		if n == -1 {
			n = len(col)
		}
		if len(col) != n {
			return nil, fmt.Errorf("dataset: fairness column %q has %d rows, want %d", fairNames[j], len(col), n)
		}
		fairBinary[j] = true
		for i, v := range col {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("dataset: fairness column %q row %d: non-finite value %v", fairNames[j], i, v)
			}
			if v < 0 || v > 1 {
				return nil, fmt.Errorf("dataset: fairness column %q row %d: value %v outside [0,1]", fairNames[j], i, v)
			}
			if v != 0 && v != 1 {
				fairBinary[j] = false
			}
		}
	}
	if n == -1 {
		n = 0
	}
	for j, col := range score {
		for i, v := range col {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("dataset: score column %q row %d: non-finite value %v", scoreNames[j], i, v)
			}
		}
	}
	if outcome != nil && len(outcome) != n {
		return nil, fmt.Errorf("dataset: %d outcomes for %d objects", len(outcome), n)
	}
	return &Dataset{
		n:          n,
		scoreNames: append([]string(nil), scoreNames...),
		fairNames:  append([]string(nil), fairNames...),
		score:      score,
		fair:       fair,
		outcome:    outcome,
		fairBinary: fairBinary,
	}, nil
}

// N reports the number of objects.
func (d *Dataset) N() int { return d.n }

// NumScore reports the number of score attributes.
func (d *Dataset) NumScore() int { return len(d.scoreNames) }

// NumFair reports the number of fairness attributes.
func (d *Dataset) NumFair() int { return len(d.fairNames) }

// ScoreNames returns the score attribute names. The returned slice must not
// be modified.
func (d *Dataset) ScoreNames() []string { return d.scoreNames }

// FairNames returns the fairness attribute names. The returned slice must
// not be modified.
func (d *Dataset) FairNames() []string { return d.fairNames }

// HasOutcomes reports whether ground-truth outcomes were recorded.
func (d *Dataset) HasOutcomes() bool { return d.outcome != nil }

// ScoreColumn returns score attribute column j. The returned slice must not
// be modified.
func (d *Dataset) ScoreColumn(j int) []float64 { return d.score[j] }

// FairColumn returns fairness attribute column j. The returned slice must
// not be modified.
func (d *Dataset) FairColumn(j int) []float64 { return d.fair[j] }

// FairColumns returns all fairness attribute columns. Neither the returned
// slice nor the columns may be modified. Hot paths (effective-score
// computation, centroid accumulation) use it to hoist the column lookups
// out of their inner loops.
func (d *Dataset) FairColumns() [][]float64 { return d.fair }

// Score returns score attribute j of object i.
func (d *Dataset) Score(i, j int) float64 { return d.score[j][i] }

// Fair returns fairness attribute j of object i.
func (d *Dataset) Fair(i, j int) float64 { return d.fair[j][i] }

// Outcome returns the ground-truth outcome of object i. It panics if the
// dataset has no outcomes; check HasOutcomes first.
func (d *Dataset) Outcome(i int) bool {
	if d.outcome == nil {
		panic(ErrNoOutcomes)
	}
	return d.outcome[i]
}

// FairRow copies the fairness attribute vector of object i into dst, which
// must have length NumFair, and returns dst.
func (d *Dataset) FairRow(i int, dst []float64) []float64 {
	for j := range d.fair {
		dst[j] = d.fair[j][i]
	}
	return dst
}

// FairDot returns the dot product of object i's fairness attribute vector
// with b. This is the bonus-point inner product A_f · B of Definition 2. b
// must have length NumFair.
func (d *Dataset) FairDot(i int, b []float64) float64 {
	var s float64
	for j := range d.fair {
		s += d.fair[j][i] * b[j]
	}
	return s
}

// FairCentroid returns the centroid of the fairness attribute vectors over
// the whole population (the D_O of Definition 3).
func (d *Dataset) FairCentroid() []float64 {
	c := make([]float64, len(d.fair))
	if d.n == 0 {
		return c
	}
	for j, col := range d.fair {
		var s float64
		for _, v := range col {
			s += v
		}
		c[j] = s / float64(d.n)
	}
	return c
}

// FairCentroidOf returns the centroid of the fairness attribute vectors over
// the given object indices (the D_k of Definition 3 when idx is a selected
// set). It returns the zero vector when idx is empty.
func (d *Dataset) FairCentroidOf(idx []int) []float64 {
	return d.FairCentroidInto(idx, make([]float64, len(d.fair)))
}

// FairCentroidInto is the in-place variant of FairCentroidOf: it writes the
// centroid into dst (length NumFair) and returns dst, allocating nothing.
//
// Once the combo-row index exists (see ComboIndex) the centroid is one
// pass over idx that reads each object's combo row, a few cache-resident
// bytes, instead of NumFair random reads across the columns. Each
// dimension is still summed in idx order from zero, and a combo row is
// bitwise equal to the object's column values, so both routes return the
// same bits.
func (d *Dataset) FairCentroidInto(idx []int, dst []float64) []float64 {
	if len(idx) == 0 {
		for j := range dst {
			dst[j] = 0
		}
		return dst
	}
	cnt := float64(len(idx))
	// Only an index ComboIndex already built: a one-off centroid over a
	// fresh dataset must not pay for the build.
	if ci := d.combos.Load(); ci != nil && ci.ok {
		comboOf, reps := ci.comboOf, ci.reps
		switch len(d.fair) {
		case 2:
			var s0, s1 float64
			for _, i := range idx {
				r := reps[2*int(comboOf[i]):][:2]
				s0 += r[0]
				s1 += r[1]
			}
			dst[0], dst[1] = s0/cnt, s1/cnt
		case 3:
			var s0, s1, s2 float64
			for _, i := range idx {
				r := reps[3*int(comboOf[i]):][:3]
				s0 += r[0]
				s1 += r[1]
				s2 += r[2]
			}
			dst[0], dst[1], dst[2] = s0/cnt, s1/cnt, s2/cnt
		case 4:
			var s0, s1, s2, s3 float64
			for _, i := range idx {
				r := reps[4*int(comboOf[i]):][:4]
				s0 += r[0]
				s1 += r[1]
				s2 += r[2]
				s3 += r[3]
			}
			dst[0], dst[1], dst[2], dst[3] = s0/cnt, s1/cnt, s2/cnt, s3/cnt
		default:
			dims := len(d.fair)
			sum := dst[:dims]
			for j := range sum {
				sum[j] = 0
			}
			for _, i := range idx {
				r := reps[dims*int(comboOf[i]):][:dims]
				for j, v := range r {
					sum[j] += v
				}
			}
			for j := range sum {
				sum[j] /= cnt
			}
		}
		return dst
	}
	for j, col := range d.fair {
		var s float64
		for _, i := range idx {
			s += col[i]
		}
		dst[j] = s / cnt
	}
	return dst
}

// Subset returns a new dataset containing the objects at the given indices,
// in order. Columns are copied, so the subset is independent of the parent.
func (d *Dataset) Subset(idx []int) *Dataset {
	score := make([][]float64, len(d.score))
	for j, col := range d.score {
		sub := make([]float64, len(idx))
		for r, i := range idx {
			sub[r] = col[i]
		}
		score[j] = sub
	}
	fair := make([][]float64, len(d.fair))
	for j, col := range d.fair {
		sub := make([]float64, len(idx))
		for r, i := range idx {
			sub[r] = col[i]
		}
		fair[j] = sub
	}
	var outcome []bool
	if d.outcome != nil {
		outcome = make([]bool, len(idx))
		for r, i := range idx {
			outcome[r] = d.outcome[i]
		}
	}
	sub, err := New(d.scoreNames, d.fairNames, score, fair, outcome)
	if err != nil {
		// The parent was validated, so a subset cannot fail validation.
		panic(err)
	}
	return sub
}

// FairIndex returns the column index of the named fairness attribute, or -1.
func (d *Dataset) FairIndex(name string) int {
	for j, n := range d.fairNames {
		if n == name {
			return j
		}
	}
	return -1
}

// ScoreIndex returns the column index of the named score attribute, or -1.
func (d *Dataset) ScoreIndex(name string) int {
	for j, n := range d.scoreNames {
		if n == name {
			return j
		}
	}
	return -1
}

// BinaryFairColumns reports whether every fairness attribute column is
// binary — each value exactly 0 or 1 — the precondition of the group
// exposure metrics (exposure, exposure/merit ratio, top-K rank fairness).
// When ok is false, offending names the first non-binary column; callers
// that want exposure answers over a mixed dataset take a WithFairColumns
// view restricted to the binary attributes, as the paper's Section
// VI-C4/C5 experiments do when they drop the continuous ENI attribute.
// Binarity is detected once at construction, so this is O(NumFair).
func (d *Dataset) BinaryFairColumns() (ok bool, offending string) {
	for j, b := range d.fairBinary {
		if !b {
			return false, d.fairNames[j]
		}
	}
	return true, ""
}

// GroupSize reports how many objects have fairness attribute j strictly
// above 0.5, i.e. the membership count for a binary attribute.
func (d *Dataset) GroupSize(j int) int {
	var c int
	for _, v := range d.fair[j] {
		if v > 0.5 {
			c++
		}
	}
	return c
}

// WithFairColumns returns a view of the dataset restricted to the given
// fairness attribute columns (in the given order). Score columns and
// outcomes are shared with the parent; fairness columns are shared slices,
// so the view is cheap. The paper's Section VI-C4/C5 experiments use this
// to drop the continuous ENI attribute, which exposure and disparate
// impact cannot handle.
func (d *Dataset) WithFairColumns(cols []int) *Dataset {
	names := make([]string, len(cols))
	fair := make([][]float64, len(cols))
	binary := make([]bool, len(cols))
	for r, c := range cols {
		names[r] = d.fairNames[c]
		fair[r] = d.fair[c]
		binary[r] = d.fairBinary[c]
	}
	return &Dataset{
		n:          d.n,
		scoreNames: d.scoreNames,
		fairNames:  names,
		score:      d.score,
		fair:       fair,
		outcome:    d.outcome,
		fairBinary: binary,
	}
}

// MaxCombos caps the combo-row index. A dataset whose fairness
// attributes are effectively continuous has close to one distinct row per
// object; an index over it saves no reads and a combo-run merge over it
// degenerates to a full sort, so above this many rows ComboIndex declines.
const MaxCombos = 2048

// ComboIndex returns the combo-row index: the objects partitioned by
// bitwise-identical fairness rows. comboOf holds the combo of every
// object (combos are numbered in first-appearance order) and reps one
// representative row per combo, flat: combo c's row is
// reps[c*NumFair():(c+1)*NumFair()]. Two objects share a combo exactly
// when every fairness attribute matches bit for bit, so reps[comboOf[i]]
// is bitwise equal to object i's column values. That is the invariant
// the combo-run merge ranking relies on (members of a combo receive
// identical bonus totals under every bonus vector), and the one that lets
// the descent step's scoring and centroids read a row of the small reps
// table instead of NumFair large columns.
//
// The index is built on the first call and kept for the dataset's
// lifetime; later calls, from any goroutine, return the same slices,
// which must not be modified. ok is false, with nil slices, when the
// dataset has more than MaxCombos distinct rows.
func (d *Dataset) ComboIndex() (comboOf []int32, reps []float64, ok bool) {
	d.comboOnce.Do(func() { d.combos.Store(d.buildCombos()) })
	ci := d.combos.Load()
	return ci.comboOf, ci.reps, ci.ok
}

// comboSlots is the size of buildCombos' open-addressed table: a power of
// two at least twice MaxCombos, so the table is never more than half full.
const (
	comboSlotBits = 12
	comboSlots    = 1 << comboSlotBits
)

func (d *Dataset) buildCombos() *comboIndex {
	dims := len(d.fair)
	comboOf := make([]int32, d.n)
	if dims == 0 {
		// No fairness attributes: every object is the single empty combo.
		return &comboIndex{comboOf: comboOf, reps: []float64{}, ok: true}
	}
	// Combo ids (plus one; 0 marks an empty slot) in an open-addressed
	// table keyed by a multiplicative hash of the row's bits. A probe
	// compares the representative row bit for bit, so -0 and +0 stay
	// apart and a hash collision never merges two rows.
	table := make([]int32, comboSlots)
	var reps []float64
	for i := 0; i < d.n; i++ {
		var h uint64
		for _, col := range d.fair {
			h = (h ^ math.Float64bits(col[i])) * 0x9e3779b97f4a7c15
		}
		slot := h >> (64 - comboSlotBits)
		for {
			c := table[slot]
			if c == 0 {
				g := len(reps) / dims
				if g == MaxCombos {
					return &comboIndex{}
				}
				for _, col := range d.fair {
					reps = append(reps, col[i])
				}
				table[slot] = int32(g + 1)
				comboOf[i] = int32(g)
				break
			}
			if d.rowIs(i, reps[int(c-1)*dims:][:dims]) {
				comboOf[i] = c - 1
				break
			}
			slot = (slot + 1) & (comboSlots - 1)
		}
	}
	return &comboIndex{comboOf: comboOf, reps: reps[:len(reps):len(reps)], ok: true}
}

// rowIs reports whether object i's fairness row is bitwise equal to row.
func (d *Dataset) rowIs(i int, row []float64) bool {
	for j, col := range d.fair {
		if math.Float64bits(col[i]) != math.Float64bits(row[j]) {
			return false
		}
	}
	return true
}

// Builder accumulates objects row by row and produces a Dataset.
type Builder struct {
	scoreNames []string
	fairNames  []string
	score      [][]float64
	fair       [][]float64
	outcome    []bool
	hasOutcome bool
	err        error
}

// NewBuilder returns a Builder for datasets with the given attribute names.
func NewBuilder(scoreNames, fairNames []string) *Builder {
	b := &Builder{
		scoreNames: append([]string(nil), scoreNames...),
		fairNames:  append([]string(nil), fairNames...),
		score:      make([][]float64, len(scoreNames)),
		fair:       make([][]float64, len(fairNames)),
	}
	return b
}

// Add appends an object without an outcome.
func (b *Builder) Add(score, fair []float64) {
	b.add(score, fair, false, false)
}

// AddWithOutcome appends an object with a ground-truth outcome. All objects
// in a dataset must be added consistently: either all with outcomes or none.
func (b *Builder) AddWithOutcome(score, fair []float64, outcome bool) {
	b.add(score, fair, outcome, true)
}

func (b *Builder) add(score, fair []float64, outcome, withOutcome bool) {
	if b.err != nil {
		return
	}
	if len(score) != len(b.scoreNames) {
		b.err = fmt.Errorf("dataset: Add with %d score values, want %d", len(score), len(b.scoreNames))
		return
	}
	if len(fair) != len(b.fairNames) {
		b.err = fmt.Errorf("dataset: Add with %d fairness values, want %d", len(fair), len(b.fairNames))
		return
	}
	n := 0
	if len(b.score) > 0 {
		n = len(b.score[0])
	} else if len(b.fair) > 0 {
		n = len(b.fair[0])
	}
	if n == 0 {
		b.hasOutcome = withOutcome
	} else if b.hasOutcome != withOutcome {
		b.err = errors.New("dataset: mixed Add and AddWithOutcome calls")
		return
	}
	for j, v := range score {
		b.score[j] = append(b.score[j], v)
	}
	for j, v := range fair {
		b.fair[j] = append(b.fair[j], v)
	}
	if withOutcome {
		b.outcome = append(b.outcome, outcome)
	}
}

// Build validates the accumulated rows and returns the dataset.
func (b *Builder) Build() (*Dataset, error) {
	if b.err != nil {
		return nil, b.err
	}
	var outcome []bool
	if b.hasOutcome {
		outcome = b.outcome
	}
	return New(b.scoreNames, b.fairNames, b.score, b.fair, outcome)
}
