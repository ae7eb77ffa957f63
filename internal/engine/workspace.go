package engine

import "fairrank/internal/rank"

// Workspace owns the scratch buffers of one descent or evaluation
// goroutine. All buffers grow on demand and are reused across steps, so
// the steady-state allocation count of a descent step is zero.
//
// A Workspace is not safe for concurrent use: create one per goroutine
// (see ForEachWSCtx, which does exactly that).
type Workspace struct {
	dims int

	eff  []float64 // effective-score buffer, one entry per sampled object
	obj  []float64 // objective accumulator, one entry per fairness dim
	met  []float64 // per-prefix metric scratch (log-discounted objectives)
	pop  []float64 // sample-centroid scratch
	agg  []float64 // prefix-aggregate rows (sweep engine: one row per cut)
	sel  []int     // selection (top-k) index buffer
	abs  []int     // absolute-object-index buffer
	ord  []int     // full-ordering buffer
	smp  []int     // per-step sample index buffer
	cnt  []int     // prefix-count rows (sweep engine: group counts per cut)
	mark []bool    // absolute-id membership marks (kept all-false between uses)
	bits []uint64  // bitmap scratch (cleared on every Bits call)

	merge rank.MergeScratch // combo-run merge state (heap, cursors, offsets)
}

// NewWorkspace returns a workspace for objectives over dims fairness
// dimensions. Buffers are allocated lazily on first use.
func NewWorkspace(dims int) *Workspace {
	return &Workspace{
		dims: dims,
		obj:  make([]float64, dims),
		met:  make([]float64, dims),
		pop:  make([]float64, dims),
	}
}

// Dims reports the fairness dimensionality the workspace was created for.
func (w *Workspace) Dims() int { return w.dims }

// Eff returns the effective-score buffer resized to n.
func (w *Workspace) Eff(n int) []float64 {
	w.eff = growFloats(w.eff, n)
	return w.eff
}

// Objective returns the per-dimension objective accumulator.
func (w *Workspace) Objective() []float64 { return w.obj }

// Metric returns the per-dimension scratch used for intermediate metric
// vectors (e.g. one prefix of a log-discounted objective).
func (w *Workspace) Metric() []float64 { return w.met }

// Pop returns the per-dimension centroid scratch.
func (w *Workspace) Pop() []float64 { return w.pop }

// PopN returns the centroid scratch resized to n. The exposure sweep uses
// it for running sums over NumFair+1 groups (the named groups plus the
// unprotected rest), one entry wider than the per-dimension default.
func (w *Workspace) PopN(n int) []float64 {
	w.pop = growFloats(w.pop, n)
	return w.pop
}

// Sel returns the selection index buffer resized to n.
func (w *Workspace) Sel(n int) []int {
	w.sel = growInts(w.sel, n)
	return w.sel
}

// Abs returns the absolute-index buffer resized to n.
func (w *Workspace) Abs(n int) []int {
	w.abs = growInts(w.abs, n)
	return w.abs
}

// Ord returns the ordering buffer resized to n.
func (w *Workspace) Ord(n int) []int {
	w.ord = growInts(w.ord, n)
	return w.ord
}

// Agg returns the prefix-aggregate scratch resized to n. The sweep engine
// carves it into per-cut aggregate rows (prefix centroids, prefix DCG
// values), so an S-point sweep reuses one buffer across every cut.
func (w *Workspace) Agg(n int) []float64 {
	w.agg = growFloats(w.agg, n)
	return w.agg
}

// Cnts returns the prefix-count scratch resized to n. The sweep engine
// carves it into per-cut integer rows (group membership and false-positive
// counts).
func (w *Workspace) Cnts(n int) []int {
	w.cnt = growInts(w.cnt, n)
	return w.cnt
}

// SampleBuf returns the per-step sample index buffer resized to n. It is
// distinct from Sel/Abs/Ord because the sample must stay live while the
// objective evaluation uses those buffers.
func (w *Workspace) SampleBuf(n int) []int {
	w.smp = growInts(w.smp, n)
	return w.smp
}

// Merge returns the combo-run merge scratch. Like every other buffer it
// is sized on demand (by the merge itself) and reused across requests,
// so steady-state merges allocate nothing.
func (w *Workspace) Merge() *rank.MergeScratch { return &w.merge }

// Marks returns the membership-mark buffer sized for a universe of n
// absolute object ids. Callers must reset every mark they set before
// returning, so the buffer stays all-false between uses.
func (w *Workspace) Marks(n int) []bool {
	if cap(w.mark) < n {
		w.mark = make([]bool, n)
	}
	return w.mark[:n]
}

// Bits returns a bitmap scratch of the given number of 64-bit words, all
// zero: clearing it costs one word per 64 ids, so callers need not reset
// the bits they set.
func (w *Workspace) Bits(words int) []uint64 {
	if cap(w.bits) < words {
		w.bits = make([]uint64, words)
		return w.bits
	}
	w.bits = w.bits[:words]
	clear(w.bits)
	return w.bits
}

func growFloats(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

func growInts(b []int, n int) []int {
	if cap(b) < n {
		return make([]int, n)
	}
	return b[:n]
}
