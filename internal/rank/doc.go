// Package rank implements the score-based ranking machinery of the paper:
// ranking functions over score attributes (Definition 1), bonus-point
// application (Definition 2) with support for adverse selections where a
// lower score is desirable (the COMPAS scenario), and top-k% selection by
// a full ranking (Order/OrderInto) or a bounded min-heap (TopKHeapInto).
//
// EffectiveScores, the scoring pass of every DCA descent step, reads each
// object's fairness row through the dataset's combo-row index
// (dataset.ComboIndex): base[i] plus one row of a small, cache-resident
// table of distinct rows, instead of one random read per fairness column.
// A pass over more than three objects per row (termRoute; a
// whole-population scoring) computes each row's bonus term once and adds
// it per object.
// The rows are bitwise the column values and the expressions are the
// column route's, so scores are bit-identical; a dataset whose index
// declines (a continuous attribute) is scored from its columns.
// TopKHeapInto, the step's selection, caches the weakest kept score and
// sifts accepted items down as a hole; its heap layout is the swap-based
// heap's exactly, which the selection centroid's summation order needs.
//
// Every full ranking (Order, OrderInto, and SortRanked on a subset of at
// least radixMin = 1024 ids) runs on an LSD radix kernel over
// order-preserving uint64 score keys, ties broken by ascending id through
// stable id passes. On the 80k school cohort it ranks everyone in about
// 3 ms, against about 16 ms for the comparator sort it replaced (Intel
// Xeon @ 2.10GHz, go1.24; BENCH_rank.json). The ranking is unique
// (the comparator is a total order on non-NaN scores), so the kernel's
// output is the comparator's exactly; smaller inputs and any input with a
// NaN score take the comparator sort itself. The kernel's scratch comes
// from a sync.Pool and is never held by a long-lived object.
//
// On top of the per-request selectors sits ComboRuns, the combo-run merge
// structure: the population is partitioned by distinct fairness-
// attribute combination into g runs (the dataset's combo-row index,
// shared, not copied), each ordered by (base score desc, id asc) by
// dealing one ranking of the base scores into the runs.
// Because a bonus vector shifts every member of a run by the same
// constant, any top-k prefix under any bonus is an exact g-way
// bounded-heap merge of the pre-sorted runs — O(k log g) per request
// instead of a population-wide scoring pass and ranking, bit-identical to
// the full sort including tie-breaking (equal-effective-score head groups
// are re-emitted in ascending id order, covering the rounding-collapse
// case where adding the run offset makes distinct bases equal). RankOf
// answers one object's exact rank by binary search per run.
package rank
