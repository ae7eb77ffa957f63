// Package dataset provides the columnar object model shared by every other
// package in the repository.
//
// A Dataset holds a fixed population of objects (students, defendants, ...).
// Each object has a row of score attributes (the inputs of the ranking
// function, e.g. GPA and test scores), a row of fairness attributes (the
// dimensions on which disparity is measured, e.g. low-income status), and an
// optional boolean ground-truth outcome (used by equalized-odds style
// metrics such as false positive rates).
//
// Score attributes are unconstrained floats. Fairness attributes must lie in
// [0, 1]: binary membership is encoded as {0, 1} and continuous attributes
// (such as the Economic Need Index) are normalized to [0, 1], matching
// Definition 3 of the paper where every disparity dimension is bounded in
// [-1, 1].
//
// Storage is column major: population-wide passes (the full centroid, a
// binary group count, a whole-cohort scoring) scan one contiguous slice
// per fairness dimension.
//
// Next to the columns a dataset keeps its combo-row index (ComboIndex):
// the objects partitioned by bitwise-identical fairness rows, as the
// combo of every object plus one flat table with one row per combo, and
// one membership mask per combo (bit j set when attribute j exceeds 0.5).
// It is built once, on the first ComboIndex call, and declines when there
// are more than MaxCombos distinct rows. Four readers use it:
//
//   - rank.ComboRuns takes its runs from it, so the merge ranking and the
//     index share one partition;
//   - rank.EffectiveScores scores each object from its base score and its
//     combo row (or, over more objects than combos, its combo's bonus
//     term);
//   - AddFairRows (and FairCentroidInto through it) sums combo rows in
//     one pass over the selection, once the index exists;
//   - the metrics package's prefix folds read combo rows and masks
//     (BuiltComboIndex) for every position of an evaluator's ranked order.
//
// The middle two are the DCA descent step's random reads of 500 sampled
// objects. Through the index each costs a base score and a 4-byte combo
// id plus a row of a table small enough to stay in cache, instead of one
// read per fairness column. A combo row is bitwise its object's column
// values and the summation orders are the column loops', so results do
// not change by a bit. The core.Trainer constructors and NewEvaluator
// make sure the index exists.
package dataset
