// Package metrics implements the fairness and utility metrics of the paper:
// the disparity vector (Definition 3) and its logarithmically discounted
// whole-ranking variant (Section IV-E), nDCG utility, exposure and the DDP
// demographic-disparity constraint (Section VI-C4), the scaled disparate
// impact (Section VI-C5), and per-group false positive rate differences
// (the equalized-odds extension used on COMPAS).
//
// Every fairness metric in this package returns a vector with one dimension
// per fairness attribute, bounded in [-1, 1], with 0 meaning statistical
// parity — the contract DCA requires of its optimization objectives.
//
// The prefix folds (PrefixCentroidInto, PrefixGroupCountsInto,
// PrefixFPCountsInto, PrefixExposureInto, PrefixExposureCountsInto) answer
// a metric at many cuts of one ranked order in one pass. Once the
// dataset's combo-row index is built (dataset.BuiltComboIndex; every
// evaluator builds it), they read each ranked object's combo row or
// membership mask, one lookup in a small table, instead of NumFair random
// reads across the columns; without the index they loop over the columns.
// Both routes give the same bits, which FuzzPrefixFolds checks against a
// naive reference.
package metrics
