// Package report renders results for human and machine consumption: the
// aligned text tables and tab-separated series cmd/experiments uses to
// print the paper's tables and figure data, and the versioned audit
// bundles that publish a bonus-point policy.
//
// An audit bundle (Bundle, built by BuildBundleCtx from a
// core.Evaluator) is the paper's transparency argument made operational:
// the published cutoff, every attribute's bonus points with its selection
// effect and leave-one-out share of the disparity reduction, the
// beneficiary and displaced lists, and exact counterfactual margins for
// the objects at the cutoff. Bundles render as JSON (archival), sectioned
// CSV (spreadsheet tooling), or Markdown (the policy document), and carry
// a schema version so archived bundles stay interpretable.
package report
