// Package rankonce enforces the rank-once invariant: exactness-pinned
// engine packages must not sort or heap-select cohort-sized score data
// themselves. Every evaluator ranking flows through the single
// Evaluator.rankedPrefixWS route of the evaluation plan (internal/rank
// does the actual sorting; only the evaluator's cached base order and the
// trainer objectives call it elsewhere), so
// sweeps, pointwise metrics, bundles, explanations and counterfactuals
// provably share ranked passes — the property the reference
// differentials and the ranking-count budget assertions pin.
//
// Flagged in matching packages (non-test files): sort.Slice,
// sort.SliceStable, sort.Sort, sort.Stable, the slices.Sort* family,
// and container/heap operations. sort.Ints / sort.Float64s /
// sort.Strings stay legal: the engine uses them to canonicalize small
// id lists for stable output, never to rank scores.
package rankonce

import (
	"go/ast"

	"fairrank/tools/fairlint/internal/directive"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"
)

var Analyzer = &analysis.Analyzer{
	Name:     "rankonce",
	Doc:      "forbid ad-hoc sorting/heap selection in exactness-pinned packages; rankings must flow through internal/rank (Evaluator.rankedPrefixWS)",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

var packagesFlag *string

func init() {
	packagesFlag = Analyzer.Flags.String("packages", "internal/core,internal/service,internal/report,internal/metrics",
		"comma-separated package path patterns the invariant applies to")
}

// banned maps package path -> function names whose call sites violate
// the invariant.
var banned = map[string]map[string]bool{
	"sort": {
		"Slice": true, "SliceStable": true, "SliceIsSorted": false,
		"Sort": true, "Stable": true,
	},
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true,
		"Sorted": true, "SortedFunc": true, "SortedStableFunc": true,
	},
	"container/heap": {
		"Init": true, "Push": true, "Pop": true, "Fix": true,
	},
}

func run(pass *analysis.Pass) (any, error) {
	if !directive.PackageMatch(pass.Pkg.Path(), *packagesFlag) {
		return nil, nil
	}
	sup := directive.New(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		if directive.TestFile(pass, call.Pos()) {
			return
		}
		fn := typeutil.Callee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return
		}
		if banned[fn.Pkg().Path()][fn.Name()] {
			sup.Reportf(pass, call.Pos(),
				"%s.%s in exactness-pinned package %s: rankings must flow through internal/rank (Evaluator.rankedPrefixWS); annotate //fairlint:allow rankonce -- <reason> if this provably does not rank score data",
				fn.Pkg().Name(), fn.Name(), pass.Pkg.Path())
		}
	})
	return nil, nil
}
