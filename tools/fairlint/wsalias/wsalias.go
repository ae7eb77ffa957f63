// Package wsalias polices pooled-workspace aliasing, the bug class the
// Evaluator's sync.Pool makes catastrophic: a slice view of
// engine.Workspace scratch that survives the workspace's release is
// silently overwritten by the next request on the pool.
//
// The engine's documented convention: only functions whose name ends
// in "WS" (rankedPrefixWS, counterfactualsWS, ...)
// may return workspace-aliasing slices — their callers hold the
// workspace and must copy before releasing it. This analyzer makes the
// convention mechanical. In non-test files it flags:
//
//   - a function NOT named *WS returning a slice that traces to
//     workspace scratch (a field or buffer-accessor result of a
//     workspace-typed parameter or local, directly or through local
//     assignments, slicing, or buffer-filling calls);
//   - ANY function (including *WS seams) storing such a slice into
//     memory that outlives the workspace: a field of a non-workspace
//     value or a package-level variable.
//
// The tracking is intraprocedural; results of calls are treated as
// aliasing when the callee follows the *WS naming convention or is
// passed an aliasing buffer of the same type it returns (the
// rank.OrderInto(eff, ws.Ord(n)) shape). Copies via
// append(nil-or-fresh, src...) or copy() stay clean.
package wsalias

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"fairrank/tools/fairlint/internal/directive"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

var Analyzer = &analysis.Analyzer{
	Name:     "wsalias",
	Doc:      "forbid returning or storing slices that alias pooled engine.Workspace scratch outside the documented *WS seams",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

var workspaceFlag *string

func init() {
	workspaceFlag = Analyzer.Flags.String("workspace", "engine.Workspace",
		"workspace type as pkgpath.TypeName; pkgpath is suffix-matched")
}

func run(pass *analysis.Pass) (any, error) {
	pat := *workspaceFlag
	dot := strings.LastIndex(pat, ".")
	if dot < 0 {
		return nil, nil
	}
	c := &checker{pass: pass, pkgPat: pat[:dot], typeName: pat[dot+1:], sup: directive.New(pass)}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil || directive.TestFile(pass, fd.Pos()) {
			return
		}
		// Methods on the workspace type itself are the accessor
		// contract (Eff, Ord, ... hand out scratch by design).
		if fd.Recv != nil && len(fd.Recv.List) == 1 && c.isWorkspaceType(pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)) {
			return
		}
		c.checkFunc(fd)
	})
	return nil, nil
}

type checker struct {
	pass     *analysis.Pass
	sup      *directive.Suppressor
	pkgPat   string
	typeName string
	tainted  map[types.Object]bool
}

func (c *checker) isWorkspaceType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == c.typeName && directive.PackageMatch(n.Obj().Pkg().Path(), c.pkgPat)
}

func (c *checker) isWorkspaceExpr(e ast.Expr) bool {
	return c.isWorkspaceType(c.pass.TypesInfo.TypeOf(e))
}

func (c *checker) checkFunc(fd *ast.FuncDecl) {
	c.tainted = map[types.Object]bool{}
	// Fixpoint: locals assigned workspace-aliasing values are aliasing.
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := c.pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = c.pass.TypesInfo.Uses[id]
				}
				if obj == nil || c.tainted[obj] {
					continue
				}
				if c.aliases(as.Rhs[i]) {
					c.tainted[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	// Returns inside closures are the closure's contract with its
	// in-function consumer, not the function's API; only stores are
	// checked inside them.
	var funcLits []*ast.FuncLit
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			funcLits = append(funcLits, fl)
		}
		return true
	})
	inFuncLit := func(pos token.Pos) bool {
		for _, fl := range funcLits {
			if pos >= fl.Pos() && pos < fl.End() {
				return true
			}
		}
		return false
	}
	seam := strings.HasSuffix(fd.Name.Name, "WS")
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			if seam || inFuncLit(n.Pos()) {
				return true
			}
			for _, res := range n.Results {
				c.checkReturned(fd.Name.Name, res)
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				if !c.aliases(n.Rhs[i]) {
					continue
				}
				switch l := lhs.(type) {
				case *ast.SelectorExpr:
					if !c.isWorkspaceExpr(l.X) && !c.aliases(l.X) {
						c.sup.Reportf(c.pass, n.Pos(), "%s stores a slice aliasing pooled workspace scratch into %s, which outlives the workspace; copy it instead", fd.Name.Name, types.ExprString(l))
					}
				case *ast.Ident:
					if obj := c.pass.TypesInfo.Uses[l]; obj != nil && obj.Parent() == obj.Pkg().Scope() {
						c.sup.Reportf(c.pass, n.Pos(), "%s stores a slice aliasing pooled workspace scratch into package variable %s; copy it instead", fd.Name.Name, l.Name)
					}
				}
			}
		}
		return true
	})
}

// checkReturned flags aliasing slices in a returned expression,
// looking through composite literals (Result{Scores: ws.Eff(n)}).
func (c *checker) checkReturned(fn string, e ast.Expr) {
	if c.aliases(e) {
		c.sup.Reportf(c.pass, e.Pos(), "%s returns a slice aliasing pooled workspace scratch; copy into caller-owned memory, or adopt the *WS naming convention to declare the caller-owns-workspace seam", fn)
		return
	}
	if lit, ok := e.(*ast.CompositeLit); ok {
		for _, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				c.checkReturned(fn, kv.Value)
			} else {
				c.checkReturned(fn, el)
			}
		}
	}
	if u, ok := e.(*ast.UnaryExpr); ok {
		if lit, ok := u.X.(*ast.CompositeLit); ok {
			c.checkReturned(fn, lit)
		}
	}
}

// aliases reports whether the expression's value is a view of
// workspace scratch memory.
func (c *checker) aliases(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		obj := c.pass.TypesInfo.Uses[e]
		if obj == nil {
			obj = c.pass.TypesInfo.Defs[e]
		}
		return obj != nil && c.tainted[obj]
	case *ast.ParenExpr:
		return c.aliases(e.X)
	case *ast.SelectorExpr:
		return c.sliceTyped(e) && (c.isWorkspaceExpr(e.X) || c.aliases(e.X))
	case *ast.SliceExpr:
		return c.aliases(e.X)
	case *ast.IndexExpr:
		return c.sliceTyped(e) && c.aliases(e.X)
	case *ast.CallExpr:
		return c.callAliases(e)
	}
	return false
}

func (c *checker) callAliases(call *ast.CallExpr) bool {
	// append propagates its destination's backing store.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			return b.Name() == "append" && len(call.Args) > 0 && c.aliases(call.Args[0])
		}
	}
	if !c.sliceOfBasic(c.pass.TypesInfo.TypeOf(call)) {
		return false
	}
	// Buffer accessor on a workspace (ws.Eff(n)) or on an already
	// aliasing value.
	callee := ""
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if c.isWorkspaceExpr(sel.X) || c.aliases(sel.X) {
			return true
		}
		callee = sel.Sel.Name
	} else if id, ok := call.Fun.(*ast.Ident); ok {
		callee = id.Name
	}
	// A *WS-named callee handed a workspace (or an aliasing buffer)
	// returns ws-aliasing data by convention.
	wsArg := false
	for _, a := range call.Args {
		if c.isWorkspaceExpr(a) || c.aliases(a) {
			wsArg = true
			break
		}
	}
	if !wsArg {
		return false
	}
	if strings.HasSuffix(callee, "WS") {
		return true
	}
	// Fill-and-return shape: an aliasing buffer of the result's own
	// type goes in (rank.OrderInto(eff, ws.Ord(n))), so the result is
	// (a prefix of) that buffer.
	rt := c.pass.TypesInfo.TypeOf(call)
	for _, a := range call.Args {
		if c.aliases(a) && types.Identical(c.pass.TypesInfo.TypeOf(a), rt) {
			return true
		}
	}
	return false
}

func (c *checker) sliceTyped(e ast.Expr) bool {
	t := c.pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

func (c *checker) sliceOfBasic(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	_, ok = s.Elem().Underlying().(*types.Basic)
	return ok
}
