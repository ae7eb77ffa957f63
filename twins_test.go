package fairrank_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestNoContextFreeTwins keeps one spelling per entry point in the engine
// layers: no receiver (or package) in internal/core, internal/report or
// internal/engine may declare an exported X beside XCtx. The Ctx form is
// the one callers use; a context-free caller passes context.Background().
// internal/rank is left out: ComboRuns.MergeTopKInto beside
// MergeTopKIntoCtx is a documented exception the benchmark harness calls.
func TestNoContextFreeTwins(t *testing.T) {
	for _, dir := range []string{"internal/core", "internal/report", "internal/engine"} {
		names, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(names) == 0 {
			t.Fatalf("no Go files under %s: %v", dir, err)
		}
		fset := token.NewFileSet()
		decls := map[string]bool{} // "Recv.Name", or ".Name" for a function
		for _, name := range names {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					decls[recvName(fd)+"."+fd.Name.Name] = true
				}
			}
		}
		var twins []string
		for key := range decls {
			if base, ok := strings.CutSuffix(key, "Ctx"); ok && decls[base] {
				twins = append(twins, strings.TrimPrefix(base, "."))
			}
		}
		sort.Strings(twins)
		for _, twin := range twins {
			t.Errorf("%s declares both %s and %sCtx; keep only the Ctx form", dir, twin, twin)
		}
	}
}

// recvName is the receiver's type name of a method declaration, or "" for
// a function.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
