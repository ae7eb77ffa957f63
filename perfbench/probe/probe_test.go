package probe

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestImportsNoProgramCode pins the probe's independence: a probe that
// called program code could be moved by the very change it is meant to
// calibrate.
func TestImportsNoProgramCode(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "fairrank" || strings.HasPrefix(path, "fairrank/") {
				t.Errorf("%s imports %s; the probe must use the standard library only", name, path)
			}
			if strings.Contains(path, ".") {
				t.Errorf("%s imports non-stdlib package %s", name, path)
			}
		}
	}
}

func TestRunAllocatesNothing(t *testing.T) {
	k := New(1)
	buf := make([]time.Duration, 0, 3)
	if a := testing.AllocsPerRun(5, func() { k.Sample(3, buf) }); a != 0 {
		t.Fatalf("probe allocates %v times per sample, want 0", a)
	}
}

func TestRunSorts(t *testing.T) {
	k := New(7)
	k.Run()
	for i := 1; i < len(k.work); i++ {
		if k.work[i-1] > k.work[i] {
			t.Fatalf("work[%d]=%v > work[%d]=%v", i-1, k.work[i-1], i, k.work[i])
		}
	}
	if k.src[0] == k.work[0] && k.src[1] == k.work[1] && k.src[2] == k.work[2] {
		t.Fatal("source array was sorted in place; the next run would sort sorted data")
	}
}
