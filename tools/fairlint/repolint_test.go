package main

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoLintsClean builds the fairlint binary and runs it over the
// whole repository through go vet, asserting zero diagnostics: every
// violation introduced by a PR is either fixed or carries a justified
// //fairlint:allow directive before it can merge.
func TestRepoLintsClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skipf("repository root not found at %s: %v", root, err)
	}
	trackModuleSources(t, root)
	bin := filepath.Join(t.TempDir(), "fairlint")
	build := exec.Command("go", "build", "-o", bin, ".")
	out, err := build.CombinedOutput()
	if err != nil {
		t.Fatalf("building fairlint: %v\n%s", err, out)
	}
	vet := exec.Command("go", "vet", "-vettool="+bin, "./...")
	vet.Dir = root
	out, err = vet.CombinedOutput()
	if err != nil {
		t.Errorf("fairlint reports diagnostics on the repository:\n%s", out)
	}
}

// trackModuleSources stats every file go vet reads from the module at
// root, and every directory holding them: its go.mod and the .go files of
// the packages ./... matches. The exec'd vet reads them in another
// process, which go test's result cache does not see; files this process
// stats are part of the cache key, so an edit to any of them (or a file
// added to or removed from one of the directories) re-runs the test.
//
// go test rechecks only inputs whose path lies lexically under the test's
// own module root (this directory), so each path is spelled from here,
// as ../../<path in the root module>, uncleaned.
func trackModuleSources(t *testing.T, root string) {
	t.Helper()
	here, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	up, err := filepath.Rel(here, root)
	if err != nil {
		t.Fatal(err)
	}
	track := func(path string) error {
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		_, err = os.Stat(here + string(filepath.Separator) + filepath.Join(up, rel))
		return err
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root {
				// ./... skips these directories and nested modules.
				if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			return track(path)
		}
		if strings.HasSuffix(name, ".go") || path == filepath.Join(root, "go.mod") {
			return track(path)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("listing the module's sources: %v", err)
	}
}
