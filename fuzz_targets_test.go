package fafnet_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// makefileFuzzTargets returns the entries of the Makefile's FUZZ_TARGETS
// list, "./pkg/dir:FuzzName" each, in the order written.
func makefileFuzzTargets(t *testing.T) []string {
	t.Helper()
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	var targets []string
	in := false
	for _, line := range strings.Split(string(mk), "\n") {
		line = strings.TrimSpace(line)
		if !in {
			name, _, ok := strings.Cut(line, ":=")
			if !ok || strings.TrimSpace(name) != "FUZZ_TARGETS" {
				continue
			}
			in = true
			line = line[strings.Index(line, ":=")+2:]
		}
		more := strings.HasSuffix(line, `\`)
		targets = append(targets, strings.Fields(strings.TrimSuffix(line, `\`))...)
		if !more {
			break
		}
	}
	if !in {
		t.Fatal("the Makefile defines no FUZZ_TARGETS")
	}
	return targets
}

// treeFuzzTargets returns every native fuzz target declared in the tree's
// test files, as "./pkg/dir:FuzzName": a top-level func named Fuzz… that takes
// one *testing.F. testdata directories and dot-directories are skipped.
func treeFuzzTargets(t *testing.T) []string {
	t.Helper()
	var targets []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "Fuzz") || !takesFuzzF(fn) {
				continue
			}
			targets = append(targets, "./"+filepath.ToSlash(filepath.Dir(path))+":"+fn.Name.Name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return targets
}

// takesFuzzF reports whether fn's one parameter is a *testing.F.
func takesFuzzF(fn *ast.FuncDecl) bool {
	params := fn.Type.Params.List
	if len(params) != 1 || len(params[0].Names) > 1 {
		return false
	}
	star, ok := params[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	sel, ok := star.X.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "testing" && sel.Sel.Name == "F"
}

// TestFuzzTargetsListed fails when the Makefile's FUZZ_TARGETS and the tree's
// fuzz targets drift apart, in either direction and package by package: a
// target left off the list gets no mutation in `make fuzz-smoke`, and a
// listed one that no longer exists fails that run.
func TestFuzzTargetsListed(t *testing.T) {
	listed := makefileFuzzTargets(t)
	declared := treeFuzzTargets(t)
	if len(declared) == 0 {
		t.Fatal("found no fuzz targets in the tree: the walk reads nothing")
	}
	inList := make(map[string]int)
	for _, target := range listed {
		inList[target]++
	}
	inTree := make(map[string]bool)
	for _, target := range declared {
		inTree[target] = true
	}
	var missing, stale, twice []string
	for _, target := range declared {
		if inList[target] == 0 {
			missing = append(missing, target)
		}
	}
	for target, n := range inList {
		if !inTree[target] {
			stale = append(stale, target)
		}
		if n > 1 {
			twice = append(twice, target)
		}
	}
	sort.Strings(stale)
	sort.Strings(twice)
	if len(missing) > 0 {
		t.Errorf("fuzz targets missing from the Makefile's FUZZ_TARGETS: %v", missing)
	}
	if len(stale) > 0 {
		t.Errorf("FUZZ_TARGETS entries with no such fuzz target in the tree: %v", stale)
	}
	if len(twice) > 0 {
		t.Errorf("FUZZ_TARGETS entries listed more than once: %v", twice)
	}
}
