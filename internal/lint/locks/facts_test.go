package locks_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"

	"fafnet/internal/lint"
	"fafnet/internal/lint/facts"
	"fafnet/internal/lint/locks"
)

// funcFact mirrors the exported per-function summary.
type funcFact struct {
	Locks  bool `json:"locks,omitempty"`
	Blocks bool `json:"blocks,omitempty"`
}

// guardFact mirrors the exported field annotation.
type guardFact struct {
	Guard string `json:"guard"`
}

// checkDir typechecks the sources in dir as pkgPath — resolving module
// imports from deps — and runs locks with the given imported fact files.
func checkDir(t *testing.T, dir, pkgPath string, deps map[string]*types.Package, imported map[string]facts.File) ([]lint.Diagnostic, facts.File, *types.Package) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no sources under %s: %v", dir, err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, path := range matches {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		files = append(files, f)
	}
	std := importer.ForCompiler(fset, "source", nil)
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if p, ok := deps[path]; ok {
				return p, nil
			}
			return std.Import(path)
		}),
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		t.Fatalf("typecheck %s: %v", dir, err)
	}
	diags, exported, err := lint.Run(fset, files, pkg, info, []*lint.Analyzer{locks.Analyzer}, imported)
	if err != nil {
		t.Fatal(err)
	}
	return diags, exported, pkg
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// TestCrossPackageFacts drives the facts protocol end to end: package a
// exports locking, blocking and guard facts; package b, which sees a only
// through them, is flagged for nesting a's lock inside its own, blocking
// under its lock, and reading a's guarded field without a's lock.
func TestCrossPackageFacts(t *testing.T) {
	const aPath = "fafnet/internal/afake"
	const bPath = "fafnet/internal/bfake"

	aDiags, aFacts, aPkg := checkDir(t, "testdata/facts/a", aPath, nil, nil)
	if len(aDiags) != 0 {
		t.Fatalf("package a should be clean, got %v", aDiags)
	}
	for key, want := range map[string]funcFact{
		"Grab":      {Locks: true},
		"Park":      {Blocks: true},
		"Box.Touch": {Locks: true}, // keyed by the declaring type, not its alias
	} {
		var got funcFact
		if !aFacts.Get("locks", key, &got) {
			t.Errorf("no exported fact for %s", key)
		} else if got != want {
			t.Errorf("%s fact = %+v, want %+v", key, got, want)
		}
	}
	var guard guardFact
	if !aFacts.Get("locks", "Table.Rows", &guard) || guard.Guard != "Mu" {
		t.Errorf("Table.Rows guard fact = %+v, want guard Mu", guard)
	}

	bDiags, bFacts, _ := checkDir(t, "testdata/facts/b", bPath,
		map[string]*types.Package{aPath: aPkg},
		map[string]facts.File{aPath: aFacts})

	want := []string{
		"call to a.Grab acquires a mutex while mu is held",
		"call to a.Park may block while mu is held",
		"call to a.Grab acquires a mutex while a.M is held",
		"t.Rows accessed without holding Mu",
	}
	if len(bDiags) != len(want) {
		t.Errorf("got %d diagnostics, want %d: %v", len(bDiags), len(want), bDiags)
	}
	for _, w := range want {
		found := false
		for _, d := range bDiags {
			if strings.Contains(d.Message, w) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing diagnostic containing %q in %v", w, bDiags)
		}
	}

	var underLock funcFact
	if !bFacts.Get("locks", "UnderLock", &underLock) || underLock != (funcFact{Locks: true, Blocks: true}) {
		t.Errorf("UnderLock fact = %+v, want locks and blocks (its own mu, and Park's)", underLock)
	}
}
