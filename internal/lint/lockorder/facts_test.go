package lockorder_test

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
	"fafnet/internal/lint/lockorder"
)

// edgeFact mirrors lockorder's exported edge shape for assertions.
type edgeFact struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// funcFact mirrors lockorder's exported per-function summary.
type funcFact struct {
	Acquires []string `json:"acquires,omitempty"`
	Blocks   bool     `json:"blocks,omitempty"`
}

// checkDir typechecks the sources in dir as pkgPath — resolving module
// imports from deps — and runs lockorder with the given imported fact files.
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
	diags, exported, err := lint.Run(fset, files, pkg, info, []*lint.Analyzer{lockorder.Analyzer}, imported)
	if err != nil {
		t.Fatal(err)
	}
	return diags, exported, pkg
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// TestCrossPackageFacts drives the facts protocol end to end: package a
// exports acquisition/blocking summaries, package b consumes them, records
// cross-package edges, and completes a cycle against an edge imported from
// a's fact file.
func TestCrossPackageFacts(t *testing.T) {
	const aPath = "fafnet/internal/afake"
	const bPath = "fafnet/internal/bfake"

	aDiags, aFacts, aPkg := checkDir(t, "testdata/facts/a", aPath, nil, nil)
	if len(aDiags) != 0 {
		t.Fatalf("package a should be clean, got %v", aDiags)
	}
	var grab funcFact
	if !aFacts.Get("lockorder", "Grab", &grab) {
		t.Fatal("no exported fact for Grab")
	}
	if len(grab.Acquires) != 1 || grab.Acquires[0] != "afake.M" || grab.Blocks {
		t.Errorf("Grab fact = %+v, want acquires [afake.M], no blocking", grab)
	}
	var park funcFact
	if !aFacts.Get("lockorder", "Park", &park) {
		t.Fatal("no exported fact for Park")
	}
	if !park.Blocks {
		t.Errorf("Park fact = %+v, want blocks", park)
	}

	var touch funcFact
	if !aFacts.Get("lockorder", "Box.Touch", &touch) {
		t.Fatal("no exported fact for Box.Touch")
	}
	if len(touch.Acquires) != 1 || touch.Acquires[0] != "afake.Box.mu" {
		t.Errorf("Box.Touch fact = %+v, want acquires [afake.Box.mu] (named after the declaring type, not its alias)", touch)
	}

	// Plant the reverse edge in a's fact file, as if some package a depends
	// on had already established M-before-mu; b's local mu-before-M edge
	// must then close the cycle.
	if err := aFacts.Set("lockorder", "edges", []edgeFact{{From: "afake.M", To: "bfake.mu"}}); err != nil {
		t.Fatal(err)
	}

	bDiags, bFacts, _ := checkDir(t, "testdata/facts/b", bPath,
		map[string]*types.Package{aPath: aPkg},
		map[string]facts.File{aPath: aFacts})

	wantSubstrings := []string{
		"call to a.Park may block while mu is held",
		"call to a.Grab (re)acquires a.M, which is already held",
		"opposite order is established in a dependency package (afake.M -> bfake.mu)",
	}
	for _, want := range wantSubstrings {
		found := false
		for _, d := range bDiags {
			if strings.Contains(d.Message, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing diagnostic containing %q in %v", want, bDiags)
		}
	}

	var edges []edgeFact
	if !bFacts.Get("lockorder", "edges", &edges) {
		t.Fatal("package b exported no edge fact")
	}
	want := map[edgeFact]bool{
		{From: "bfake.mu", To: "afake.M"}: true, // recorded locally
		{From: "afake.M", To: "bfake.mu"}: true, // inherited from a
	}
	for _, e := range edges {
		delete(want, e)
	}
	if len(want) != 0 {
		t.Errorf("package b's edge fact %v is missing %v", edges, want)
	}

	var underLock funcFact
	if !bFacts.Get("lockorder", "UnderLock", &underLock) {
		t.Fatal("no exported fact for UnderLock")
	}
	if !underLock.Blocks {
		t.Errorf("UnderLock fact = %+v, want blocks (inherited from Park)", underLock)
	}
	got := strings.Join(underLock.Acquires, ",")
	if !strings.Contains(got, "afake.M") || !strings.Contains(got, "bfake.mu") {
		t.Errorf("UnderLock acquires = %v, want both afake.M and bfake.mu", underLock.Acquires)
	}
}
