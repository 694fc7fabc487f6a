package fafnet_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"fafnet/internal/obs"

	// Blank imports pull in every package that registers metrics with
	// obs.Default, so the test can check OPERATIONS.md's catalog against the
	// live registry in both directions. The list itself is checked against
	// the source tree (registrars).
	_ "fafnet/internal/atm"
	_ "fafnet/internal/core"
	_ "fafnet/internal/fddi"
	_ "fafnet/internal/signaling"
)

const obsPath = "fafnet/internal/obs"

// registrars returns the import paths of the packages whose non-test source
// registers a metric on obs.Default.
func registrars(t *testing.T) map[string]bool {
	t.Helper()
	out := make(map[string]bool)
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "fafnet"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		if registersOnDefault(f, pkg == obsPath) {
			out[pkg] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// registersOnDefault reports whether f calls Counter, Gauge or Histogram on
// obs.Default (on Default itself when f is in package obs).
func registersOnDefault(f *ast.File, inObs bool) bool {
	obsName := ""
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == obsPath {
			obsName = "obs"
			if imp.Name != nil {
				obsName = imp.Name.Name
			}
		}
	}
	isIdent := func(e ast.Expr, name string) bool {
		id, ok := e.(*ast.Ident)
		return ok && name != "" && id.Name == name
	}
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Counter" && sel.Sel.Name != "Gauge" && sel.Sel.Name != "Histogram") {
			return true
		}
		if inObs {
			found = isIdent(sel.X, "Default")
		} else if recv, ok := sel.X.(*ast.SelectorExpr); ok {
			found = recv.Sel.Name == "Default" && isIdent(recv.X, obsName)
		}
		return !found
	})
	return found
}

// checkImportsRegistrars keeps this file's imports equal to the packages
// that register metrics: a registering package left out would leave its
// families out of the catalog check, and a blank import of a package that
// registers nothing is dead weight.
func checkImportsRegistrars(t *testing.T) {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "operations_catalog_test.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	imported := make(map[string]bool)
	blank := make(map[string]bool)
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		imported[path] = true
		if imp.Name != nil && imp.Name.Name == "_" {
			blank[path] = true
		}
	}
	regs := registrars(t)
	if len(regs) == 0 {
		t.Fatal("no package registers on obs.Default — is the scan looking at the module root?")
	}
	for _, pkg := range sortedKeys(regs) {
		if !imported[pkg] {
			t.Errorf("package %s registers metrics on obs.Default but operations_catalog_test.go does not import it", pkg)
		}
	}
	for _, pkg := range sortedKeys(blank) {
		if !regs[pkg] {
			t.Errorf("operations_catalog_test.go blank-imports %s, which registers no metric on obs.Default", pkg)
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// metricToken matches a metric name wherever OPERATIONS.md mentions one,
// including exposition-level forms like fafnet_cac_decide_seconds_bucket.
var metricToken = regexp.MustCompile(`fafnet_[a-z0-9_]+`)

// normalize strips the histogram exposition suffixes so documented
// _bucket/_sum/_count mentions map back to their registered family.
func normalize(name string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		name = strings.TrimSuffix(name, suffix)
	}
	return name
}

// TestOperationsCatalogMatchesRegistry fails when OPERATIONS.md and the
// metric registry drift apart: every registered metric must be documented,
// and every documented fafnet_* name must exist. Renaming or adding a
// metric therefore forces the operator docs to follow, and a package that
// starts registering must be imported here first.
func TestOperationsCatalogMatchesRegistry(t *testing.T) {
	checkImportsRegistrars(t)
	doc, err := os.ReadFile("OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := make(map[string]bool)
	for _, tok := range metricToken.FindAllString(string(doc), -1) {
		documented[normalize(tok)] = true
	}

	registered := make(map[string]bool)
	for _, name := range obs.Default.Names() {
		registered[name] = true
	}
	if len(registered) == 0 {
		t.Fatal("no metrics registered — are the instrumented packages imported?")
	}

	var missing, stale []string
	for name := range registered {
		if !documented[name] {
			missing = append(missing, name)
		}
	}
	for name := range documented {
		if !registered[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, name := range missing {
		t.Errorf("metric %s is registered but missing from OPERATIONS.md", name)
	}
	for _, name := range stale {
		t.Errorf("OPERATIONS.md documents %s, which no package registers", name)
	}
}
