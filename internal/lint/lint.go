// Package lint is a small, dependency-free static-analysis framework modeled
// on golang.org/x/tools/go/analysis. It exists because this repository's
// correctness rests on unit conventions (float64 seconds, bits, bits/second —
// see internal/units) that the Go type system cannot express; the analyzers
// built on this framework (cmd/fafvet) enforce them mechanically.
//
// The API mirrors go/analysis closely — Analyzer, Pass, Diagnostic — so the
// analyzers can migrate to the upstream framework verbatim if the dependency
// ever becomes available. The framework adds one repo-specific feature:
// findings can be suppressed with a justification comment,
//
//	//lint:allow <analyzer> <reason>
//
// placed on the offending line or the line immediately above it. An allow
// comment without a reason does not suppress anything (and is itself
// reported), so every suppression is self-documenting.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"fafnet/internal/lint/facts"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name is the analyzer identifier used in diagnostics, enable flags and
	// //lint:allow comments. It must look like a Go identifier.
	Name string
	// Doc is the help text; the first line is the summary.
	Doc string
	// Run applies the check to one package and reports findings via
	// Pass.Report/Reportf.
	Run func(*Pass) error
	// ExportsFacts marks analyzers that publish per-package facts
	// (Pass.ExportFact) for downstream packages. Only these analyzers run
	// during facts-only passes over dependency packages (Config.VetxOnly).
	ExportsFacts bool
	// FactTypes names the fact shapes the analyzer exports (the Go type
	// names of its fact payloads), for the -analyzers machine-readable
	// listing. Empty for analyzers that export no facts.
	FactTypes []string
}

// Pass carries one package's syntax and type information to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags    *[]Diagnostic
	imported map[string]facts.File
	exported facts.File
}

// ExportFact publishes a fact under the running analyzer's name for
// downstream packages to import. Keys are analyzer-defined object paths
// ("Func", "Type.Method", "Type.Field").
func (p *Pass) ExportFact(key string, v any) error {
	return p.exported.Set(p.Analyzer.Name, key, v)
}

// ImportFact decodes into out the fact the running analyzer exported for
// pkgPath under key, reporting whether it exists. Packages with no fact file
// (not yet vetted, or outside the module) simply yield no facts.
func (p *Pass) ImportFact(pkgPath, key string, out any) bool {
	f, ok := p.imported[pkgPath]
	if !ok {
		return false
	}
	return f.Get(p.Analyzer.Name, key, out)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, message string) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  message,
	})
}

// Reportf records a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, fmt.Sprintf(format, args...))
}

// InTestFile reports whether pos lies in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// allowKey identifies one suppressed (file line, analyzer) pair.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// directive is one well-formed //lint:allow comment, tracked so unused
// suppressions can be reported instead of silently accumulating.
type directive struct {
	pos      token.Position
	analyzer string
	used     bool
}

// AllowPrefix introduces a suppression comment.
const AllowPrefix = "//lint:allow"

// collectAllows scans the files' comments for //lint:allow directives. A
// directive suppresses the named analyzer on its own line and on the line
// below it (so it can trail the offending expression or sit above it).
// Malformed directives — missing analyzer or missing reason — are returned as
// diagnostics instead, so they cannot silently disable a check.
func collectAllows(fset *token.FileSet, files []*ast.File) (map[allowKey][]*directive, []Diagnostic) {
	allows := make(map[allowKey][]*directive)
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, AllowPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, AllowPrefix)
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Analyzer: "lint",
						Pos:      fset.Position(c.Pos()),
						Message:  "malformed //lint:allow: want \"//lint:allow <analyzer> <reason>\"",
					})
					continue
				}
				pos := fset.Position(c.Pos())
				d := &directive{pos: pos, analyzer: fields[0]}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					key := allowKey{pos.Filename, line, fields[0]}
					allows[key] = append(allows[key], d)
				}
			}
		}
	}
	return allows, bad
}

// RunAnalyzers applies every analyzer to one type-checked package and returns
// the surviving diagnostics, sorted deterministically. Findings matched by a
// well-formed //lint:allow comment are dropped; see Run for the full
// contract including facts.
func RunAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := Run(fset, files, pkg, info, analyzers, nil)
	return diags, err
}

// Run applies every analyzer to one type-checked package. imported maps
// dependency import paths to their decoded fact files; the returned File
// holds the facts the analyzers exported for this package.
//
// Suppression: findings matched by a well-formed //lint:allow comment are
// dropped, and any directive that suppressed nothing — for an analyzer that
// actually ran — is itself reported, so stale annotations cannot accumulate
// as the code under them evolves.
//
// Diagnostics are sorted by (file, line, column, analyzer, message) so
// emission order is stable across runs regardless of analyzer iteration or
// map ordering — golden tests and CI diffs depend on this.
func Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer, imported map[string]facts.File) ([]Diagnostic, facts.File, error) {
	var diags []Diagnostic
	exported := facts.File{}
	ran := make(map[string]bool)
	for _, a := range analyzers {
		ran[a.Name] = true
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			diags:     &diags,
			imported:  imported,
			exported:  exported,
		}
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}
	allows, bad := collectAllows(fset, files)
	kept := bad
	for _, d := range diags {
		if ds := allows[allowKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}]; len(ds) > 0 {
			for _, dir := range ds {
				dir.used = true
			}
			continue
		}
		kept = append(kept, d)
	}
	// Report each unused directive once (it is indexed under two line keys).
	// A directive for an analyzer that did not run (disabled on the command
	// line) is left alone: its finding may reappear the moment the analyzer
	// is re-enabled.
	seen := make(map[*directive]bool)
	for _, ds := range allows {
		for _, dir := range ds {
			if dir.used || seen[dir] || !ran[dir.analyzer] {
				continue
			}
			seen[dir] = true
			kept = append(kept, Diagnostic{
				Analyzer: "lint",
				Pos:      dir.pos,
				Message:  fmt.Sprintf("unused //lint:allow %s: no %s finding on this line or the next; delete the stale suppression", dir.analyzer, dir.analyzer),
			})
		}
	}
	SortDiagnostics(kept)
	return kept, exported, nil
}

// FieldOwner finds the package-scope named struct type declaring field v, or
// nil. An alias shares its target's fields without declaring them, so it is
// never the owner: locks, guards and access facts are named after the one
// type that spells the field out.
func FieldOwner(pkg *types.Package, v *types.Var) *types.TypeName {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == v {
				return tn
			}
		}
	}
	return nil
}

// CalleeFunc resolves a call to the invoked *types.Func, or nil for dynamic
// calls (function-typed variables, stored closures) and conversions.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// ResolveVar identifies the variable or field object behind an expression
// (mu, s.mu, a.b.mu), or nil.
func ResolveVar(info *types.Info, x ast.Expr) *types.Var {
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		v, _ := info.Uses[x].(*types.Var)
		return v
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok {
			v, _ := sel.Obj().(*types.Var)
			return v
		}
		// Qualified package-level variable (pkg.Var).
		v, _ := info.Uses[x.Sel].(*types.Var)
		return v
	}
	return nil
}

// SortDiagnostics orders diagnostics by (file, line, column, analyzer,
// message) — the canonical emission order for every fafvet output format.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i].Pos, ds[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if ds[i].Analyzer != ds[j].Analyzer {
			return ds[i].Analyzer < ds[j].Analyzer
		}
		return ds[i].Message < ds[j].Message
	})
}
