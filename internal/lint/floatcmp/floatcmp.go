// Package floatcmp defines an analyzer that flags exact ==, <= and >=
// comparisons between computed physical float64 quantities. Worst-case
// delays, backlogs and rates come out of iterated floating-point extremum
// searches; comparing them exactly makes admission decisions depend on
// rounding noise. The units package provides AlmostEq, AlmostLE, AlmostGE and
// WithinRel for these comparisons.
package floatcmp

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"fafnet/internal/lint"
	"fafnet/internal/lint/dims"
)

// Analyzer flags exact comparisons between physical float64 quantities.
var Analyzer = &lint.Analyzer{
	Name: "floatcmp",
	Doc: `flag exact ==/<=/>= between computed physical float64 quantities

A comparison is reported when both operands are non-constant floats, at least
one side carries an inferred physical dimension (seconds, bits, bps — see
internal/lint/dims), and the comparison is not already tolerance-adjusted.
Use units.AlmostEq / units.AlmostLE / units.AlmostGE / units.WithinRel
instead. Comparisons against constants, strict < / > ordering tests, and for
loop conditions are not reported.`,
	Run: run,
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue // tests assert on fixed scenarios; exactness is intended
		}
		forConds := make(map[ast.Expr]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ForStmt:
				// A loop guard bounds iteration count; an off-by-one-ulp
				// stop is harmless where an off-by-one-ulp decision is not.
				if n.Cond != nil {
					forConds[n.Cond] = true
				}
			case *ast.BinaryExpr:
				if forConds[n] {
					return true
				}
				checkCmp(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkCmp(pass *lint.Pass, e *ast.BinaryExpr) {
	var suggest string
	switch e.Op {
	case token.EQL:
		suggest = "units.AlmostEq"
	case token.LEQ:
		suggest = "units.AlmostLE"
	case token.GEQ:
		suggest = "units.AlmostGE"
	default:
		return
	}
	info := pass.TypesInfo
	lt, rt := info.Types[e.X], info.Types[e.Y]
	if !isFloat(lt.Type) || !isFloat(rt.Type) {
		return
	}
	if lt.Value != nil || rt.Value != nil {
		return // comparisons against constants (0, named bounds) are fine
	}
	ld, lk := dims.OfExpr(info, e.X)
	rd, rk := dims.OfExpr(info, e.Y)
	if lk != dims.Physical && rk != dims.Physical {
		return
	}
	if toleranceAdjusted(e.X) || toleranceAdjusted(e.Y) {
		return
	}
	dim := ld
	if lk != dims.Physical {
		dim = rd
	}
	pass.Reportf(e.OpPos, "exact %s between %s quantities; use %s", e.Op, dim, suggest)
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// toleranceSuffixes mark identifiers that name a tolerance or deliberate
// offset (units.Eps, units.RelTol, a local slack or nudge).
var toleranceSuffixes = []string{"Eps", "Tol", "Slack", "Tiny", "Tolerance", "Nudge"}

func isToleranceName(name string) bool {
	for _, suf := range toleranceSuffixes {
		if name == strings.ToLower(suf) || strings.HasSuffix(name, suf) {
			return true
		}
	}
	return false
}

// toleranceAdjusted reports whether the expression mentions a tolerance
// identifier, meaning the comparison already accounts for floating-point
// noise.
func toleranceAdjusted(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && isToleranceName(id.Name) {
			found = true
		}
		return !found
	})
	return found
}
