// Package epslit defines an analyzer that flags raw sub-unity
// scientific-notation literals (1e-10 grid nudges, 4e-3 TTRTs, 5e-6 hop
// latencies) used directly in expressions. Such magic numbers are physical
// quantities or numeric tolerances; each must be a named constant with a
// comment stating its unit, or the same value drifts between packages and
// silently disagrees with itself.
package epslit

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"

	"fafnet/internal/lint"
)

// Analyzer flags raw tolerance/physical-constant literals.
var Analyzer = &lint.Analyzer{
	Name: "epslit",
	Doc: `flag raw scientific-notation literals below 0.1 outside const declarations

Literals such as 1e-10, 4e-3 or 5e-6 written inline are physical constants
(seconds, tolerances) that belong in a named const with a unit comment.
Const declarations are exactly that fix, so literals inside them are not
reported; neither are test files or literals >= 0.1 (scale factors like 1e3
and 1e6 convert units rather than encode physics). The analyzer only checks
packages under fafnet/internal/.`,
	Run: run,
}

// threshold separates physical/tolerance magnitudes from unit-conversion
// scale factors: every flagged constant in this codebase is far below 0.1,
// every conversion factor (1e3 bits/kbit, 1e6) far above.
const threshold = 0.1

func run(pass *lint.Pass) error {
	if !strings.HasPrefix(pass.Pkg.Path(), "fafnet/internal/") {
		return nil
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue // test tolerances are local assertions, not shared physics
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GenDecl:
				if n.Tok == token.CONST {
					return false // naming the value is the fix; done here
				}
			case *ast.BasicLit:
				checkLit(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkLit(pass *lint.Pass, lit *ast.BasicLit) {
	if lit.Kind != token.FLOAT {
		return
	}
	text := strings.ToLower(lit.Value)
	if !strings.Contains(text, "e") {
		return // plain decimals (0.25, 0.5) read as what they are
	}
	v, err := strconv.ParseFloat(lit.Value, 64)
	if err != nil || v <= 0 || v >= threshold {
		return
	}
	pass.Reportf(lit.Pos(), "raw physical literal %s: promote to a named constant with a unit comment", lit.Value)
}
