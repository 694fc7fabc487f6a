// Package unitcheck defines the analyzer that enforces the dimensional
// conventions of internal/units: every float64 in this repository is seconds,
// bits, or bits-per-second. Dimensions come from names alone
// (internal/lint/dims): an identifier, field, parameter, result or callee
// whose name declares a unit carries it, and everything else is Unknown and
// never reported. Parameter and result names are read off the callee's
// types.Signature, so a call into another package is checked against the
// names its declaration gives, with no per-package fact file.
package unitcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"fafnet/internal/lint"
	"fafnet/internal/lint/dims"
)

// Analyzer flags cross-dimension arithmetic, stores, arguments and returns
// on float64 quantities whose names declare their dimensions.
var Analyzer = &lint.Analyzer{
	Name: "unitcheck",
	Doc: `check dimensional consistency of float64 seconds/bits/bps quantities

Dimensions come from identifier names per the internal/units conventions
(Delay, TTRT, Latency → seconds; *Bits, *Kbit → bits; *Bps, *Rate,
Bandwidth*, *Capacity → bits/second) and propagate through arithmetic. The analyzer
reports additions, subtractions and comparisons between different
dimensions, products and quotients whose result is not a sanctioned
dimension (seconds², rate², bit-seconds), a value of one dimension stored
under a name declaring another, call arguments that contradict the
dimension a parameter's name declares (in this package or another), and
returns that contradict a name-declared result. An operand no name speaks
for is never reported.`,
	Run: run,
}

func run(pass *lint.Pass) error {
	c := checker{pass: pass, info: pass.TypesInfo}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				c.checkBinary(n)
			case *ast.CallExpr:
				c.checkCall(n)
			case *ast.AssignStmt, *ast.ValueSpec, *ast.CompositeLit:
				forEachStore(n, c.checkStore)
			case *ast.FuncDecl:
				c.checkReturns(n)
			}
			return true
		})
	}
	return nil
}

type checker struct {
	pass *lint.Pass
	info *types.Info
}

func (c checker) dim(x ast.Expr) (dims.Dim, bool) {
	d, k := dims.OfExpr(c.info, x)
	return d, k == dims.Physical
}

// checkBinary reports cross-dimension addition, subtraction and comparison,
// and products or quotients that leave the sanctioned dimensions.
func (c checker) checkBinary(b *ast.BinaryExpr) {
	switch b.Op {
	case token.ADD, token.SUB,
		token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		ld, lok := c.dim(b.X)
		rd, rok := c.dim(b.Y)
		if lok && rok && ld != rd {
			c.pass.Reportf(b.OpPos, "cross-dimension %s: %s %s %s", describeOp(b.Op), ld, b.Op, rd)
		}
	case token.MUL, token.QUO:
		if d, ok := c.dim(b); ok && !d.Recognized() {
			c.pass.Reportf(b.OpPos, "suspicious product dimension %s (operands %s and %s)", d, c.operand(b.X), c.operand(b.Y))
		}
	}
}

func describeOp(op token.Token) string {
	switch op {
	case token.ADD:
		return "addition"
	case token.SUB:
		return "subtraction"
	default:
		return "comparison"
	}
}

func (c checker) operand(x ast.Expr) string {
	if d, ok := c.dim(x); ok {
		return d.String()
	}
	return "dimensionless"
}

// checkCall reports arguments whose dimension contradicts the one the
// callee's parameter name declares.
func (c checker) checkCall(call *ast.CallExpr) {
	fn := lint.CalleeFunc(c.info, call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Variadic() || sig.Params().Len() != len(call.Args) {
		return // variadic tails (Printf's) carry no per-param names
	}
	for i, arg := range call.Args {
		name := sig.Params().At(i).Name()
		pd, ok := dims.FromName(name)
		if !ok {
			continue
		}
		if ad, ok := c.dim(arg); ok && ad != pd {
			c.pass.Reportf(arg.Pos(), "argument is %s but parameter %q of %s wants %s", ad, name, fn.Name(), pd)
		}
	}
}

// checkStore reports a value of one dimension stored under a name that
// declares another.
func (c checker) checkStore(dst, src ast.Expr) {
	name, ok := storeName(dst)
	if !ok {
		return
	}
	dd, ok := dims.FromName(name)
	if !ok {
		return
	}
	if sd, ok := c.dim(src); ok && sd != dd {
		c.pass.Reportf(src.Pos(), "%s value stored in %q, which is declared %s by name", sd, name, dd)
	}
}

// storeName names the variable or field a store writes.
func storeName(dst ast.Expr) (string, bool) {
	switch dst := dst.(type) {
	case *ast.Ident:
		return dst.Name, true
	case *ast.SelectorExpr:
		return dst.Sel.Name, true
	}
	return "", false
}

// forEachStore visits the (destination, value) pairs of an assignment, a
// var declaration or a keyed composite literal.
func forEachStore(n ast.Node, fn func(dst, src ast.Expr)) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Lhs) == len(n.Rhs) {
			for i := range n.Lhs {
				fn(n.Lhs[i], n.Rhs[i])
			}
		}
	case *ast.ValueSpec:
		if len(n.Names) == len(n.Values) {
			for i := range n.Names {
				fn(n.Names[i], n.Values[i])
			}
		}
	case *ast.CompositeLit:
		for _, elt := range n.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				fn(kv.Key, kv.Value)
			}
		}
	}
}

// checkReturns reports return expressions whose dimension contradicts the
// function's name-declared result: a float result's own name, or, for a
// single result, the function's name (LongTermRate, WalkDelay).
func (c checker) checkReturns(decl *ast.FuncDecl) {
	fn, ok := c.info.Defs[decl.Name].(*types.Func)
	if !ok || decl.Body == nil {
		return
	}
	results := fn.Type().(*types.Signature).Results()
	want := make([]*dims.Dim, results.Len())
	for i := range want {
		r := results.At(i)
		if !dims.IsFloat(r.Type()) {
			continue
		}
		if d, ok := dims.FromName(r.Name()); ok {
			want[i] = &d
		} else if d, ok := dims.FromName(fn.Name()); ok && results.Len() == 1 {
			want[i] = &d
		}
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // its returns answer a different signature
		case *ast.ReturnStmt:
			if len(n.Results) != len(want) {
				return true
			}
			for i, res := range n.Results {
				if want[i] == nil {
					continue
				}
				if rd, ok := c.dim(res); ok && rd != *want[i] {
					c.pass.Reportf(res.Pos(), "%s returns %s but its result is declared %s", fn.Name(), rd, *want[i])
				}
			}
		}
		return true
	})
}
