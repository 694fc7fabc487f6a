// Package golife implements the goroutine-lifecycle analyzer: every `go`
// statement in non-test code must have a provable stop path. A goroutine
// with no join and no termination signal is a leak — under the signaling
// server's drain semantics it keeps the process alive past Shutdown, and
// under -race it turns every later test in the binary into a suspect.
//
// The proof is deliberately syntactic and cheap. A spawned body counts as
// stoppable when it (or a same-package function it calls, transitively)
// performs any of:
//
//   - a sync.WaitGroup Done call (the spawner joins via Wait)
//   - a channel send or close (a peer observes completion)
//   - a channel receive, including <-ctx.Done() (the body can be told to
//     stop), or a select with a receive or send case
//   - a range over a channel (the loop ends when the producer closes it)
//
// Anything else — an unbounded for/Sleep loop, a fire-and-forget call into
// another package — is reported. Goroutines that are intentionally
// process-lifetime can be waived with
//
//	//lint:allow golife <reason>
//
// on the `go` statement's line; the reason is mandatory, so every leak is
// either joined or justified in-place.
package golife

import (
	"go/ast"
	"go/token"
	"go/types"

	"fafnet/internal/lint"
)

// Analyzer is the goroutine-lifecycle check.
var Analyzer = &lint.Analyzer{
	Name: "golife",
	Doc:  "require a provable stop path (join, channel, or cancellation) for every goroutine",
	Run:  run,
}

func run(pass *lint.Pass) error {
	if !lint.InModule(pass.Pkg.Path()) {
		return nil
	}
	c := &checker{
		pass:     pass,
		decls:    make(map[*types.Func]*ast.FuncDecl),
		evidence: make(map[*types.Func]state),
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				c.decls[fn] = fd
			}
		}
	}
	for _, f := range pass.Files {
		// Test files may leak for the length of one test; the -race chaos
		// suite polices those, not the lifecycle gate.
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			c.check(g)
			return true
		})
	}
	return nil
}

// state is a memo entry for one function's stop-path evidence.
type state int

const (
	unknown state = iota
	visiting
	hasStop
	noStop
)

type checker struct {
	pass     *lint.Pass
	decls    map[*types.Func]*ast.FuncDecl
	evidence map[*types.Func]state
}

// check reports g unless the spawned body has a provable stop path.
func (c *checker) check(g *ast.GoStmt) {
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		if !c.bodyHasStop(fun.Body) {
			c.pass.Report(g.Pos(), "goroutine has no provable stop path (no WaitGroup.Done, channel operation, or cancellation receive); join it, give it a shutdown signal, or waive with //lint:allow golife <reason>")
		}
	default:
		fn := lint.CalleeFunc(c.pass.TypesInfo, g.Call)
		if fn == nil {
			// Spawning an expression we cannot resolve (a stored closure, a
			// method value) — the stop path, if any, is not visible here.
			c.pass.Report(g.Pos(), "goroutine spawns a dynamic function value; its stop path cannot be verified — spawn a named function or func literal, or waive with //lint:allow golife <reason>")
			return
		}
		if _, local := c.decls[fn]; !local {
			c.pass.Reportf(g.Pos(), "goroutine runs %s, which is outside this package; its stop path cannot be verified — wrap it in a func literal that signals completion, or waive with //lint:allow golife <reason>", fn.Name())
			return
		}
		if !c.funcHasStop(fn) {
			c.pass.Reportf(g.Pos(), "goroutine runs %s, which has no provable stop path (no WaitGroup.Done, channel operation, or cancellation receive); join it, give it a shutdown signal, or waive with //lint:allow golife <reason>", fn.Name())
		}
	}
}

// funcHasStop reports whether fn's body (transitively through same-package
// callees) contains stop-path evidence. Recursion through a cycle yields
// no evidence — a pair of functions that only call each other never stops.
func (c *checker) funcHasStop(fn *types.Func) bool {
	switch c.evidence[fn] {
	case hasStop:
		return true
	case noStop, visiting:
		return false
	}
	c.evidence[fn] = visiting
	decl := c.decls[fn]
	ok := decl != nil && c.bodyHasStop(decl.Body)
	if ok {
		c.evidence[fn] = hasStop
	} else {
		c.evidence[fn] = noStop
	}
	return ok
}

// bodyHasStop scans one body for direct evidence, recursing into
// same-package callees. Bodies of nested `go` statements are skipped: a
// grandchild goroutine's channel traffic says nothing about this one.
func (c *checker) bodyHasStop(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			// The nested goroutine is checked on its own; its body is not
			// evidence for the parent. The call's arguments still are.
			for _, arg := range n.Call.Args {
				if exprHasStop(c, arg) {
					found = true
				}
			}
			return false
		case *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := c.pass.TypesInfo.Types[n.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.CallExpr:
			if isClose(c.pass.TypesInfo, n) || isWaitGroupDone(c.pass.TypesInfo, n) {
				found = true
				return false
			}
			if fn := lint.CalleeFunc(c.pass.TypesInfo, n); fn != nil {
				if _, local := c.decls[fn]; local && c.funcHasStop(fn) {
					found = true
					return false
				}
			}
		}
		return !found
	})
	return found
}

// exprHasStop checks a lone expression (a goroutine-call argument) for
// evidence, reusing the body walker.
func exprHasStop(c *checker, e ast.Expr) bool {
	return c.bodyHasStop(&ast.BlockStmt{List: []ast.Stmt{&ast.ExprStmt{X: e}}})
}

// isClose matches the close(ch) builtin.
func isClose(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "close"
}

// isWaitGroupDone matches wg.Done() for a sync.WaitGroup receiver.
func isWaitGroupDone(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "WaitGroup"
}
