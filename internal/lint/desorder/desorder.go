// Package desorder defines an analyzer that keeps discrete-event simulation
// callbacks deterministic. The des kernel replays a run bit-exactly from a
// seed only if every event handler is a pure function of scheduler state:
// a goroutine spawned inside a handler, a channel handoff, a wall-clock
// sleep, or a write to a package-level variable makes event outcomes depend
// on OS scheduling and process history, silently invalidating the
// paired-seed AP-vs-β comparisons the evaluation rests on.
package desorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"fafnet/internal/lint"
)

// Analyzer forbids nondeterministic constructs inside DES event handlers.
var Analyzer = &lint.Analyzer{
	Name: "desorder",
	Doc: `forbid goroutines, channel ops, sleeps and global writes in DES event handlers

Inside every package that schedules events (internal/des, sim, packetsim,
tokenring, atm, fddi, ifdev, shaper), any function scheduled as an event
callback — passed to Schedule/After directly, through a local closure
variable, or through a func-typed struct field bound at construction — must
mutate simulator state only through scheduler-owned structures. The
analyzer reports go statements, channel sends/receives, select statements,
ranges over channels, time.Sleep/After/Tick/Timer/Ticker calls, and
assignments to package-level variables, anywhere inside a handler body
(including nested literals).`,
	Run: run,
}

// scopes are the package-path prefixes the determinism rule covers.
var scopes = []string{
	"fafnet/internal/des",
	"fafnet/internal/sim",
	"fafnet/internal/packetsim",
	"fafnet/internal/tokenring",
	"fafnet/internal/atm",
	"fafnet/internal/fddi",
	"fafnet/internal/ifdev",
	"fafnet/internal/shaper",
}

// schedulerEntry names the methods/functions whose function-typed arguments
// become event handlers.
var schedulerEntry = map[string]bool{
	"Schedule": true,
	"After":    true,
}

// bannedTime are time-package functions that smuggle wall-clock waits or
// timers into simulated time.
var bannedTime = map[string]bool{
	"Sleep": true, "After": true, "Tick": true,
	"NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

func run(pass *lint.Pass) error {
	p := pass.Pkg.Path()
	inScope := false
	for _, s := range scopes {
		if p == s || strings.HasPrefix(p, s+"/") {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}

	c := &checker{pass: pass}
	c.collectDefinitions()
	c.collectHandlers()
	c.checkHandlers()
	return nil
}

type checker struct {
	pass *lint.Pass

	// funcDecls maps declared functions to their bodies; closureLits maps
	// local function variables to every literal assigned to them — both are
	// how a named handler (`tick`, `period`) resolves to code. fieldValues
	// maps a func-typed struct field to every expression stored in it (a
	// method value, a literal, a function name), which is how a handler
	// bound at construction (`p.sim.Schedule(t, p.txDone)`) resolves.
	funcDecls   map[*types.Func]*ast.BlockStmt
	closureLits map[types.Object][]*ast.FuncLit
	fieldValues map[*types.Var][]ast.Expr
	fieldsDone  map[*types.Var]bool

	// handlers are the distinct event-handler bodies to inspect.
	handlers []*ast.BlockStmt
	seen     map[*ast.BlockStmt]bool
}

func (c *checker) collectDefinitions() {
	c.funcDecls = make(map[*types.Func]*ast.BlockStmt)
	c.closureLits = make(map[types.Object][]*ast.FuncLit)
	c.fieldValues = make(map[*types.Var][]ast.Expr)
	c.fieldsDone = make(map[*types.Var]bool)
	for _, f := range c.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if fn, ok := c.pass.TypesInfo.Defs[n.Name].(*types.Func); ok && n.Body != nil {
					c.funcDecls[fn] = n.Body
				}
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							c.recordField(c.pass.TypesInfo.Uses[key], kv.Value)
						}
					}
				}
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						c.recordField(c.pass.TypesInfo.Uses[sel.Sel], n.Rhs[i])
						continue
					}
					lit, ok := n.Rhs[i].(*ast.FuncLit)
					if !ok {
						continue
					}
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					obj := c.pass.TypesInfo.Defs[id]
					if obj == nil {
						obj = c.pass.TypesInfo.Uses[id]
					}
					if obj != nil {
						c.closureLits[obj] = append(c.closureLits[obj], lit)
					}
				}
			}
			return true
		})
	}
}

// recordField remembers x as a value stored in obj when obj is a
// func-typed struct field.
func (c *checker) recordField(obj types.Object, x ast.Expr) {
	v, ok := obj.(*types.Var)
	if !ok || !v.IsField() {
		return
	}
	if _, ok := v.Type().Underlying().(*types.Signature); ok {
		c.fieldValues[v] = append(c.fieldValues[v], x)
	}
}

func (c *checker) collectHandlers() {
	c.seen = make(map[*ast.BlockStmt]bool)
	for _, f := range c.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				var name string
				switch fun := ast.Unparen(n.Fun).(type) {
				case *ast.Ident:
					name = fun.Name
				case *ast.SelectorExpr:
					name = fun.Sel.Name
				}
				if !schedulerEntry[name] {
					return true
				}
				for _, arg := range n.Args {
					if _, ok := c.pass.TypesInfo.Types[arg].Type.Underlying().(*types.Signature); ok {
						c.addHandler(arg)
					}
				}
			}
			return true
		})
	}
}

// addHandler resolves one handler expression to its bodies: a literal's own
// body, every literal assigned to a local closure variable, a declared
// function's or method's body, or whatever was stored in a func-typed
// struct field. Unresolvable expressions (a func-typed parameter) are
// skipped — the body is registered wherever it is visible.
func (c *checker) addHandler(x ast.Expr) {
	switch x := ast.Unparen(x).(type) {
	case *ast.FuncLit:
		c.addBody(x.Body)
	case *ast.Ident:
		obj := c.pass.TypesInfo.Uses[x]
		if obj == nil {
			return
		}
		for _, lit := range c.closureLits[obj] {
			c.addBody(lit.Body)
		}
		if fn, ok := obj.(*types.Func); ok {
			c.addBody(c.funcDecls[fn])
		}
	case *ast.SelectorExpr:
		switch obj := c.pass.TypesInfo.Uses[x.Sel].(type) {
		case *types.Func:
			c.addBody(c.funcDecls[obj])
		case *types.Var:
			if c.fieldsDone[obj] {
				return // resolved already, or a field stored into itself
			}
			c.fieldsDone[obj] = true
			for _, v := range c.fieldValues[obj] {
				c.addHandler(v)
			}
		}
	}
}

func (c *checker) addBody(body *ast.BlockStmt) {
	if body == nil || c.seen[body] {
		return
	}
	c.seen[body] = true
	c.handlers = append(c.handlers, body)
}

func (c *checker) checkHandlers() {
	for _, body := range c.handlers {
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				c.pass.Report(n.Pos(), "goroutine spawned inside a DES event handler; handler outcomes must not depend on OS scheduling — do the work inline or schedule a future event")
			case *ast.SendStmt:
				c.pass.Report(n.Arrow, "channel send inside a DES event handler breaks seeded replay; route state through scheduler-owned structures")
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					c.pass.Report(n.OpPos, "channel receive inside a DES event handler breaks seeded replay; route state through scheduler-owned structures")
				}
			case *ast.SelectStmt:
				c.pass.Report(n.Pos(), "select inside a DES event handler breaks seeded replay; event ordering belongs to the calendar, not the runtime")
				return false // the comm clauses' channel ops are part of this finding
			case *ast.RangeStmt:
				if t := c.pass.TypesInfo.Types[n.X].Type; t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						c.pass.Report(n.Pos(), "range over a channel inside a DES event handler breaks seeded replay; route state through scheduler-owned structures")
					}
				}
			case *ast.CallExpr:
				c.checkCall(n)
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					c.checkGlobalWrite(lhs)
				}
			case *ast.IncDecStmt:
				c.checkGlobalWrite(n.X)
			}
			return true
		})
	}
}

func (c *checker) checkCall(call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return
	}
	if bannedTime[fn.Name()] {
		c.pass.Reportf(call.Pos(), "time.%s inside a DES event handler mixes wall-clock time into simulated time; schedule a future event on the calendar instead", fn.Name())
	}
}

// checkGlobalWrite reports assignments whose target is a package-level
// variable of the current package — mutable global state that survives
// across runs and breaks replay isolation.
func (c *checker) checkGlobalWrite(lhs ast.Expr) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return
	}
	obj := c.pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = c.pass.TypesInfo.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() != c.pass.Pkg {
		return
	}
	if v.Parent() == c.pass.Pkg.Scope() {
		c.pass.Reportf(id.Pos(), "write to package-level variable %s inside a DES event handler; simulator state must live in scheduler-owned structures for seeded replay", v.Name())
	}
}
