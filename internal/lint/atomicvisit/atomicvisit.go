// Package atomicvisit implements the atomic-access consistency checker: a
// struct field or variable that is accessed through the sync/atomic
// function API anywhere must be accessed atomically everywhere. Mixing
// atomic.AddUint64(&s.n, 1) on one goroutine with a plain s.n++ (or even a
// plain read) on another is the classic pre-sharding data race: the plain
// access tears, the race detector only catches it when a test interleaves
// badly, and the counter silently drifts. This is the standing guard for
// ROADMAP item 2's per-shard admission controllers, whose whole design is
// plain-looking fields mutated through sync/atomic.
//
// The rules:
//
//   - Any call to a sync/atomic function (AddT, LoadT, StoreT, SwapT,
//     CompareAndSwapT) taking &x marks x as atomically accessed.
//   - Every other use of x is then a finding — reads, writes, compound
//     assignments, and taking &x for anything but another sync/atomic
//     call (an escaped address is an unchecked access path).
//   - Composite-literal construction is exempt: a value still being built
//     is not yet shared. So is the declaration itself.
//
// Enforcement crosses packages via facts: for every exported field of an
// exported struct and every exported package variable whose type the
// old-style atomic API can address, the package exports which access modes
// it observed. A downstream plain access to an upstream-atomic variable is
// flagged at the access; a downstream atomic access to a variable its own
// package accesses plainly is flagged too (the declaring package cannot
// see the importer, so the importing side carries the finding). Sibling
// packages that never import each other are out of reach — the fact flow
// follows the import DAG; keep an atomic variable's accessors in one
// package or behind accessor functions.
//
// The typed atomics (atomic.Uint64, atomic.Pointer[T]) make this analyzer
// redundant by construction — prefer them; this checker exists for the
// fields that stay plain for layout or API reasons.
package atomicvisit

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"fafnet/internal/lint"
)

// Analyzer reports mixed plain/atomic access to the same variable.
var Analyzer = &lint.Analyzer{
	Name: "atomicvisit",
	Doc: `flag variables accessed both through sync/atomic and plainly

A field or variable passed by address to a sync/atomic function (Add, Load,
Store, Swap, CompareAndSwap) must be accessed through sync/atomic
everywhere: every plain read, write or escaping address-of is reported.
Composite-literal construction is exempt. Access modes of exported fields
and package variables are exported as facts, so mixed access across an
import edge is caught from the importing side.`,
	Run:          run,
	ExportsFacts: true,
	FactTypes:    []string{"accessFact"},
}

// accessFact records the access modes one package observed for an exported
// field or package variable.
type accessFact struct {
	Atomic bool `json:"atomic,omitempty"`
	Plain  bool `json:"plain,omitempty"`
}

func run(pass *lint.Pass) error {
	p := pass.Pkg.Path()
	if p != lint.ModulePath && !strings.HasPrefix(p, lint.ModulePath+"/") {
		return nil
	}
	c := &checker{
		pass:       pass,
		atomicVars: make(map[*types.Var][]token.Pos),
		plainUses:  make(map[*types.Var][]token.Pos),
		sanctioned: make(map[*ast.Ident]bool),
		foreign:    make(map[*types.Var]*accessFact),
	}
	c.collectAtomicCalls()
	c.collectPlainUses()
	c.report()
	c.exportFacts()
	return nil
}

type checker struct {
	pass *lint.Pass

	// atomicVars maps each variable passed to a sync/atomic function to the
	// call positions, in source order.
	atomicVars map[*types.Var][]token.Pos
	// plainUses maps each candidate variable to its non-atomic use
	// positions.
	plainUses map[*types.Var][]token.Pos
	// sanctioned marks identifiers that are legitimate non-plain
	// appearances: the operand inside a sync/atomic call's address-of, and
	// composite-literal keys.
	sanctioned map[*ast.Ident]bool
	// foreign caches imported access facts per variable (nil = no fact).
	foreign map[*types.Var]*accessFact
}

// isAtomicCall reports whether call invokes one of the old-style
// sync/atomic functions, returning its first argument.
func isAtomicCall(info *types.Info, call *ast.CallExpr) (ast.Expr, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return nil, false
	}
	name := fn.Name()
	for _, prefix := range []string{"Add", "Load", "Store", "Swap", "CompareAndSwap", "And", "Or"} {
		if strings.HasPrefix(name, prefix) {
			if len(call.Args) == 0 {
				return nil, false
			}
			return call.Args[0], true
		}
	}
	return nil, false
}

// addressedVar resolves &x or &s.f to the variable x / field f.
func addressedVar(info *types.Info, e ast.Expr) (*types.Var, *ast.Ident) {
	ue, ok := ast.Unparen(e).(*ast.UnaryExpr)
	if !ok || ue.Op != token.AND {
		return nil, nil
	}
	switch x := ast.Unparen(ue.X).(type) {
	case *ast.Ident:
		v, _ := info.Uses[x].(*types.Var)
		return v, x
	case *ast.SelectorExpr:
		v, _ := info.Uses[x.Sel].(*types.Var)
		return v, x.Sel
	}
	return nil, nil
}

// collectAtomicCalls finds every sync/atomic call and records its operand
// variable; the operand identifier is sanctioned.
func (c *checker) collectAtomicCalls() {
	info := c.pass.TypesInfo
	for _, f := range c.pass.Files {
		if c.testFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			arg, ok := isAtomicCall(info, call)
			if !ok {
				return true
			}
			v, id := addressedVar(info, arg)
			if v == nil {
				return true
			}
			c.sanctioned[id] = true
			c.atomicVars[v] = append(c.atomicVars[v], call.Pos())
			return true
		})
	}
}

// collectPlainUses records every non-sanctioned use of a candidate
// variable. Composite-literal keys are sanctioned first.
func (c *checker) collectPlainUses() {
	info := c.pass.TypesInfo
	for _, f := range c.pass.Files {
		if c.testFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if cl, ok := n.(*ast.CompositeLit); ok {
				for _, elt := range cl.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							c.sanctioned[id] = true
						}
					}
				}
			}
			return true
		})
	}
	for _, f := range c.pass.Files {
		if c.testFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || c.sanctioned[id] {
				return true
			}
			v, ok := info.Uses[id].(*types.Var)
			if !ok || !candidate(v) {
				return true
			}
			c.plainUses[v] = append(c.plainUses[v], id.Pos())
			return true
		})
	}
}

// candidate reports whether v could be the operand of an old-style
// sync/atomic call: a field or variable of one of the addressable atomic
// kinds. Narrowing here keeps the plain-use index (and the exported facts)
// small.
func candidate(v *types.Var) bool {
	switch t := v.Type().Underlying().(type) {
	case *types.Basic:
		switch t.Kind() {
		case types.Int32, types.Int64, types.Uint32, types.Uint64, types.Uintptr, types.UnsafePointer:
			return true
		}
	case *types.Pointer:
		return true
	}
	return false
}

// report emits mixed-access findings: locally mixed variables, plain uses
// of upstream-atomic variables, and atomic uses of upstream-plain
// variables.
func (c *checker) report() {
	var vars []*types.Var
	for v := range c.atomicVars {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i].Pos() < vars[j].Pos() })
	for _, v := range vars {
		// Locally mixed.
		for _, pos := range c.plainUses[v] {
			c.pass.Reportf(pos, "%s is accessed with sync/atomic elsewhere (e.g. %s) but plainly here; mixed access tears — use sync/atomic everywhere or a typed atomic", v.Name(), c.pass.Fset.Position(c.atomicVars[v][0]))
		}
		// Atomic here, plain in the declaring package.
		if fact := c.importedFact(v); fact != nil && fact.Plain && !fact.Atomic {
			for _, pos := range c.atomicVars[v] {
				c.pass.Reportf(pos, "%s is accessed plainly in its declaring package %s but atomically here; mixed access tears — use sync/atomic everywhere or a typed atomic", v.Name(), v.Pkg().Path())
			}
		}
	}
	// Plain here, atomic in the declaring package.
	var pvars []*types.Var
	for v := range c.plainUses {
		if _, local := c.atomicVars[v]; !local {
			pvars = append(pvars, v)
		}
	}
	sort.Slice(pvars, func(i, j int) bool { return pvars[i].Pos() < pvars[j].Pos() })
	for _, v := range pvars {
		if fact := c.importedFact(v); fact != nil && fact.Atomic {
			for _, pos := range c.plainUses[v] {
				c.pass.Reportf(pos, "%s is accessed with sync/atomic in its declaring package %s but plainly here; mixed access tears — use sync/atomic everywhere or a typed atomic", v.Name(), v.Pkg().Path())
			}
		}
	}
}

// importedFact resolves the access fact for a variable declared in another
// module package, nil when there is none.
func (c *checker) importedFact(v *types.Var) *accessFact {
	pkg := v.Pkg()
	if pkg == nil || pkg == c.pass.Pkg {
		return nil
	}
	path := pkg.Path()
	if path != lint.ModulePath && !strings.HasPrefix(path, lint.ModulePath+"/") {
		return nil
	}
	if f, ok := c.foreign[v]; ok {
		return f
	}
	var fact accessFact
	var found *accessFact
	if key, ok := factKey(pkg, v); ok && c.pass.ImportFact(path, key, &fact) {
		found = &fact
	}
	c.foreign[v] = found
	return found
}

// factKey names an exported package variable ("Name") or an exported field
// of an exported struct ("Owner.Name") for fact exchange.
func factKey(pkg *types.Package, v *types.Var) (string, bool) {
	if !v.Exported() {
		return "", false
	}
	if !v.IsField() {
		if v.Parent() == pkg.Scope() {
			return v.Name(), true
		}
		return "", false
	}
	owner := lint.FieldOwner(pkg, v)
	if owner == nil || !owner.Exported() {
		return "", false
	}
	return owner.Name() + "." + v.Name(), true
}

// exportFacts publishes observed access modes for this package's own
// exported candidates, merged with whatever upstream packages already
// reported for them.
func (c *checker) exportFacts() {
	merged := make(map[*types.Var]*accessFact)
	note := func(v *types.Var, atomic bool) {
		if v.Pkg() != c.pass.Pkg {
			return
		}
		if _, ok := factKey(c.pass.Pkg, v); !ok {
			return
		}
		f := merged[v]
		if f == nil {
			f = &accessFact{}
			merged[v] = f
		}
		if atomic {
			f.Atomic = true
		} else {
			f.Plain = true
		}
	}
	for v := range c.atomicVars {
		note(v, true)
	}
	for v := range c.plainUses {
		note(v, false)
	}
	var vars []*types.Var
	for v := range merged {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i].Pos() < vars[j].Pos() })
	for _, v := range vars {
		key, _ := factKey(c.pass.Pkg, v)
		_ = c.pass.ExportFact(key, *merged[v])
	}
}

// testFile reports whether f is a _test.go file; the -race suite polices
// those dynamically.
func (c *checker) testFile(f *ast.File) bool {
	return strings.HasSuffix(c.pass.Fset.Position(f.Pos()).Filename, "_test.go")
}
