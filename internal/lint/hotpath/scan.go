package hotpath

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"fafnet/internal/lint"
	"fafnet/internal/lint/heldset"
)

// scan computes fn's direct violations and same-package call edges, once.
func (c *checker) scan(fn *types.Func) {
	if c.scanned[fn] {
		return
	}
	c.scanned[fn] = true
	fd, ok := c.decls[fn]
	if !ok {
		return
	}
	s := &scanner{checker: c, fn: fn}
	s.collectCallIdents(fd.Body)
	ast.Inspect(fd.Body, s.node)
	c.viol[fn] = s.viols
	c.calls[fn] = s.callees
}

// scanner walks one function body applying the hot-path rules.
type scanner struct {
	*checker
	fn      *types.Func
	viols   []violation
	callees []calleeRef
	// callIdents marks identifiers that are the operator of a call, so the
	// bound-method-value rule does not fire on ordinary call syntax.
	callIdents map[*ast.Ident]bool
}

func (s *scanner) add(pos token.Pos, format string, args ...any) {
	s.viols = append(s.viols, violation{pos, fmt.Sprintf(format, args...)})
}

// collectCallIdents pre-marks the identifiers appearing as call operators.
func (s *scanner) collectCallIdents(body *ast.BlockStmt) {
	s.callIdents = make(map[*ast.Ident]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			s.callIdents[fun] = true
		case *ast.SelectorExpr:
			s.callIdents[fun.Sel] = true
		}
		return true
	})
}

// node is the per-node rule dispatcher.
func (s *scanner) node(n ast.Node) bool {
	info := s.pass.TypesInfo
	switch n := n.(type) {
	case *ast.CallExpr:
		return s.call(n)
	case *ast.FuncLit:
		s.add(n.Pos(), "hot path: func literal allocates a closure; hoist it or name the function")
		return false
	case *ast.GoStmt:
		s.add(n.Pos(), "hot path: go statement allocates a goroutine and leaves the fast path")
		return false
	case *ast.DeferStmt:
		s.add(n.Pos(), "hot path: defer may allocate its record and runs off the fast path; restructure without defer")
		return true
	case *ast.CompositeLit:
		tv, ok := info.Types[n]
		if !ok || tv.Type == nil {
			return true
		}
		switch tv.Type.Underlying().(type) {
		case *types.Slice:
			s.add(n.Pos(), "hot path: slice literal allocates; hoist it out of the annotated region")
		case *types.Map:
			s.add(n.Pos(), "hot path: map literal allocates; hoist it out of the annotated region")
		}
		return true
	case *ast.UnaryExpr:
		switch n.Op {
		case token.ARROW:
			s.add(n.Pos(), "hot path: channel receive may block")
		case token.AND:
			if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				s.add(n.Pos(), "hot path: address of a composite literal escapes to the heap; reuse a preallocated value")
			}
		}
		return true
	case *ast.BinaryExpr:
		if n.Op == token.ADD {
			if tv, ok := info.Types[n.X]; ok && tv.Type != nil && isStringType(tv.Type) && !isUntypedConst(info.Types[n]) {
				s.add(n.Pos(), "hot path: string concatenation allocates")
			}
		}
		return true
	case *ast.SendStmt:
		s.add(n.Pos(), "hot path: channel send may block")
		return true
	case *ast.SelectStmt:
		s.add(n.Pos(), "hot path: select may block")
		return true
	case *ast.RangeStmt:
		tv, ok := info.Types[n.X]
		if !ok || tv.Type == nil {
			return true
		}
		switch tv.Type.Underlying().(type) {
		case *types.Chan:
			s.add(n.Pos(), "hot path: range over a channel may block")
		case *types.Map:
			if !s.mapRangeOrderSafe(n) {
				s.add(n.Pos(), "hot path: map iteration order escapes (only per-key index assignments and deletes are order-safe); iterate a sorted slice instead")
			}
		}
		return true
	case *ast.SelectorExpr:
		// A bound method value x.M (not called, not a method expression)
		// allocates a closure capturing x. Plain function values point at
		// static data and are exempt — calling them later trips the
		// dynamic-call rule instead.
		if s.callIdents[n.Sel] {
			return true
		}
		if sel, ok := info.Selections[n]; ok && sel.Kind() == types.MethodVal {
			s.add(n.Pos(), "hot path: the bound method value %s allocates a closure; call the method directly", heldset.ExprDisplay(n))
		}
		return true
	}
	return true
}

// call applies the call-site rules and records same-package edges.
// Returning true keeps descending into arguments, where the other rules
// apply independently.
func (s *scanner) call(call *ast.CallExpr) bool {
	info := s.pass.TypesInfo
	fun := ast.Unparen(call.Fun)

	// Conversions: T(x).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		s.conversion(call, tv.Type)
		return true
	}

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				s.add(call.Pos(), "hot path: make allocates; hoist the allocation out of the annotated region")
			case "new":
				s.add(call.Pos(), "hot path: new allocates; hoist the allocation out of the annotated region")
			case "append":
				s.add(call.Pos(), "hot path: append may grow its backing array; preallocate outside the hot path")
			}
			return true
		}
	}

	if _, ok := fun.(*ast.FuncLit); ok {
		return true // the FuncLit rule already fires on the literal itself
	}

	fn := lint.CalleeFunc(info, call)
	if fn == nil {
		s.add(call.Pos(), "hot path: dynamic call through a function value cannot be verified; call a named function or an annotated interface method")
		return true
	}

	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if _, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
			if !s.annotIface[fn] {
				s.add(call.Pos(), "hot path: call through interface method %s is not covered by a %s annotation on the interface; annotate the method or devirtualize the call", funcDisplay(fn), Marker)
				return true
			}
			s.boxedArgs(call, sig)
			return true
		}
	}

	pkg := fn.Pkg()
	if pkg == nil {
		return true
	}
	path := pkg.Path()
	switch {
	case pkg == s.pass.Pkg:
		if _, ok := s.decls[fn]; ok {
			s.callees = append(s.callees, calleeRef{call.Pos(), fn})
		} else {
			s.add(call.Pos(), "hot path: %s has no analyzable body in this package; it cannot be verified", funcDisplay(fn))
		}
		s.boxedArgs(call, sig)
	case lint.InModule(path):
		key := fn.Name()
		if recv := heldset.ReceiverNamed(fn); recv != "" {
			key = recv + "." + fn.Name()
		}
		var cf cleanFact
		if s.pass.ImportFact(path, key, &cf) && cf.Clean {
			s.boxedArgs(call, sig)
			return true
		}
		s.add(call.Pos(), "hot path: call to %s.%s is not proven hot-path-safe (no hotpath fact exported by %s); keep the hot path inside proven callees or move this call off it", lint.ShortPkg(path), funcDisplay(fn), path)
	default:
		s.stdlibCall(call, fn, sig, path)
	}
	return true
}

// stdlibCall classifies calls outside the module: a small allowlist of
// provably pure, non-allocating functions; named bans with precise
// messages; everything else unverifiable.
func (s *scanner) stdlibCall(call *ast.CallExpr, fn *types.Func, sig *types.Signature, path string) {
	name := fn.Name()
	switch path {
	case "math", "math/bits", "sync/atomic":
		s.boxedArgs(call, sig)
		return
	case "sort":
		if name == "SearchFloat64s" || name == "SearchInts" {
			return
		}
	case "time":
		switch name {
		case "Sleep":
			s.add(call.Pos(), "hot path: time.Sleep blocks")
			return
		case "Now", "Since", "Until":
			s.add(call.Pos(), "hot path: time.%s reads the wall clock; hot paths must be deterministic", name)
			return
		}
	case "sync":
		switch name {
		case "Lock", "RLock", "Wait":
			s.add(call.Pos(), "hot path: sync.%s.%s may block; hot paths must be lock-free", heldset.ReceiverNamed(fn), name)
			return
		}
	case "fmt", "reflect":
		s.add(call.Pos(), "hot path: call into %s allocates; format off the hot path", path)
		return
	}
	switch path {
	case "os", "io", "bufio", "net":
		s.add(call.Pos(), "hot path: call to %s.%s performs I/O", path, funcDisplay(fn))
		return
	}
	s.add(call.Pos(), "hot path: call to %s.%s is outside the hot-path allowlist (math, math/bits, sync/atomic, sort searches) and cannot be verified", path, funcDisplay(fn))
}

// conversion applies the boxing and string-conversion rules to T(x).
func (s *scanner) conversion(call *ast.CallExpr, target types.Type) {
	if len(call.Args) != 1 {
		return
	}
	info := s.pass.TypesInfo
	arg := call.Args[0]
	atv, ok := info.Types[arg]
	if !ok || atv.Type == nil || atv.IsNil() {
		return
	}
	if _, ok := target.Underlying().(*types.Interface); ok {
		if _, argIsIface := atv.Type.Underlying().(*types.Interface); !argIsIface {
			s.add(call.Pos(), "hot path: conversion of %s to interface %s allocates (boxing)", types.TypeString(atv.Type, types.RelativeTo(s.pass.Pkg)), types.TypeString(target, types.RelativeTo(s.pass.Pkg)))
		}
		return
	}
	tIsStr := isStringType(target)
	aIsStr := isStringType(atv.Type)
	switch {
	case tIsStr && !aIsStr && !isUntypedConst(atv):
		s.add(call.Pos(), "hot path: conversion to string allocates")
	case !tIsStr && aIsStr && isByteOrRuneSlice(target):
		s.add(call.Pos(), "hot path: conversion of string to %s allocates", types.TypeString(target, types.RelativeTo(s.pass.Pkg)))
	}
}

// boxedArgs flags concrete arguments passed to interface parameters and
// non-spread arguments packed into a variadic slice.
func (s *scanner) boxedArgs(call *ast.CallExpr, sig *types.Signature) {
	if sig == nil {
		return
	}
	info := s.pass.TypesInfo
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		// A method expression T.M(recv, ...) shifts the arguments by the
		// receiver; skip rather than misalign.
		if s2, ok := info.Selections[sel]; ok && s2.Kind() == types.MethodExpr {
			return
		}
	}
	params := sig.Params()
	n := params.Len()
	if sig.Variadic() {
		n--
		if call.Ellipsis == token.NoPos && len(call.Args) > n {
			s.add(call.Pos(), "hot path: variadic call packs %d argument(s) into a slice; pass a preallocated slice with ... or use a fixed-arity callee", len(call.Args)-n)
		}
	}
	for i, arg := range call.Args {
		if i >= n {
			break
		}
		pt := params.At(i).Type()
		if _, ok := pt.Underlying().(*types.Interface); !ok {
			continue
		}
		atv, ok := info.Types[arg]
		if !ok || atv.Type == nil || atv.IsNil() {
			continue
		}
		if _, argIsIface := atv.Type.Underlying().(*types.Interface); !argIsIface {
			s.add(arg.Pos(), "hot path: passing %s to the interface parameter %s of %s allocates (boxing)", types.TypeString(atv.Type, types.RelativeTo(s.pass.Pkg)), params.At(i).Name(), funcDisplayFromCall(info, call))
		}
	}
}

// mapRangeOrderSafe reports whether a map range body observes nothing of
// the iteration order: every statement is either an assignment whose
// left-hand sides are all index expressions (or blank), or a delete call.
func (s *scanner) mapRangeOrderSafe(rs *ast.RangeStmt) bool {
	info := s.pass.TypesInfo
	for _, st := range rs.Body.List {
		switch st := st.(type) {
		case *ast.AssignStmt:
			if st.Tok != token.ASSIGN {
				return false
			}
			for _, lhs := range st.Lhs {
				switch l := ast.Unparen(lhs).(type) {
				case *ast.IndexExpr:
				case *ast.Ident:
					if l.Name != "_" {
						return false
					}
				default:
					return false
				}
			}
		case *ast.ExprStmt:
			call, ok := st.X.(*ast.CallExpr)
			if !ok {
				return false
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok {
				return false
			}
			if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "delete" {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// funcDisplayFromCall names the callee for the boxing diagnostic.
func funcDisplayFromCall(info *types.Info, call *ast.CallExpr) string {
	if fn := lint.CalleeFunc(info, call); fn != nil {
		return funcDisplay(fn)
	}
	return "the callee"
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isUntypedConst(tv types.TypeAndValue) bool {
	return tv.Value != nil
}
