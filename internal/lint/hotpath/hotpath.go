// Package hotpath implements the hot-path purity analyzer: a function
// annotated
//
//	//fafvet:hotpath
//
// in its doc comment — or an interface method so annotated, which makes
// every implementation a checked root and every dynamic call through it
// trusted — must be provably free of heap allocation, blocking and
// nondeterminism, transitively through same-package callees and, via
// exported facts, through exported callees in other module packages.
//
// The admission fast path (traffic envelope evaluation, the stage-0 probe,
// the MAC and mux scans, the metric counters) is evaluated millions of
// times per CAC decision; PR 3 bought its ~3x speedup by hoisting exactly
// the operations this analyzer bans, and a handful of AllocsPerRun tests
// were the only thing keeping them out. hotpath turns that property into a
// ratcheted invariant: the annotation documents the contract at the
// declaration, and the checker walks the closure.
//
// Banned in an annotated closure:
//
//   - heap allocation: make, new, append, slice/map composite literals,
//     &composite (address of a literal escapes conservatively), closure
//     creation (func literals, function/method values), string
//     concatenation and string<->[]byte/[]rune conversions, variadic
//     argument packing, interface boxing (explicit conversions and
//     concrete arguments to interface parameters), go statements, defer,
//     and any call into fmt or reflect;
//   - blocking: mutex Lock/RLock, WaitGroup/Cond Wait, channel send,
//     receive, select and range-over-channel, time.Sleep, and calls into
//     I/O packages (os, io, bufio, net);
//   - nondeterminism: time.Now/Since/Until, and map iteration whose order
//     can escape — a map range is order-safe only when its body is nothing
//     but per-key index assignments and deletes.
//
// Map and slice element writes are allowed (growth on a pre-sized map is
// amortized away and is part of the memoization design); so are all of
// math, math/bits and sync/atomic, and sort.SearchFloat64s/SearchInts
// (whose callback the compiler inlines without allocating). Calls that
// cannot be verified — dynamic calls through unannotated function values
// or interface methods, out-of-module callees off the allowlist, module
// callees with no exported hotpath fact — are findings too, each reported
// with the call path from the annotated root. Waive only with
// //lint:allow hotpath <reason>; waivers ratchet like every analyzer.
package hotpath

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"fafnet/internal/lint"
	"fafnet/internal/lint/heldset"
)

// Marker is the annotation comment that turns a function or interface
// method into a hot-path root.
const Marker = "//fafvet:hotpath"

// Analyzer proves annotated hot paths allocation-free, non-blocking and
// deterministic.
var Analyzer = &lint.Analyzer{
	Name: "hotpath",
	Doc: `prove //fafvet:hotpath functions allocation-free, non-blocking and deterministic

A //fafvet:hotpath doc comment on a function, or on an interface method
(checking every implementation and trusting dynamic calls through it),
walks the transitive closure over same-package callees and exported
cross-package facts, banning heap allocation (make/new/append, slice and
map literals, closures, boxing, string building, variadic packing, fmt and
reflect), blocking (mutexes, channels, select, time.Sleep, I/O) and
nondeterminism (wall-clock reads, map ranges whose order escapes).
Unverifiable calls are findings, reported with the call path from the
annotated root. Exported functions proven clean are published as facts for
downstream packages.`,
	Run:          run,
	ExportsFacts: true,
	FactTypes:    []string{"cleanFact", "ifaceFact"},
}

// cleanFact marks one exported function or method as transitively
// hot-path-safe; its absence means "not proven".
type cleanFact struct {
	Clean bool `json:"clean"`
}

// ifaceFact (exported under the fixed key "ifaces") lists the package's
// annotated interface methods as "Iface.Method" strings, so downstream
// implementations are checked and downstream dynamic calls are trusted.
type ifaceFact []string

// ifacesKey is the fact key carrying ifaceFact. It cannot collide with a
// function fact: those keys start with an exported identifier.
const ifacesKey = "ifaces"

func run(pass *lint.Pass) error {
	if !lint.InModule(pass.Pkg.Path()) {
		return nil
	}
	c := &checker{
		pass:       pass,
		decls:      make(map[*types.Func]*ast.FuncDecl),
		annotIface: make(map[*types.Func]bool),
		viol:       make(map[*types.Func][]violation),
		calls:      make(map[*types.Func][]calleeRef),
		scanned:    make(map[*types.Func]bool),
		walked:     make(map[*types.Func]bool),
		cleanMemo:  make(map[*types.Func]cleanState),
	}
	c.collect()
	c.importIfaces()
	c.addImplRoots()
	c.reportRoots()
	c.exportFacts()
	return nil
}

// violation is one banned operation found in a function body, before the
// call-path suffix is attached.
type violation struct {
	pos token.Pos
	msg string
}

// calleeRef is one same-package call edge, in source order.
type calleeRef struct {
	pos token.Pos
	fn  *types.Func
}

type checker struct {
	pass  *lint.Pass
	decls map[*types.Func]*ast.FuncDecl

	// roots are the annotated functions plus implementations of annotated
	// interface methods, in source order.
	roots []*types.Func
	// annotIface holds annotated interface method objects, local and
	// imported; dynamic calls through them are trusted.
	annotIface map[*types.Func]bool
	// localIfaces records local annotations as (interface, method) pairs
	// for implementation matching and fact export.
	localIfaces []ifaceMethod
	// importedIfaces records annotated interface methods resolved from
	// dependency facts.
	importedIfaces []ifaceMethod

	viol    map[*types.Func][]violation
	calls   map[*types.Func][]calleeRef
	scanned map[*types.Func]bool
	walked  map[*types.Func]bool

	cleanMemo map[*types.Func]cleanState
}

// ifaceMethod is one annotated interface method: the declaring interface
// and the method object.
type ifaceMethod struct {
	ifaceName string
	iface     *types.Interface
	method    *types.Func
}

// collect gathers function declarations, annotated roots and annotated
// interface methods from the package's non-test files, and validates
// //fafvet: directives (unknown directives and markers attached to nothing
// are findings — a typo must not silently disable the check).
func (c *checker) collect() {
	info := c.pass.TypesInfo
	consumed := make(map[token.Pos]bool)
	for _, f := range c.pass.Files {
		if c.pass.InTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Body == nil {
					continue
				}
				fn, ok := info.Defs[d.Name].(*types.Func)
				if !ok {
					continue
				}
				c.decls[fn] = d
				if pos, ok := markerIn(d.Doc); ok {
					consumed[pos] = true
					c.roots = append(c.roots, fn)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					it, ok := ts.Type.(*ast.InterfaceType)
					if !ok {
						continue
					}
					c.collectIface(ts, it, consumed)
				}
			}
		}
	}
	// Directive hygiene: every //fafvet: comment must be a marker attached
	// to a function or interface-method declaration.
	for _, f := range c.pass.Files {
		if c.pass.InTestFile(f.Pos()) {
			continue
		}
		for _, cg := range f.Comments {
			for _, cmt := range cg.List {
				if !strings.HasPrefix(cmt.Text, "//fafvet:") {
					continue
				}
				if !strings.HasPrefix(cmt.Text, Marker) {
					c.pass.Reportf(cmt.Pos(), "unknown fafvet directive %q: only %s is recognized", strings.TrimSpace(cmt.Text), Marker)
					continue
				}
				if !consumed[cmt.Pos()] {
					c.pass.Reportf(cmt.Pos(), "misplaced %s: the marker must sit in the doc comment of a function declaration or an interface method", Marker)
				}
			}
		}
	}
}

// collectIface records annotated methods of one interface declaration.
func (c *checker) collectIface(ts *ast.TypeSpec, it *ast.InterfaceType, consumed map[token.Pos]bool) {
	info := c.pass.TypesInfo
	tn, _ := info.Defs[ts.Name].(*types.TypeName)
	for _, field := range it.Methods.List {
		pos, ok := markerIn(field.Doc)
		if !ok {
			if pos, ok = markerIn(field.Comment); !ok {
				continue
			}
		}
		consumed[pos] = true
		if len(field.Names) == 0 {
			c.pass.Reportf(field.Pos(), "%s on an embedded interface is not supported; annotate the method in its declaring interface", Marker)
			continue
		}
		for _, name := range field.Names {
			fn, ok := info.Defs[name].(*types.Func)
			if !ok || tn == nil {
				continue
			}
			iface, ok := tn.Type().Underlying().(*types.Interface)
			if !ok {
				continue
			}
			c.annotIface[fn] = true
			c.localIfaces = append(c.localIfaces, ifaceMethod{tn.Name(), iface, fn})
		}
	}
}

// markerIn reports the position of the //fafvet:hotpath marker in a
// comment group.
func markerIn(groups ...*ast.CommentGroup) (token.Pos, bool) {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, cmt := range g.List {
			if strings.HasPrefix(cmt.Text, Marker) {
				return cmt.Pos(), true
			}
		}
	}
	return token.NoPos, false
}

// importIfaces resolves annotated interface methods from every module
// dependency's exported fact, so implementations and dynamic calls in this
// package are handled like local annotations.
func (c *checker) importIfaces() {
	for _, imp := range c.pass.Pkg.Imports() {
		path := imp.Path()
		if !lint.InModule(path) {
			continue
		}
		var list ifaceFact
		if !c.pass.ImportFact(path, ifacesKey, &list) {
			continue
		}
		for _, entry := range list {
			ifaceName, methodName, ok := strings.Cut(entry, ".")
			if !ok {
				continue
			}
			tn, ok := imp.Scope().Lookup(ifaceName).(*types.TypeName)
			if !ok {
				continue
			}
			iface, ok := tn.Type().Underlying().(*types.Interface)
			if !ok {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				if m := iface.Method(i); m.Name() == methodName {
					c.annotIface[m] = true
					c.importedIfaces = append(c.importedIfaces, ifaceMethod{ifaceName, iface, m})
				}
			}
		}
	}
}

// addImplRoots promotes every method of this package that implements an
// annotated interface method (local or imported) to a checked root: a
// value of the concrete type can sit behind the trusted interface, so the
// implementation must satisfy the same contract.
func (c *checker) addImplRoots() {
	all := append(append([]ifaceMethod(nil), c.localIfaces...), c.importedIfaces...)
	if len(all) == 0 {
		return
	}
	inRoots := make(map[*types.Func]bool, len(c.roots))
	for _, fn := range c.roots {
		inRoots[fn] = true
	}
	for fn := range c.decls {
		sig := fn.Type().(*types.Signature)
		if sig.Recv() == nil || inRoots[fn] {
			continue
		}
		rt := sig.Recv().Type()
		for _, im := range all {
			if fn.Name() != im.method.Name() {
				continue
			}
			if types.Implements(rt, im.iface) || types.Implements(types.NewPointer(rt), im.iface) {
				c.roots = append(c.roots, fn)
				inRoots[fn] = true
				break
			}
		}
	}
}

// reportRoots walks every root's transitive same-package closure in source
// order and reports each function's violations once, suffixed with the
// call path from the first root that reached it.
func (c *checker) reportRoots() {
	sort.Slice(c.roots, func(i, j int) bool {
		di, dj := c.decls[c.roots[i]], c.decls[c.roots[j]]
		return di.Pos() < dj.Pos()
	})
	for _, root := range c.roots {
		c.visit(root, []string{funcDisplay(root)})
	}
}

func (c *checker) visit(fn *types.Func, path []string) {
	if c.walked[fn] {
		return
	}
	c.walked[fn] = true
	c.scan(fn)
	suffix := ""
	if len(path) > 1 {
		suffix = fmt.Sprintf(" (call path: %s)", strings.Join(path, " -> "))
	}
	for _, v := range c.viol[fn] {
		c.pass.Report(v.pos, v.msg+suffix)
	}
	for _, cr := range c.calls[fn] {
		c.visit(cr.fn, append(path, funcDisplay(cr.fn)))
	}
}

// funcDisplay names a function for diagnostics: Recv.Name for methods.
func funcDisplay(fn *types.Func) string {
	if recv := heldset.ReceiverNamed(fn); recv != "" {
		return recv + "." + fn.Name()
	}
	return fn.Name()
}

// cleanState memoizes the transitive-cleanliness computation used for fact
// export.
type cleanState int

const (
	cleanUnknown cleanState = iota
	cleanVisiting
	cleanYes
	cleanNo
)

// isClean reports whether fn's transitive closure is violation-free.
// Recursion contributes nothing new (a cycle member is clean iff the rest
// of its closure is).
func (c *checker) isClean(fn *types.Func) bool {
	switch c.cleanMemo[fn] {
	case cleanYes, cleanVisiting:
		return true
	case cleanNo:
		return false
	}
	c.cleanMemo[fn] = cleanVisiting
	c.scan(fn)
	ok := len(c.viol[fn]) == 0
	if ok {
		for _, cr := range c.calls[fn] {
			if !c.isClean(cr.fn) {
				ok = false
				break
			}
		}
	}
	if ok {
		c.cleanMemo[fn] = cleanYes
	} else {
		c.cleanMemo[fn] = cleanNo
	}
	return ok
}

// exportFacts publishes cleanFacts for every exported function or method
// (of an exported type) proven transitively clean, plus the package's
// annotated interface methods — exported interfaces only, since nothing
// else is implementable downstream.
func (c *checker) exportFacts() {
	var fns []*types.Func
	for fn := range c.decls {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return c.decls[fns[i]].Pos() < c.decls[fns[j]].Pos() })
	for _, fn := range fns {
		if !fn.Exported() {
			continue
		}
		key := fn.Name()
		if recv := heldset.ReceiverNamed(fn); recv != "" {
			if !token.IsExported(recv) {
				continue
			}
			key = recv + "." + fn.Name()
		}
		if c.isClean(fn) {
			_ = c.pass.ExportFact(key, cleanFact{Clean: true})
		}
	}

	var list ifaceFact
	for _, im := range c.localIfaces {
		if !token.IsExported(im.ifaceName) || !im.method.Exported() {
			continue
		}
		list = append(list, im.ifaceName+"."+im.method.Name())
	}
	if len(list) > 0 {
		sort.Strings(list)
		_ = c.pass.ExportFact(ifacesKey, list)
	}
}
