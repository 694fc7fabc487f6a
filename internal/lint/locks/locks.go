// Package locks checks the tree's one lock rule — no mutex is acquired while
// another is held — together with the two things a held set decides besides
// it: no blocking operation under a lock, and no access to `guarded by`
// state without its mutex.
//
// Under the leaf rule lock order cannot be inconsistent, so there is no lock
// graph: a nested acquisition is a finding where it happens, whichever order
// the rest of the program uses. The one sanctioned nesting is dynamic —
// core.Sharded calls its audit callback under mu — and the analyzer
// does not follow function values (DESIGN.md §4).
//
// Each function is walked once in statement order by the held-set engine
// (heldset.go). The walk starts from the function's inferred held set: a
// fixpoint over same-package call sites finds, for each unexported function
// never used as a value, the locks held at every call site, so a helper like
// closeLocked is checked as the locked code it is. Same-package calls apply
// the callee's transitive summary (which mutexes it may lock, whether it may
// block); calls into other module packages apply the {Locks, Blocks} fact
// that package exported. Annotations on exported fields of exported structs
// are facts too, so a downstream package touching such a field without the
// lock is flagged.
package locks

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"fafnet/internal/lint"
)

// Analyzer reports nested acquisitions, blocking under a lock and unguarded
// access to annotated state.
var Analyzer = &lint.Analyzer{
	Name: "locks",
	Doc: `flag a mutex acquired while another is held, blocking under a lock, and 'guarded by' state touched without its mutex

Across the module the analyzer tracks, per function and in statement order,
which sync.Mutex/RWMutex objects are held (keyed by field or variable
identity, so s.mu in one method and srv.mu in another are the same lock).
Locks are leaves: acquiring any mutex while one is held is reported,
directly or through a same-package or imported callee that may lock (the
same mutex twice is re-entry, a certain deadlock). Channel operations,
default-less selects, WaitGroup.Wait, net Accept and time.Sleep reached with
a mutex held are reported, directly or through a callee that may block. A
comment "guarded by <mu>" on a struct field, package variable or local names
the mutex that must be held at every read or write; struct-literal
construction is exempt. Branches merge by intersection, goroutine bodies
start empty, and unexported functions never used as values start from the
locks held at all their call sites.`,
	Run:          run,
	ExportsFacts: true,
	FactTypes:    []string{"funcFact", "guardFact"},
}

// funcFact is the exported summary of one function: whether it may
// (transitively) acquire a mutex, and whether it may block.
type funcFact struct {
	Locks  bool `json:"locks,omitempty"`
	Blocks bool `json:"blocks,omitempty"`
}

// guardFact is the exported annotation of one exported struct field: the
// name of the sibling field that guards it.
type guardFact struct {
	Guard string `json:"guard"`
}

// annotRe extracts the guard name from a declaration comment.
var annotRe = regexp.MustCompile(`\bguarded by ([A-Za-z_][A-Za-z0-9_]*)`)

func run(pass *lint.Pass) error {
	if !lint.InModule(pass.Pkg.Path()) {
		return nil
	}
	c := &checker{
		pass:         pass,
		decls:        make(map[*types.Func]*ast.FuncDecl),
		acquires:     make(map[*types.Func]map[*types.Var]bool),
		locksX:       make(map[*types.Func]bool),
		blocks:       make(map[*types.Func]bool),
		annots:       make(map[*types.Var]*types.Var),
		foreign:      make(map[*types.Var]*types.Var),
		requiredHeld: make(map[*types.Func]heldSet),
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					c.decls[fn] = fd
				}
			}
		}
	}
	c.collectAnnotations()
	c.summarize()
	c.exportFacts()
	c.collectValueRefs()
	c.inferRequiredHeld()
	c.report()
	return nil
}

type checker struct {
	pass  *lint.Pass
	decls map[*types.Func]*ast.FuncDecl

	// acquires is the transitive set of mutexes each same-package function
	// may lock; locksX marks functions that may lock through a call into
	// another module package (known only by its fact); blocks marks
	// functions that may execute a blocking operation. All exclude goroutine
	// bodies, which run on their own stack with their own held set.
	acquires map[*types.Func]map[*types.Var]bool
	locksX   map[*types.Func]bool
	blocks   map[*types.Func]bool

	// annots maps each annotated variable or field to its guard mutex.
	annots map[*types.Var]*types.Var
	// foreign caches guard lookups for imported fields (nil = no annotation).
	foreign map[*types.Var]*types.Var
	// valueRefs marks same-package functions referenced outside a direct
	// call; their callers are unknowable, so they start from an empty held
	// set.
	valueRefs map[*types.Func]bool
	// requiredHeld is the inferred initial held set per function: the locks
	// held at every observed call site.
	requiredHeld map[*types.Func]heldSet
}

// isMutex reports whether t is (a pointer to) sync.Mutex or sync.RWMutex.
func isMutex(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// annotationIn extracts the guard name from a doc and/or line comment.
func annotationIn(groups ...*ast.CommentGroup) string {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, cmt := range g.List {
			if m := annotRe.FindStringSubmatch(cmt.Text); m != nil {
				return m[1]
			}
		}
	}
	return ""
}

// collectAnnotations walks the package's declarations for guarded-by
// comments on struct fields, package variables and locals, resolving each
// guard name to a mutex object.
func (c *checker) collectAnnotations() {
	for _, f := range c.pass.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if st, ok := spec.Type.(*ast.StructType); ok {
							c.collectStruct(st)
						}
					case *ast.ValueSpec:
						if guard := specAnnotation(d, spec); guard != "" {
							c.bindSpec(spec, guard, c.packageMutex(guard))
						}
					}
				}
			case *ast.FuncDecl:
				if d.Body == nil {
					continue
				}
				ast.Inspect(d.Body, func(n ast.Node) bool {
					ds, ok := n.(*ast.DeclStmt)
					if !ok {
						return true
					}
					gd, ok := ds.Decl.(*ast.GenDecl)
					if !ok || gd.Tok != token.VAR {
						return true
					}
					for _, spec := range gd.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						guard := specAnnotation(gd, vs)
						if guard == "" {
							continue
						}
						gv := c.localMutex(d, guard)
						if gv == nil {
							gv = c.packageMutex(guard)
						}
						c.bindSpec(vs, guard, gv)
					}
					return true
				})
			}
		}
	}
}

// specAnnotation reads the guard annotation of one value spec. A
// single-spec `var x T` attaches its doc comment to the GenDecl, not the
// spec.
func specAnnotation(gd *ast.GenDecl, vs *ast.ValueSpec) string {
	doc := vs.Doc
	if doc == nil && len(gd.Specs) == 1 {
		doc = gd.Doc
	}
	return annotationIn(doc, vs.Comment)
}

// collectStruct resolves guarded-by annotations on the fields of one struct
// type: the guard must be a sibling field or a package-level mutex.
func (c *checker) collectStruct(st *ast.StructType) {
	info := c.pass.TypesInfo
	siblings := make(map[string]*types.Var)
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			if v, ok := info.Defs[name].(*types.Var); ok && isMutex(v.Type()) {
				siblings[name.Name] = v
			}
		}
	}
	for _, field := range st.Fields.List {
		guard := annotationIn(field.Doc, field.Comment)
		if guard == "" {
			continue
		}
		gv := siblings[guard]
		if gv == nil {
			gv = c.packageMutex(guard)
		}
		for _, name := range field.Names {
			v, ok := info.Defs[name].(*types.Var)
			if !ok {
				continue
			}
			if gv == nil {
				c.pass.Reportf(name.Pos(), "guarded-by annotation on %s names %q, which is not a sync.Mutex/RWMutex sibling field or package variable", name.Name, guard)
				continue
			}
			c.annots[v] = gv
		}
	}
}

// bindSpec applies one resolved annotation to every name in a value spec.
func (c *checker) bindSpec(vs *ast.ValueSpec, guard string, gv *types.Var) {
	for _, name := range vs.Names {
		v, ok := c.pass.TypesInfo.Defs[name].(*types.Var)
		if !ok {
			continue
		}
		if gv == nil {
			c.pass.Reportf(name.Pos(), "guarded-by annotation on %s names %q, which is not a sync.Mutex/RWMutex in scope", name.Name, guard)
			continue
		}
		c.annots[v] = gv
	}
}

// packageMutex resolves a guard name against package scope.
func (c *checker) packageMutex(name string) *types.Var {
	if v, ok := c.pass.Pkg.Scope().Lookup(name).(*types.Var); ok && isMutex(v.Type()) {
		return v
	}
	return nil
}

// localMutex resolves a guard name among the variables declared inside fd.
func (c *checker) localMutex(fd *ast.FuncDecl, name string) *types.Var {
	var found *types.Var
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || id.Name != name {
			return true
		}
		if v, ok := c.pass.TypesInfo.Defs[id].(*types.Var); ok && isMutex(v.Type()) {
			found = v
		}
		return true
	})
	return found
}

// summarize computes which mutexes each function may lock and whether it
// may block, then closes both over the same-package call graph. Calls into
// other module packages contribute their exported facts.
func (c *checker) summarize() {
	info := c.pass.TypesInfo
	callees := make(map[*types.Func]map[*types.Func]bool)
	for fn, fd := range c.decls {
		acq := make(map[*types.Var]bool)
		calls := make(map[*types.Func]bool)
		inspectSkippingGo(fd.Body, func(n ast.Node) {
			switch n := n.(type) {
			case *ast.CallExpr:
				if mv, op := mutexOp(info, n); mv != nil && (op == "Lock" || op == "RLock") {
					acq[mv] = true
				} else if g := c.calleeIn(n); g != nil {
					calls[g] = true
				} else if ff, ok := c.importedFact(n); ok {
					c.locksX[fn] = c.locksX[fn] || ff.Locks
					c.blocks[fn] = c.blocks[fn] || ff.Blocks
				} else if blockingCall(info, n) != "" {
					c.blocks[fn] = true
				}
			case *ast.SendStmt:
				c.blocks[fn] = true
			case *ast.SelectStmt:
				if !hasDefaultClause(n.Body) {
					c.blocks[fn] = true
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					c.blocks[fn] = true
				}
			}
		})
		c.acquires[fn] = acq
		callees[fn] = calls
	}
	for changed := true; changed; {
		changed = false
		for fn, calls := range callees {
			for g := range calls {
				for mv := range c.acquires[g] {
					if !c.acquires[fn][mv] {
						c.acquires[fn][mv] = true
						changed = true
					}
				}
				if c.locksX[g] && !c.locksX[fn] {
					c.locksX[fn] = true
					changed = true
				}
				if c.blocks[g] && !c.blocks[fn] {
					c.blocks[fn] = true
					changed = true
				}
			}
		}
	}
}

// factKey names a function in its package's fact file: "Func" or
// "Type.Method".
func factKey(fn *types.Func) string {
	if recv := receiverNamed(fn); recv != "" {
		return recv + "." + fn.Name()
	}
	return fn.Name()
}

// exportFacts publishes the summaries of functions a downstream package can
// call (exported functions, and exported methods of exported types) and the
// annotations of exported fields of exported structs whose guard is a
// sibling field — the only shape a downstream package can both see and lock.
func (c *checker) exportFacts() {
	for fn := range c.decls {
		if !fn.Exported() {
			continue
		}
		if recv := receiverNamed(fn); recv != "" && !token.IsExported(recv) {
			continue
		}
		ff := funcFact{Locks: len(c.acquires[fn]) > 0 || c.locksX[fn], Blocks: c.blocks[fn]}
		if ff != (funcFact{}) {
			_ = c.pass.ExportFact(factKey(fn), ff)
		}
	}
	for v, gv := range c.annots {
		if !v.IsField() || !v.Exported() || !gv.IsField() {
			continue
		}
		owner := lint.FieldOwner(c.pass.Pkg, v)
		if owner == nil || !owner.Exported() || lint.FieldOwner(c.pass.Pkg, gv) != owner {
			continue
		}
		_ = c.pass.ExportFact(owner.Name()+"."+v.Name(), guardFact{Guard: gv.Name()})
	}
}

// importedFact returns the exported summary of a call into another module
// package, if it has one.
func (c *checker) importedFact(call *ast.CallExpr) (funcFact, bool) {
	fn := lint.CalleeFunc(c.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg() == c.pass.Pkg || !lint.InModule(fn.Pkg().Path()) {
		return funcFact{}, false
	}
	var ff funcFact
	ok := c.pass.ImportFact(fn.Pkg().Path(), factKey(fn), &ff)
	return ff, ok
}

// guardFor returns the guard mutex for v, consulting local annotations and —
// for fields imported from other module packages — exported facts.
func (c *checker) guardFor(v *types.Var) *types.Var {
	if gv, ok := c.annots[v]; ok {
		return gv
	}
	if !v.IsField() || v.Pkg() == nil || v.Pkg() == c.pass.Pkg || !lint.InModule(v.Pkg().Path()) {
		return nil
	}
	if gv, ok := c.foreign[v]; ok {
		return gv
	}
	var gv *types.Var
	if owner := lint.FieldOwner(v.Pkg(), v); owner != nil {
		var fact guardFact
		if c.pass.ImportFact(v.Pkg().Path(), owner.Name()+"."+v.Name(), &fact) {
			st := owner.Type().Underlying().(*types.Struct)
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Name() == fact.Guard {
					gv = f
					break
				}
			}
		}
	}
	c.foreign[v] = gv
	return gv
}

// collectValueRefs finds same-package functions referenced outside a direct
// call or go statement — stored, passed, compared — whose callers are
// therefore unknown.
func (c *checker) collectValueRefs() {
	info := c.pass.TypesInfo
	called := make(map[*ast.Ident]bool)
	for _, f := range c.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				switch fun := ast.Unparen(call.Fun).(type) {
				case *ast.Ident:
					called[fun] = true
				case *ast.SelectorExpr:
					called[fun.Sel] = true
				}
			}
			return true
		})
	}
	c.valueRefs = make(map[*types.Func]bool)
	for _, f := range c.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || called[id] {
				return true
			}
			if fn, ok := info.Uses[id].(*types.Func); ok {
				if _, declared := c.decls[fn]; declared {
					c.valueRefs[fn] = true
				}
			}
			return true
		})
	}
}

// inferRequiredHeld computes the per-function initial held sets: the
// intersection of the held sets at every observed call site, grown to a
// fixpoint (held sets only grow as callers' own initial sets grow, so the
// iteration terminates).
func (c *checker) inferRequiredHeld() {
	for {
		calleeHeld := make(map[*types.Func]heldSet)
		sawCall := make(map[*types.Func]bool)
		intersect := func(fn *types.Func, held heldSet) {
			if !sawCall[fn] {
				sawCall[fn] = true
				calleeHeld[fn] = held.clone()
				return
			}
			cur := calleeHeld[fn]
			for mv := range cur {
				if _, ok := held[mv]; !ok {
					delete(cur, mv)
				}
			}
		}
		c.walkAll(&walkConfig{
			Info: c.pass.TypesInfo,
			OnCall: func(call *ast.CallExpr, held heldSet) {
				if g := c.calleeIn(call); g != nil {
					intersect(g, held)
				}
			},
			OnGo: func(g *ast.GoStmt) {
				// A spawned function starts on a fresh stack: its effective
				// call-site held set is empty.
				if fn := c.calleeIn(g.Call); fn != nil {
					intersect(fn, heldSet{})
				}
			},
		})
		changed := false
		for fn := range c.decls {
			var next heldSet
			if fn.Exported() || c.valueRefs[fn] || !sawCall[fn] {
				next = heldSet{}
			} else {
				next = calleeHeld[fn]
			}
			if len(next) != len(c.requiredHeld[fn]) {
				changed = true
			}
			c.requiredHeld[fn] = next
		}
		if !changed {
			return
		}
	}
}

// walkAll runs the held-set walker over every declared function in source
// order, seeding each with its inferred initial held set.
func (c *checker) walkAll(cfg *walkConfig) {
	fns := make([]*types.Func, 0, len(c.decls))
	for fn := range c.decls {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return c.decls[fns[i]].Pos() < c.decls[fns[j]].Pos() })
	for _, fn := range fns {
		walkHeld(cfg, c.decls[fn].Body, c.requiredHeld[fn])
	}
}

// calleeIn resolves a call to a function declared in this package.
func (c *checker) calleeIn(call *ast.CallExpr) *types.Func {
	fn := lint.CalleeFunc(c.pass.TypesInfo, call)
	if fn == nil {
		return nil
	}
	if _, declared := c.decls[fn]; !declared {
		return nil
	}
	return fn
}

// report is the one checking walk per function.
func (c *checker) report() {
	c.walkAll(&walkConfig{
		Info: c.pass.TypesInfo,
		OnAcquire: func(call *ast.CallExpr, mv *types.Var, display string, held heldSet) {
			if heldAs, ok := held[mv]; ok {
				c.pass.Reportf(call.Pos(), "%s acquired while %s is already held; sync mutexes are not reentrant — this deadlocks at runtime", display, heldAs)
			} else if len(held) > 0 {
				c.pass.Reportf(call.Pos(), "%s acquired while %s is held; locks are leaves: release it first", display, names(held))
			}
		},
		OnBlocking: func(pos token.Pos, what string, held heldSet) {
			if len(held) > 0 {
				c.pass.Reportf(pos, "%s while %s is held; a blocked peer keeps the lock and stalls every contender", what, names(held))
			}
		},
		OnCall: c.applyCallee,
		OnUse: func(x ast.Expr, v *types.Var, held heldSet) {
			gv := c.guardFor(v)
			if gv == nil {
				return
			}
			if _, ok := held[gv]; !ok {
				c.pass.Reportf(x.Pos(), "%s accessed without holding %s (annotated: guarded by %s); acquire the lock, or reach this only from functions called with it held", exprDisplay(x), gv.Name(), gv.Name())
			}
		},
	})
}

// applyCallee checks a call made with locks held against the callee's
// summary: a same-package declaration's, or another module package's fact.
func (c *checker) applyCallee(call *ast.CallExpr, held heldSet) {
	if len(held) == 0 {
		return
	}
	var (
		reentered, others []string
		locksX, blocks    bool
	)
	if g := c.calleeIn(call); g != nil {
		for mv := range c.acquires[g] {
			if heldAs, ok := held[mv]; ok {
				reentered = append(reentered, heldAs)
			} else {
				others = append(others, mv.Name())
			}
		}
		locksX, blocks = c.locksX[g], c.blocks[g]
	} else if ff, ok := c.importedFact(call); ok {
		locksX, blocks = ff.Locks, ff.Blocks
	} else {
		return
	}
	display := exprDisplay(call.Fun)
	sort.Strings(reentered)
	for _, heldAs := range reentered {
		c.pass.Reportf(call.Pos(), "call to %s (re)acquires %s, which is already held here; sync mutexes are not reentrant — this deadlocks at runtime", display, heldAs)
	}
	if len(others) > 0 || locksX {
		what := "a mutex"
		if len(others) > 0 {
			sort.Strings(others)
			what = strings.Join(others, ", ")
		}
		c.pass.Reportf(call.Pos(), "call to %s acquires %s while %s is held; locks are leaves: release it first", display, what, names(held))
	}
	if blocks {
		c.pass.Reportf(call.Pos(), "call to %s may block while %s is held; every contender for the lock stalls until it returns", display, names(held))
	}
}

// names lists the held locks by the names they were locked under.
func names(held heldSet) string {
	return strings.Join(held.sorted(), ", ")
}
