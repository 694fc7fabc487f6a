// Package guardedby checks `// guarded by <mu>` annotations: every read or
// write of an annotated struct field, package variable or local must happen
// with the named sync.Mutex/RWMutex provably held.
//
// The proof uses the shared heldset dataflow (the same engine as lockorder)
// plus one interprocedural step: a fixpoint over same-package call sites
// computes, for each unexported function that is never referenced as a
// value, the set of locks held at *every* call site — so a helper like
// maybeDrainedLocked, only ever invoked under connMu, is analyzed with
// connMu in its initial held set instead of being flagged line by line.
// Exported functions and functions whose address escapes start from an empty
// held set (their callers are unknown).
//
// Annotations on exported fields of exported structs are published as facts,
// so a downstream package touching such a field without the lock is flagged
// too. Deferred closures are walked with the held set at the defer
// statement; stored closures with an empty held set (their eventual caller's
// locks are unknown).
package guardedby

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"

	"fafnet/internal/lint"
	"fafnet/internal/lint/heldset"
)

// Analyzer reports accesses to guarded-by-annotated state without the lock.
var Analyzer = &lint.Analyzer{
	Name: "guardedby",
	Doc: `flag access to '// guarded by <mu>' annotated state without the mutex held

A comment "guarded by <mu>" on a struct field, package variable or local
variable declaration names the sync.Mutex/RWMutex that must be held at every
read or write. The analyzer tracks the held set in statement order (branches
merge by intersection, goroutine bodies start empty) and infers, for
unexported functions never used as values, the locks held at all call sites.
Annotations on exported fields of exported structs propagate to downstream
packages via facts. Struct-literal construction is exempt — a value being
built is not yet shared.`,
	Run:          run,
	ExportsFacts: true,
	FactTypes:    []string{"guardFact"},
}

// annotRe extracts the guard name from a declaration comment.
var annotRe = regexp.MustCompile(`\bguarded by ([A-Za-z_][A-Za-z0-9_]*)`)

// guardFact is the exported annotation for one exported struct field: the
// name of the sibling field that guards it.
type guardFact struct {
	Guard string `json:"guard"`
}

func run(pass *lint.Pass) error {
	if !lint.InModule(pass.Pkg.Path()) {
		return nil
	}
	c := &checker{
		pass:         pass,
		decls:        make(map[*types.Func]*ast.FuncDecl),
		annots:       make(map[*types.Var]*types.Var),
		foreign:      make(map[*types.Var]*types.Var),
		requiredHeld: make(map[*types.Func]heldset.Held),
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
	c.exportFacts()
	c.collectValueRefs()
	c.inferRequiredHeld()
	c.report()
	return nil
}

type checker struct {
	pass  *lint.Pass
	decls map[*types.Func]*ast.FuncDecl

	// annots maps each annotated variable or field to its guard mutex.
	annots map[*types.Var]*types.Var
	// foreign caches guard lookups for imported fields (nil = no annotation).
	foreign map[*types.Var]*types.Var
	// valueRefs marks same-package functions referenced outside a direct
	// call; their callers are unknowable, so they get an empty initial held
	// set.
	valueRefs map[*types.Func]bool
	// requiredHeld is the inferred initial held set per function: the locks
	// held at every observed call site.
	requiredHeld map[*types.Func]heldset.Held

	reporting bool
}

// mutexVar reports whether t is (a pointer to) sync.Mutex or sync.RWMutex.
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
						st, ok := spec.Type.(*ast.StructType)
						if !ok {
							continue
						}
						c.collectStruct(st)
					case *ast.ValueSpec:
						// A single-spec `var x T` attaches its doc comment to
						// the GenDecl, not the spec.
						doc := spec.Doc
						if doc == nil && len(d.Specs) == 1 {
							doc = d.Doc
						}
						guard := annotationIn(doc, spec.Comment)
						if guard == "" {
							continue
						}
						gv := c.packageMutex(guard)
						c.bindSpec(spec, guard, gv)
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
						doc := vs.Doc
						if doc == nil && len(gd.Specs) == 1 {
							doc = gd.Doc
						}
						guard := annotationIn(doc, vs.Comment)
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

// collectStruct resolves guarded-by annotations on the fields of one struct
// type: the guard must be a sibling field or a package-level mutex.
func (c *checker) collectStruct(st *ast.StructType) {
	info := c.pass.TypesInfo
	// Guard candidates: the struct's own mutex fields by name.
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

// exportFacts publishes annotations on exported fields of exported structs
// whose guard is a sibling field — the only shape a downstream package can
// both see and lock.
func (c *checker) exportFacts() {
	type entry struct {
		key   string
		guard string
	}
	var out []entry
	for v, gv := range c.annots {
		if !v.IsField() || !v.Exported() || !gv.IsField() {
			continue
		}
		owner := lint.FieldOwner(c.pass.Pkg, v)
		if owner == nil || !owner.Exported() {
			continue
		}
		// The guard must live in the same struct for a downstream selector
		// chain to reach it.
		if lint.FieldOwner(c.pass.Pkg, gv) != owner {
			continue
		}
		out = append(out, entry{owner.Name() + "." + v.Name(), gv.Name()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	for _, e := range out {
		_ = c.pass.ExportFact(e.key, guardFact{Guard: e.guard})
	}
}

// guardFor returns the guard mutex for v, consulting local annotations and —
// for fields imported from other module packages — exported facts.
func (c *checker) guardFor(v *types.Var) *types.Var {
	if gv, ok := c.annots[v]; ok {
		return gv
	}
	if !v.IsField() || v.Pkg() == nil || v.Pkg() == c.pass.Pkg {
		return nil
	}
	path := v.Pkg().Path()
	if !lint.InModule(path) {
		return nil
	}
	if gv, ok := c.foreign[v]; ok {
		return gv
	}
	var gv *types.Var
	if owner := lint.FieldOwner(v.Pkg(), v); owner != nil {
		var fact guardFact
		if c.pass.ImportFact(path, owner.Name()+"."+v.Name(), &fact) {
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
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				called[fun] = true
			case *ast.SelectorExpr:
				called[fun.Sel] = true
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
		calleeHeld := make(map[*types.Func]heldset.Held)
		sawCall := make(map[*types.Func]bool)
		intersect := func(fn *types.Func, held heldset.Held) {
			if !sawCall[fn] {
				sawCall[fn] = true
				calleeHeld[fn] = held.Clone()
				return
			}
			cur := calleeHeld[fn]
			for mv := range cur {
				if _, ok := held[mv]; !ok {
					delete(cur, mv)
				}
			}
		}
		c.walkAll(&heldset.Config{
			Info: c.pass.TypesInfo,
			OnCall: func(call *ast.CallExpr, held heldset.Held) {
				if g := c.calleeIn(call); g != nil {
					intersect(g, held)
				}
			},
			OnGo: func(g *ast.GoStmt) {
				// A spawned function starts on a fresh stack: its effective
				// call-site held set is empty.
				if fn := c.calleeIn(g.Call); fn != nil {
					intersect(fn, heldset.Held{})
				}
			},
			WalkDeferredClosures: true,
			WalkStoredClosures:   true,
		})
		changed := false
		for fn := range c.decls {
			var next heldset.Held
			if fn.Exported() || c.valueRefs[fn] || !sawCall[fn] {
				next = heldset.Held{}
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

// walkAll runs the held-set walker over every declared function, seeding
// each with its inferred initial held set.
func (c *checker) walkAll(cfg *heldset.Config) {
	var fds []*ast.FuncDecl
	byPos := make(map[*ast.FuncDecl]*types.Func)
	for fn, fd := range c.decls {
		fds = append(fds, fd)
		byPos[fd] = fn
	}
	sort.Slice(fds, func(i, j int) bool { return fds[i].Pos() < fds[j].Pos() })
	for _, fd := range fds {
		heldset.Walk(cfg, fd.Body, c.requiredHeld[byPos[fd]])
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

// report runs the final pass: every use of an annotated variable is checked
// against the held set at the access.
func (c *checker) report() {
	c.walkAll(&heldset.Config{
		Info: c.pass.TypesInfo,
		OnUse: func(x ast.Expr, v *types.Var, held heldset.Held) {
			gv := c.guardFor(v)
			if gv == nil {
				return
			}
			if _, ok := held[gv]; ok {
				return
			}
			c.pass.Reportf(x.Pos(), "%s accessed without holding %s (annotated: guarded by %s); acquire the lock, or reach this only from functions called with it held", heldset.ExprDisplay(x), gv.Name(), gv.Name())
		},
		WalkDeferredClosures: true,
		WalkStoredClosures:   true,
	})
}
