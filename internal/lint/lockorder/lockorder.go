// Package lockorder defines the repo-wide lock-acquisition checker. It walks
// each function in statement order tracking the set of held mutexes (via the
// shared heldset engine), follows same-package calls through transitive
// acquisition summaries and cross-package calls through exported facts, and
// reports three classes of deadlock risk the race detector can only find if a
// test happens to interleave badly:
//
//   - inconsistent order: mutex B acquired while A is held in one place and
//     A while B is held in another — including longer cycles assembled from
//     edges in several packages;
//   - re-entry: a mutex (re)acquired — directly or through a callee — while
//     already held (sync.Mutex is not reentrant);
//   - held-across-blocking: a blocking operation (channel send/receive,
//     select, sync.WaitGroup.Wait, net Accept, time.Sleep) reached with a
//     mutex held, stalling every contender for as long as the peer takes.
//
// Every lock is given a canonical name ("signaling.Server.mu",
// "obs.AuditLog.mu") so acquisition edges compose across packages: each
// package exports its accumulated edge set as a fact, downstream packages
// union it with their own edges, and cycle detection runs over the combined
// graph. The -lockgraph flag additionally emits every locally-recorded edge
// as a machine-parseable diagnostic, which the standalone driver's
// -format=dot mode assembles into a Graphviz dump of the whole-program lock
// graph.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"fafnet/internal/lint"
	"fafnet/internal/lint/heldset"
)

// emitGraph is set by the -lockgraph flag: emit one "lockgraph-edge: A -> B"
// diagnostic per locally-recorded acquisition edge.
var emitGraph bool

// EdgePrefix introduces the machine-parseable edge diagnostics emitted under
// -lockgraph; the driver's -format=dot mode filters and parses them.
const EdgePrefix = lint.LockGraphEdgePrefix

// Analyzer reports inconsistent mutex orderings and mutex-held blocking
// calls.
var Analyzer = &lint.Analyzer{
	Name: "lockorder",
	Doc: `flag inconsistent mutex acquisition orders and blocking calls under a lock

Across the whole module the analyzer tracks, per function and in statement
order, which sync.Mutex/RWMutex objects are held (keyed by field or variable
identity, so s.mu in one method and srv.mu in another are the same lock).
Same-package calls contribute their transitive acquisitions; calls into other
module packages contribute the acquisition and blocking facts those packages
exported. It reports opposite-order acquisition pairs (including multi-edge
cycles through the combined cross-package edge graph), re-entrant locking,
and channel operations, selects, WaitGroup.Wait, net Accept and time.Sleep
executed while a mutex is held. Branches merge conservatively (intersection),
and goroutine bodies start with an empty held set.`,
	Run:          run,
	ExportsFacts: true,
	FactTypes:    []string{"funcFact", "edgeFact"},
	Flags: []lint.BoolFlag{{
		Name:  "lockgraph",
		Usage: "emit lock-acquisition edges as diagnostics (used by -format=dot)",
		Value: &emitGraph,
	}},
}

// funcFact is the exported per-function summary: the canonical names of every
// mutex the function may (transitively) acquire, and whether it may block.
type funcFact struct {
	Acquires []string `json:"acquires,omitempty"`
	Blocks   bool     `json:"blocks,omitempty"`
}

// edgeFact is one acquisition-order edge in canonical names: To was acquired
// while From was held.
type edgeFact struct {
	From string `json:"from"`
	To   string `json:"to"`
}

func run(pass *lint.Pass) error {
	if !lint.InModule(pass.Pkg.Path()) {
		return nil
	}
	c := &checker{
		pass:      pass,
		decls:     make(map[*types.Func]*ast.FuncDecl),
		acquires:  make(map[*types.Func]map[*types.Var]bool),
		acquiresX: make(map[*types.Func]map[string]bool),
		blocks:    make(map[*types.Func]bool),
		edges:     make(map[[2]string]*edge),
		imported:  make(map[[2]string]bool),
		canon:     make(map[*types.Var]string),
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
	c.importEdges()
	c.summarize()
	// Walk bodies in source order so the "first" edge per mutex pair is the
	// lexically earliest one, independent of map iteration order.
	var fds []*ast.FuncDecl
	for _, fd := range c.decls {
		fds = append(fds, fd)
	}
	sort.Slice(fds, func(i, j int) bool { return fds[i].Pos() < fds[j].Pos() })
	for _, fd := range fds {
		c.fnName = fd.Name.Name
		heldset.Walk(c.walkConfig(), fd.Body, nil)
	}
	c.reportCycles()
	c.exportFacts()
	if emitGraph {
		c.emitEdges()
	}
	return nil
}

// edge records one locally observed acquisition order: to was acquired while
// from was held.
type edge struct {
	pos        token.Pos
	fromD, toD string // display names at the recording site
}

type checker struct {
	pass  *lint.Pass
	decls map[*types.Func]*ast.FuncDecl

	// acquires is the transitive set of mutexes each same-package function
	// may lock; acquiresX the canonical names acquired through calls into
	// other module packages (known only by their exported facts); blocks
	// marks functions that may execute a blocking operation. All exclude
	// goroutine bodies (they run on their own stack, with their own held
	// set).
	acquires  map[*types.Func]map[*types.Var]bool
	acquiresX map[*types.Func]map[string]bool
	blocks    map[*types.Func]bool

	// edges holds locally recorded acquisition edges keyed by canonical name
	// pair; imported holds edges learned from dependency facts (no local
	// position).
	edges    map[[2]string]*edge
	imported map[[2]string]bool

	canon  map[*types.Var]string
	fnName string // function currently being walked, for local-lock names
}

// importEdges unions the edge sets every module dependency exported.
func (c *checker) importEdges() {
	for _, imp := range c.pass.Pkg.Imports() {
		path := imp.Path()
		if !lint.InModule(path) {
			continue
		}
		var edges []edgeFact
		if c.pass.ImportFact(path, "edges", &edges) {
			for _, e := range edges {
				c.imported[[2]string{e.From, e.To}] = true
			}
		}
	}
}

// canonical names a mutex object stably across packages: pkg.Type.field for
// struct fields, pkg.var for package-level variables, pkg.func.var for
// locals (which cannot be referenced cross-package, but still appear in the
// lock graph).
func (c *checker) canonical(v *types.Var) string {
	if s, ok := c.canon[v]; ok {
		return s
	}
	s := c.computeCanonical(v)
	c.canon[v] = s
	return s
}

func (c *checker) computeCanonical(v *types.Var) string {
	pkg := v.Pkg()
	if pkg == nil {
		return v.Name()
	}
	short := lint.ShortPkg(pkg.Path())
	if v.IsField() {
		if owner := lint.FieldOwner(pkg, v); owner != nil {
			return short + "." + owner.Name() + "." + v.Name()
		}
		return short + "." + v.Name()
	}
	if v.Parent() == pkg.Scope() {
		return short + "." + v.Name()
	}
	// A local: qualify with the enclosing function when known. Locals are
	// only ever named while walking their own package.
	if pkg == c.pass.Pkg && c.fnName != "" {
		return short + "." + c.fnName + "." + v.Name()
	}
	return short + "." + v.Name()
}

// factFor looks up the exported summary of a function in another module
// package.
func (c *checker) factFor(fn *types.Func) (funcFact, bool) {
	pkg := fn.Pkg()
	if pkg == nil || pkg == c.pass.Pkg {
		return funcFact{}, false
	}
	path := pkg.Path()
	if !lint.InModule(path) {
		return funcFact{}, false
	}
	key := fn.Name()
	if recv := heldset.ReceiverNamed(fn); recv != "" {
		key = recv + "." + fn.Name()
	}
	var ff funcFact
	ok := c.pass.ImportFact(path, key, &ff)
	return ff, ok
}

// summarize computes direct acquisition/blocking facts per function, then
// closes them over the same-package call graph. Calls into other module
// packages contribute the canonical acquisitions and blocking flag from
// their exported facts.
func (c *checker) summarize() {
	info := c.pass.TypesInfo
	callees := make(map[*types.Func]map[*types.Func]bool)
	for fn, fd := range c.decls {
		acq := make(map[*types.Var]bool)
		acqX := make(map[string]bool)
		calls := make(map[*types.Func]bool)
		blocks := false
		heldset.InspectSkippingGo(fd.Body, func(n ast.Node) {
			switch n := n.(type) {
			case *ast.CallExpr:
				if mv, op := heldset.MutexOp(info, n); mv != nil && (op == "Lock" || op == "RLock") {
					acq[mv] = true
				} else if g := c.calleeIn(n); g != nil {
					calls[g] = true
				} else if ff, ok := c.importedCallee(n); ok {
					for _, a := range ff.Acquires {
						acqX[a] = true
					}
					if ff.Blocks {
						blocks = true
					}
				} else if heldset.BlockingCall(info, n) != "" {
					blocks = true
				}
			case *ast.SendStmt:
				blocks = true
			case *ast.SelectStmt:
				if !heldset.HasDefaultClause(n.Body) {
					blocks = true
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					blocks = true
				}
			}
		})
		c.acquires[fn] = acq
		c.acquiresX[fn] = acqX
		c.blocks[fn] = blocks
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
				for a := range c.acquiresX[g] {
					if !c.acquiresX[fn][a] {
						c.acquiresX[fn][a] = true
						changed = true
					}
				}
				if c.blocks[g] && !c.blocks[fn] {
					c.blocks[fn] = true
					changed = true
				}
			}
		}
	}
}

// calleeIn resolves a call to a function declared in this package.
func (c *checker) calleeIn(call *ast.CallExpr) *types.Func {
	fn := lint.CalleeFunc(c.pass.TypesInfo, call)
	if fn == nil {
		return nil
	}
	if _, ok := c.decls[fn]; !ok {
		return nil
	}
	return fn
}

// importedCallee resolves a call to a function in another module package and
// returns its exported summary, if any.
func (c *checker) importedCallee(call *ast.CallExpr) (funcFact, bool) {
	fn := lint.CalleeFunc(c.pass.TypesInfo, call)
	if fn == nil {
		return funcFact{}, false
	}
	return c.factFor(fn)
}

// walkConfig wires the shared held-set walker to this checker's reporting.
func (c *checker) walkConfig() *heldset.Config {
	return &heldset.Config{
		Info: c.pass.TypesInfo,
		OnReenter: func(call *ast.CallExpr, mv *types.Var, display, heldAs string) {
			c.pass.Reportf(call.Pos(), "%s acquired while %s is already held; sync mutexes are not reentrant — this deadlocks at runtime", display, heldAs)
		},
		OnAcquire: func(call *ast.CallExpr, mv *types.Var, display string, held heldset.Held) {
			for hv, heldAs := range held {
				c.recordEdge(c.canonical(hv), c.canonical(mv), heldAs, display, call.Pos())
			}
		},
		OnBlocking: func(pos token.Pos, what string, held heldset.Held) {
			for _, heldAs := range held.Sorted() {
				c.pass.Reportf(pos, "%s while %s is held; a blocked peer keeps the lock and stalls every contender", what, heldAs)
			}
		},
		OnCall: func(call *ast.CallExpr, held heldset.Held) {
			c.applyCallee(call, held)
		},
	}
}

// applyCallee applies a callee's (transitive) acquisition and blocking
// summary — from same-package declarations or cross-package facts — to the
// current held set.
func (c *checker) applyCallee(call *ast.CallExpr, held heldset.Held) {
	var (
		acqVars map[*types.Var]bool
		acqStrs map[string]bool
		blocks  bool
	)
	if g := c.calleeIn(call); g != nil {
		acqVars, acqStrs, blocks = c.acquires[g], c.acquiresX[g], c.blocks[g]
	} else if ff, ok := c.importedCallee(call); ok {
		acqStrs = make(map[string]bool, len(ff.Acquires))
		for _, a := range ff.Acquires {
			acqStrs[a] = true
		}
		blocks = ff.Blocks
	} else {
		return
	}
	display := heldset.ExprDisplay(call.Fun)
	for hv, heldAs := range held {
		hc := c.canonical(hv)
		for acq := range acqVars {
			if acq == hv {
				c.pass.Reportf(call.Pos(), "call to %s (re)acquires %s, which is already held here; sync mutexes are not reentrant — this deadlocks at runtime", display, heldAs)
				continue
			}
			c.recordEdge(hc, c.canonical(acq), heldAs, display+"'s "+acq.Name(), call.Pos())
		}
		for acq := range acqStrs {
			if acq == hc {
				c.pass.Reportf(call.Pos(), "call to %s (re)acquires %s, which is already held here; sync mutexes are not reentrant — this deadlocks at runtime", display, heldAs)
				continue
			}
			c.recordEdge(hc, acq, heldAs, acq, call.Pos())
		}
		if blocks {
			c.pass.Reportf(call.Pos(), "call to %s may block while %s is held; every contender for the lock stalls until it returns", display, heldAs)
		}
	}
}

// recordEdge notes that `to` was acquired while `from` was held, keeping
// the first observation per ordered pair.
func (c *checker) recordEdge(from, to string, fromD, toD string, pos token.Pos) {
	key := [2]string{from, to}
	if prev, ok := c.edges[key]; ok && prev.pos <= pos {
		return
	}
	c.edges[key] = &edge{pos: pos, fromD: fromD, toD: toD}
}

// reportCycles reports every acquisition cycle in the combined local +
// imported edge graph, once per cycle, anchored at the lexically earliest
// local edge. The two-edge case keeps the classic "opposite order" message;
// longer cycles — possible once edges compose across packages — spell out
// the path.
func (c *checker) reportCycles() {
	// Deterministic adjacency: sorted nodes, sorted successors.
	succ := make(map[string][]string)
	addEdge := func(from, to string) {
		succ[from] = append(succ[from], to)
	}
	for key := range c.edges {
		addEdge(key[0], key[1])
	}
	for key := range c.imported {
		if _, dup := c.edges[key]; !dup {
			addEdge(key[0], key[1])
		}
	}
	for _, tos := range succ {
		sort.Strings(tos)
	}

	var keys [][2]string
	for key := range c.edges {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, key := range keys {
		e := c.edges[key]
		path := shortestPath(succ, key[1], key[0])
		if path == nil {
			continue
		}
		// The full cycle is e plus the return path. Report it only from the
		// lexically earliest local edge so each cycle appears once.
		cycle := append([][2]string{key}, pairs(path)...)
		earliest := e.pos
		for _, ck := range cycle {
			if le, ok := c.edges[ck]; ok && le.pos < earliest {
				earliest = le.pos
			}
		}
		if earliest != e.pos {
			continue
		}
		if len(path) == 2 { // direct two-edge cycle: path is [to, from]
			rev := [2]string{key[1], key[0]}
			if le, ok := c.edges[rev]; ok {
				other := c.pass.Fset.Position(le.pos)
				c.pass.Reportf(e.pos, "inconsistent lock order: %s acquired while %s is held here, but the opposite order appears at %s; concurrent callers can deadlock", e.toD, e.fromD, other)
			} else {
				c.pass.Reportf(e.pos, "inconsistent lock order: %s acquired while %s is held here, but the opposite order is established in a dependency package (%s -> %s); concurrent callers can deadlock", e.toD, e.fromD, key[1], key[0])
			}
			continue
		}
		c.pass.Reportf(e.pos, "lock-order cycle: %s -> %s; concurrent callers can deadlock", key[0], strings.Join(path, " -> "))
	}
}

// shortestPath returns the node sequence from `from` to `to` (inclusive of
// both) over succ, or nil. BFS over sorted successors keeps it deterministic.
func shortestPath(succ map[string][]string, from, to string) []string {
	if from == to {
		return []string{from}
	}
	prev := map[string]string{from: ""}
	queue := []string{from}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, m := range succ[n] {
			if _, seen := prev[m]; seen {
				continue
			}
			prev[m] = n
			if m == to {
				var path []string
				for at := to; at != ""; at = prev[at] {
					path = append(path, at)
					if at == from {
						break
					}
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			queue = append(queue, m)
		}
	}
	return nil
}

// pairs converts a node path to its edge list.
func pairs(path []string) [][2]string {
	var out [][2]string
	for i := 0; i+1 < len(path); i++ {
		out = append(out, [2]string{path[i], path[i+1]})
	}
	return out
}

// exportFacts publishes the per-function acquisition summaries (exported
// functions and methods on exported types only — nothing else is callable
// from downstream packages) and the package's accumulated edge set.
func (c *checker) exportFacts() {
	var fns []*types.Func
	for fn := range c.decls {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Name() < fns[j].Name() })
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
		var acq []string
		for mv := range c.acquires[fn] {
			acq = append(acq, c.canonical(mv))
		}
		for a := range c.acquiresX[fn] {
			acq = append(acq, a)
		}
		acq = dedupeSorted(acq)
		if len(acq) == 0 && !c.blocks[fn] {
			continue
		}
		_ = c.pass.ExportFact(key, funcFact{Acquires: acq, Blocks: c.blocks[fn]})
	}

	all := make(map[[2]string]bool, len(c.edges)+len(c.imported))
	for key := range c.edges {
		all[key] = true
	}
	for key := range c.imported {
		all[key] = true
	}
	if len(all) == 0 {
		return
	}
	var out []edgeFact
	for key := range all {
		out = append(out, edgeFact{From: key[0], To: key[1]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	_ = c.pass.ExportFact("edges", out)
}

func dedupeSorted(ss []string) []string {
	sort.Strings(ss)
	var out []string
	for _, s := range ss {
		if len(out) == 0 || out[len(out)-1] != s {
			out = append(out, s)
		}
	}
	return out
}

// emitEdges reports every locally-recorded edge as a machine-parseable
// diagnostic for the driver's -format=dot mode.
func (c *checker) emitEdges() {
	var keys [][2]string
	for key := range c.edges {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, key := range keys {
		c.pass.Reportf(c.edges[key].pos, "%s%s -> %s", EdgePrefix, key[0], key[1])
	}
}
