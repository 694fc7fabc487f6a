package locks

// This file is the held-mutex dataflow engine: resolution helpers that
// identify sync.Mutex/RWMutex operations and the variable or field object
// behind a lock expression, so every instance path (s.mu in one method,
// srv.mu in another) names the same lock; and a statement-order walker that
// tracks the set of held mutexes through a function body — branches merge
// conservatively (intersection), deferred unlocks keep the lock held for the
// rest of the body, goroutine bodies start with an empty held set — and
// reports each interesting event (acquire, blocking operation, call, variable
// use) to the checker's hooks together with the held set at that point.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"fafnet/internal/lint"
)

// heldSet maps each held mutex object to the display name it was locked
// under (s.mu, reg.mu). Hooks must treat it as read-only.
type heldSet map[*types.Var]string

// clone returns an independent copy of h.
func (h heldSet) clone() heldSet {
	c := make(heldSet, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

// sorted returns the held display names in deterministic order.
func (h heldSet) sorted() []string {
	var names []string
	for _, n := range h {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// walkConfig parameterizes one walk. All hooks are optional.
type walkConfig struct {
	Info *types.Info

	// OnAcquire fires for every m.Lock/m.RLock with the held set before mv
	// is added; held already contains mv when the lock is re-entered.
	OnAcquire func(call *ast.CallExpr, mv *types.Var, display string, held heldSet)
	// OnBlocking fires on a potentially-parking operation (channel send or
	// receive, select without default, WaitGroup.Wait, net Accept, time.Sleep).
	OnBlocking func(pos token.Pos, what string, held heldSet)
	// OnCall fires for calls that are neither mutex operations nor recognized
	// blocking calls — the place to apply callee summaries.
	OnCall func(call *ast.CallExpr, held heldSet)
	// OnUse fires for every identifier or field selection that resolves to a
	// variable, with the held set at the access. Both reads and writes fire.
	OnUse func(x ast.Expr, v *types.Var, held heldSet)
	// OnGo fires for each go statement; the spawned literal's body is then
	// walked with a fresh empty held set.
	OnGo func(g *ast.GoStmt)
}

// walkHeld runs the held-set dataflow over one function body starting from
// the given held set (nil means empty). initial is not mutated.
func walkHeld(cfg *walkConfig, body *ast.BlockStmt, initial heldSet) {
	if initial == nil {
		initial = heldSet{}
	}
	w := &walker{cfg: cfg, held: initial.clone()}
	w.block(body)
}

// mutexOp recognizes m.Lock / m.RLock / m.Unlock / m.RUnlock calls on a
// sync.Mutex or sync.RWMutex and resolves the mutex's identity (field or
// variable object).
func mutexOp(info *types.Info, call *ast.CallExpr) (*types.Var, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, ""
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return nil, ""
	}
	if recv := receiverNamed(fn); recv != "Mutex" && recv != "RWMutex" {
		return nil, ""
	}
	return lint.ResolveVar(info, sel.X), fn.Name()
}

// receiverNamed returns the name of a method's receiver type, or "".
func receiverNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// blockingCall names the blocking operation a call performs, or "".
func blockingCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Sleep" {
			return "time.Sleep"
		}
	case "sync":
		if fn.Name() == "Wait" {
			return receiverNamed(fn) + ".Wait"
		}
	case "net":
		if fn.Name() == "Accept" {
			return "net Accept"
		}
	}
	return ""
}

// hasDefaultClause reports whether a select body contains a default clause
// (making the select non-blocking).
func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, cc := range body.List {
		if c, ok := cc.(*ast.CommClause); ok && c.Comm == nil {
			return true
		}
	}
	return false
}

// inspectSkippingGo visits body without descending into goroutine bodies
// (they run on their own stack, with their own held set).
func inspectSkippingGo(body ast.Node, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			// Visit the call's arguments (evaluated on this stack) but not
			// the spawned function literal's body.
			for _, arg := range g.Call.Args {
				inspectSkippingGo(arg, visit)
			}
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// exprDisplay renders a (selector) expression for diagnostics: s.mu.Lock →
// "s.mu", srv.Close → "srv.Close".
func exprDisplay(x ast.Expr) string {
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		if base := exprDisplay(x.X); base != "" {
			return base + "." + x.Sel.Name
		}
		return x.Sel.Name
	}
	return "<expr>"
}

// walker tracks the held-mutex set through one function body in statement
// order.
type walker struct {
	cfg  *walkConfig
	held heldSet
	// terminated marks a branch that returned/branched out; merges skip it.
	terminated bool
}

func (w *walker) clone() *walker {
	return &walker{cfg: w.cfg, held: w.held.clone()}
}

// mergeBranches replaces held with the intersection of the surviving
// branches (plus the fallthrough state, if any — the path that took no
// branch).
func (w *walker) mergeBranches(branches []*walker, fallthroughState heldSet) {
	var live []heldSet
	for _, b := range branches {
		if !b.terminated {
			live = append(live, b.held)
		}
	}
	if fallthroughState != nil {
		live = append(live, fallthroughState)
	}
	if len(live) == 0 {
		w.terminated = true
		return
	}
	merged := make(heldSet)
	for k, v := range live[0] {
		inAll := true
		for _, other := range live[1:] {
			if _, ok := other[k]; !ok {
				inAll = false
				break
			}
		}
		if inAll {
			merged[k] = v
		}
	}
	w.held = merged
}

func (w *walker) block(b *ast.BlockStmt) {
	for _, s := range b.List {
		if w.terminated {
			return
		}
		w.stmt(s)
	}
}

func (w *walker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			w.expr(r)
		}
		for _, l := range s.Lhs {
			w.expr(l)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, sp := range gd.Specs {
				if vs, ok := sp.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v)
					}
				}
			}
		}
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
		w.blockingOp(s.Arrow, "channel send")
	case *ast.IncDecStmt:
		w.expr(s.X)
	case *ast.DeferStmt:
		// A deferred Unlock releases at return, so the lock stays held
		// through the remainder of the body, which is exactly what leaving
		// the held set untouched models. A deferred closure is walked with
		// the held set at the defer statement: the cleanup-under-lock shape
		// (lock, defer a closure that reads then unlocks). Other deferred
		// calls do not run here.
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			for _, arg := range s.Call.Args {
				w.expr(arg)
			}
			d := w.clone()
			d.block(lit.Body)
		}
	case *ast.GoStmt:
		for _, arg := range s.Call.Args {
			w.expr(arg)
		}
		if w.cfg.OnGo != nil {
			w.cfg.OnGo(s)
		}
		// The spawned body runs on its own stack with nothing held.
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			g := &walker{cfg: w.cfg, held: heldSet{}}
			g.block(lit.Body)
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r)
		}
		w.terminated = true
	case *ast.BranchStmt:
		w.terminated = true
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.expr(s.Cond)
		body := w.clone()
		body.block(s.Body)
		branches := []*walker{body}
		var fallthroughState heldSet
		if s.Else != nil {
			els := w.clone()
			els.stmt(s.Else)
			branches = append(branches, els)
		} else {
			fallthroughState = w.held
		}
		w.mergeBranches(branches, fallthroughState)
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Cond != nil {
			w.expr(s.Cond)
		}
		body := w.clone()
		body.block(s.Body)
		if s.Post != nil && !body.terminated {
			body.stmt(s.Post)
		}
		// heldSet set after a loop: conservative, what we held going in.
	case *ast.RangeStmt:
		w.expr(s.X)
		if t := w.cfg.Info.Types[s.X].Type; t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				w.blockingOp(s.For, "channel receive (range)")
			}
		}
		body := w.clone()
		body.block(s.Body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Tag != nil {
			w.expr(s.Tag)
		}
		w.caseClauses(s.Body)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.caseClauses(s.Body)
	case *ast.SelectStmt:
		// A select with a default clause never parks the goroutine.
		if !hasDefaultClause(s.Body) {
			w.blockingOp(s.Pos(), "select")
		}
		w.caseClauses(s.Body)
	case *ast.BlockStmt:
		w.block(s)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	}
}

// caseClauses walks each clause body on a clone and merges the survivors;
// the pre state rides along as the implicit no-case-taken path.
func (w *walker) caseClauses(body *ast.BlockStmt) {
	var branches []*walker
	for _, cc := range body.List {
		b := w.clone()
		switch cc := cc.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				b.expr(e)
			}
			for _, s := range cc.Body {
				if b.terminated {
					break
				}
				b.stmt(s)
			}
		case *ast.CommClause:
			// The comm statement's channel op is part of the select itself
			// (already reported, or non-blocking under a default clause), so
			// only the clause body is walked.
			for _, s := range cc.Body {
				if b.terminated {
					break
				}
				b.stmt(s)
			}
		}
		branches = append(branches, b)
	}
	w.mergeBranches(branches, w.held)
}

// expr walks an expression in evaluation order, handling calls, channel
// receives and variable uses.
func (w *walker) expr(x ast.Expr) {
	switch x := x.(type) {
	case *ast.ParenExpr:
		w.expr(x.X)
	case *ast.UnaryExpr:
		w.expr(x.X)
		if x.Op == token.ARROW {
			w.blockingOp(x.OpPos, "channel receive")
		}
	case *ast.BinaryExpr:
		w.expr(x.X)
		w.expr(x.Y)
	case *ast.StarExpr:
		w.expr(x.X)
	case *ast.SelectorExpr:
		w.expr(x.X)
		w.use(x)
	case *ast.Ident:
		w.use(x)
	case *ast.IndexExpr:
		w.expr(x.X)
		w.expr(x.Index)
	case *ast.SliceExpr:
		w.expr(x.X)
	case *ast.TypeAssertExpr:
		w.expr(x.X)
	case *ast.KeyValueExpr:
		w.expr(x.Value)
	case *ast.CompositeLit:
		for _, e := range x.Elts {
			w.expr(e)
		}
	case *ast.CallExpr:
		for _, a := range x.Args {
			w.expr(a)
		}
		switch fun := ast.Unparen(x.Fun).(type) {
		case *ast.SelectorExpr:
			w.expr(fun.X)
		case *ast.FuncLit:
			// Immediately-invoked literal: its body runs right here, with
			// whatever is currently held.
			w.block(fun.Body)
		}
		w.call(x)
	case *ast.FuncLit:
		// A literal that is not (statically) invoked here: its body runs
		// later, under unknown locks, so it is walked with nothing held.
		g := &walker{cfg: w.cfg, held: heldSet{}}
		g.block(x.Body)
	}
}

// use reports a variable or field access to the OnUse hook.
func (w *walker) use(x ast.Expr) {
	if w.cfg.OnUse == nil {
		return
	}
	if v := lint.ResolveVar(w.cfg.Info, x); v != nil {
		w.cfg.OnUse(x, v, w.held)
	}
}

// call applies the lock semantics of one call with the current held set.
func (w *walker) call(call *ast.CallExpr) {
	if mv, op := mutexOp(w.cfg.Info, call); mv != nil {
		// mutexOp guarantees Fun is a selector; display the receiver chain
		// (s.mu), not the method.
		display := exprDisplay(ast.Unparen(call.Fun).(*ast.SelectorExpr).X)
		switch op {
		case "Lock", "RLock":
			if w.cfg.OnAcquire != nil {
				w.cfg.OnAcquire(call, mv, display, w.held)
			}
			if _, ok := w.held[mv]; !ok {
				w.held[mv] = display
			}
		case "Unlock", "RUnlock":
			delete(w.held, mv)
		}
		return
	}
	if b := blockingCall(w.cfg.Info, call); b != "" {
		w.blockingOp(call.Pos(), b)
		return
	}
	if w.cfg.OnCall != nil {
		w.cfg.OnCall(call, w.held)
	}
}

func (w *walker) blockingOp(pos token.Pos, what string) {
	if w.cfg.OnBlocking != nil {
		w.cfg.OnBlocking(pos, what, w.held)
	}
}
