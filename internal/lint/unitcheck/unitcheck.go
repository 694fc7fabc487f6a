// Package unitcheck defines the analyzer that enforces the dimensional
// conventions of internal/units: every float64 in this repository is seconds,
// bits, or bits-per-second. What a name declares (internal/lint/dims) is the
// first evidence source; the analyzer also propagates the dims lattice
// through function bodies, signatures, struct fields and — via per-package
// fact files (the unitchecker facts protocol) — across package boundaries. A
// function whose name says nothing about units but whose body demonstrably
// returns seconds gets a summary; storing its result into a *Bits variable
// three packages away is then a finding at the store site.
//
// The analysis stays conservative in the same way dims does: a dimension is
// attached to a parameter, result or field only when every observed use
// agrees on it. Conflicting evidence drops the object back to Unknown.
package unitcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"fafnet/internal/lint"
	"fafnet/internal/lint/dims"
)

// Analyzer flags cross-dimension arithmetic, stores, arguments and returns
// on float64 quantities, within and across functions and packages.
var Analyzer = &lint.Analyzer{
	Name: "unitcheck",
	Doc: `check dimensional consistency of float64 seconds/bits/bps quantities

Dimensions come from three evidence sources: identifier names per the
internal/units conventions (Delay, TTRT, Latency → seconds; *Bits, *Kbit →
bits; *Bps, *Rate, Bandwidth* → bits/second), the dimensions of returned
expressions, and how parameters and struct fields are used (added to a known
quantity, passed to a unit-named parameter, stored under a unit-named
variable). Summaries of exported functions and fields are written to the
package's fact file and imported by downstream packages. The analyzer
reports additions, subtractions and comparisons between different
dimensions, products and quotients whose result is not a sanctioned
dimension (seconds², rate², bit-seconds), a value of one dimension stored
under a name declaring another, call arguments that contradict the
parameter's dimension, and returns that contradict a name-declared result.
Conflicting evidence demotes an object to Unknown rather than guessing.`,
	Run:          run,
	ExportsFacts: true,
	FactTypes:    []string{"objFact"},
}

// spec is what the analysis knows about one float parameter, result or
// field.
type spec struct {
	// Known reports whether a dimension was established.
	Known bool `json:"known"`
	// Named reports the dimension is derivable from the identifier name
	// alone; such specs are never exported (downstream dims inference
	// recovers them from the name).
	Named bool `json:"named,omitempty"`
	// T and B are the dims.Dim exponents.
	T int8 `json:"t,omitempty"`
	B int8 `json:"b,omitempty"`
}

func (s *spec) dim() dims.Dim { return dims.Dim{T: s.T, B: s.B} }

func (s *spec) setDim(d dims.Dim, named bool) {
	s.Known, s.Named, s.T, s.B = true, named, d.T, d.B
}

// objFact is the serialized fact for one exported object: a function or
// method (Params/Results) or a struct field (Field).
type objFact struct {
	Params  []spec `json:"params,omitempty"`
	Results []spec `json:"results,omitempty"`
	Field   *spec  `json:"field,omitempty"`
}

// summary is the in-memory per-function record.
type summary struct {
	params  []*spec
	results []*spec
}

// fieldInfo tracks one struct field declared in the current package.
type fieldInfo struct {
	key      string // "Type.Field" fact key
	exported bool   // both type and field name are exported
	spec     *spec
}

type engine struct {
	pass *lint.Pass
	info *types.Info
	// flow evaluates expressions through dims' walker with everything the
	// engine has learned on top of what names say.
	flow dims.Inferer

	funcs  map[*types.Func]*summary
	decls  map[*types.Func]*ast.FuncDecl
	params map[*types.Var]*spec
	fields map[*types.Var]*fieldInfo

	// frozen marks specs established by names or strong evidence before the
	// weak-constraint round; weak evidence (a suspect comparison is exactly
	// what the checker flags) can neither override nor poison them.
	frozen map[*spec]bool
}

func run(pass *lint.Pass) error {
	e := &engine{
		pass:   pass,
		info:   pass.TypesInfo,
		funcs:  make(map[*types.Func]*summary),
		decls:  make(map[*types.Func]*ast.FuncDecl),
		params: make(map[*types.Var]*spec),
		fields: make(map[*types.Var]*fieldInfo),
		frozen: make(map[*spec]bool),
	}
	e.flow = dims.Inferer{Info: e.info, Flow: e.lookup}
	e.collect()
	e.constrain()
	e.inferReturns()
	e.check()
	return e.export()
}

// ----- phase 1: collect declarations, seed specs from names -----

func (e *engine) collect() {
	for _, f := range e.pass.Files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				e.collectFunc(decl)
			case *ast.GenDecl:
				if decl.Tok == token.TYPE {
					for _, s := range decl.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok {
							e.collectFields(ts)
						}
					}
				}
			}
		}
	}
}

func (e *engine) collectFunc(decl *ast.FuncDecl) {
	fn, ok := e.info.Defs[decl.Name].(*types.Func)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	sum := &summary{}
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		s := &spec{}
		if dims.IsFloat(p.Type()) {
			if d, ok := dims.FromName(p.Name()); ok {
				s.setDim(d, true)
			} else {
				e.params[p] = s
			}
		}
		sum.params = append(sum.params, s)
	}
	for i := 0; i < sig.Results().Len(); i++ {
		r := sig.Results().At(i)
		s := &spec{}
		if dims.IsFloat(r.Type()) {
			if d, ok := dims.FromName(r.Name()); ok {
				s.setDim(d, true)
			} else if d, ok := dims.FromName(fn.Name()); ok && sig.Results().Len() == 1 {
				// A unit-named function (LongTermRate, WalkDelay): the name
				// covers its single result, and dims.ofCall already infers
				// this downstream.
				s.setDim(d, true)
			}
		}
		sum.results = append(sum.results, s)
	}
	e.funcs[fn] = sum
	e.decls[fn] = decl
}

func (e *engine) collectFields(ts *ast.TypeSpec) {
	st, ok := ts.Type.(*ast.StructType)
	if !ok {
		return
	}
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			v, ok := e.info.Defs[name].(*types.Var)
			if !ok || !dims.IsFloat(v.Type()) {
				continue
			}
			fi := &fieldInfo{
				key:      ts.Name.Name + "." + name.Name,
				exported: ast.IsExported(ts.Name.Name) && ast.IsExported(name.Name),
				spec:     &spec{},
			}
			if d, ok := dims.FromName(name.Name); ok {
				fi.spec.setDim(d, true)
			}
			e.fields[v] = fi
		}
	}
}

// ----- phase 2: unify usage constraints onto params and fields -----

// target returns the spec slot for expressions whose dimension the analysis
// is still trying to learn: a bare parameter identifier or a selector of a
// package-local struct field, with no name-declared dimension.
func (e *engine) target(x ast.Expr) *spec {
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		v, ok := e.info.Uses[x].(*types.Var)
		if !ok {
			return nil
		}
		if s, ok := e.params[v]; ok {
			return s
		}
		return e.fieldSpecOf(v)
	case *ast.SelectorExpr:
		sel, ok := e.info.Selections[x]
		if !ok {
			return nil
		}
		v, ok := sel.Obj().(*types.Var)
		if !ok {
			return nil
		}
		return e.fieldSpecOf(v)
	}
	return nil
}

func (e *engine) fieldSpecOf(v *types.Var) *spec {
	fi, ok := e.fields[v]
	if !ok || fi.spec.Named {
		return nil
	}
	return fi.spec
}

// learn records the evidence that s carries dimension d. Disagreeing
// evidence poisons the spec back to Unknown permanently; frozen specs
// (established by a name or by strong evidence) ignore weak evidence
// entirely — a mismatched use of a frozen spec is a finding, not a lesson.
func (e *engine) learn(s *spec, d dims.Dim) {
	if s == nil || s.Named || e.frozen[s] {
		return
	}
	if s.Known && s.dim() != d {
		s.Known = false
		s.Named = true // poisoned: Named without Known blocks further learning and reporting
		return
	}
	if !s.Known {
		s.setDim(d, false)
	}
}

// constrain runs two evidence rounds. Strong evidence — stores, call
// arguments against unit-named parameters, returns against unit-named
// results — states intent and is gathered first. Weak evidence — arithmetic
// and comparisons — fills remaining gaps only: a buggy `window > sigmaBits`
// comparison must produce a finding against the strongly-established
// dimension, not silently re-teach it.
func (e *engine) constrain() {
	for _, f := range e.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				e.constrainCall(n)
			case *ast.AssignStmt, *ast.ValueSpec, *ast.CompositeLit:
				forEachStore(n, e.constrainStore)
			case *ast.FuncDecl:
				e.constrainReturns(n)
			}
			return true
		})
	}
	for _, s := range e.params {
		if s.Known {
			e.frozen[s] = true
		}
	}
	for _, fi := range e.fields {
		if fi.spec.Known {
			e.frozen[fi.spec] = true
		}
	}
	for _, f := range e.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if b, ok := n.(*ast.BinaryExpr); ok {
				e.constrainBinary(b)
			}
			return true
		})
	}
}

// constrainBinary: a still-unknown operand added to, subtracted from or
// compared against a known physical quantity must share its dimension.
func (e *engine) constrainBinary(b *ast.BinaryExpr) {
	switch b.Op {
	case token.ADD, token.SUB,
		token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
	default:
		return
	}
	xd, xk := dims.OfExpr(e.info, b.X)
	yd, yk := dims.OfExpr(e.info, b.Y)
	if xk == dims.Physical && yk == dims.Unknown {
		e.learn(e.target(b.Y), xd)
	}
	if yk == dims.Physical && xk == dims.Unknown {
		e.learn(e.target(b.X), yd)
	}
}

// constrainCall: passing a still-unknown value to a unit-named parameter
// pins its dimension.
func (e *engine) constrainCall(call *ast.CallExpr) {
	fn := lint.CalleeFunc(e.info, call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Variadic() || sig.Params().Len() != len(call.Args) {
		return
	}
	for i, arg := range call.Args {
		pd, ok := dims.FromName(sig.Params().At(i).Name())
		if !ok {
			continue
		}
		if _, k := dims.OfExpr(e.info, arg); k == dims.Unknown {
			e.learn(e.target(arg), pd)
		}
	}
}

// constrainStore propagates dimensions both ways across an assignment: a
// known value teaches an unknown destination field, and a unit-named
// destination teaches an unknown source.
func (e *engine) constrainStore(dst, src ast.Expr) {
	sd, sk := dims.OfExpr(e.info, src)
	if sk == dims.Physical {
		e.learn(e.target(dst), sd)
	}
	dstName, ok := storeName(dst)
	if !ok {
		return
	}
	if dd, ok := dims.FromName(dstName); ok && sk == dims.Unknown {
		e.learn(e.target(src), dd)
	}
}

// constrainReturns: returning a still-unknown parameter or field from a
// function whose result dimension is name-declared pins it.
func (e *engine) constrainReturns(decl *ast.FuncDecl) {
	fn, ok := e.info.Defs[decl.Name].(*types.Func)
	if !ok {
		return
	}
	sum := e.funcs[fn]
	if sum == nil || decl.Body == nil {
		return
	}
	forEachReturn(decl.Body, func(ret *ast.ReturnStmt) {
		if len(ret.Results) != len(sum.results) {
			return
		}
		for i, res := range ret.Results {
			s := sum.results[i]
			if !s.Known || !s.Named {
				continue
			}
			if _, k := dims.OfExpr(e.info, res); k == dims.Unknown {
				e.learn(e.target(res), s.dim())
			}
		}
	})
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

// forEachReturn visits the return statements belonging to body itself,
// skipping nested function literals (their returns answer a different
// signature).
func forEachReturn(body *ast.BlockStmt, fn func(*ast.ReturnStmt)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			fn(n)
		}
		return true
	})
}

// ----- phase 3: infer result dimensions from return expressions -----

// inferReturns fills result specs that names did not declare by agreeing
// return expressions, iterating so chains of unnamed functions (f returns
// g()) converge.
func (e *engine) inferReturns() {
	for iter := 0; iter < 3; iter++ {
		changed := false
		for fn, sum := range e.funcs {
			decl := e.decls[fn]
			if decl.Body == nil {
				continue
			}
			for i, s := range sum.results {
				if s.Known || s.Named {
					continue // already established, or poisoned
				}
				d, ok := e.commonReturnDim(decl, sum, i)
				if ok {
					s.setDim(d, false)
					changed = true
				}
			}
		}
		if !changed {
			return
		}
	}
}

// commonReturnDim reports the dimension shared by every return expression
// for result index i, if all of them are Physical and agree.
func (e *engine) commonReturnDim(decl *ast.FuncDecl, sum *summary, i int) (dims.Dim, bool) {
	var d dims.Dim
	found, consistent := false, true
	forEachReturn(decl.Body, func(ret *ast.ReturnStmt) {
		if !consistent || len(ret.Results) != len(sum.results) {
			consistent = consistent && len(ret.Results) == len(sum.results)
			return
		}
		rd, rk := e.flow.OfExpr(ret.Results[i])
		if rk != dims.Physical {
			consistent = false
			return
		}
		if found && rd != d {
			consistent = false
			return
		}
		d, found = rd, true
	})
	return d, found && consistent
}

// ----- flow-aware inference -----

// lookup is the engine's dims.Inferer hook: function summaries, imported
// facts and learned field dimensions answer before the name conventions do.
func (e *engine) lookup(x ast.Expr) (dims.Dim, bool) {
	switch x := x.(type) {
	case *ast.CallExpr:
		return e.callResult(x)
	case *ast.Ident:
		if v, ok := e.info.Uses[x].(*types.Var); ok {
			return e.learned(v)
		}
	case *ast.SelectorExpr:
		if sel, ok := e.info.Selections[x]; ok {
			if v, ok := sel.Obj().(*types.Var); ok {
				if d, ok := e.learned(v); ok {
					return d, true
				}
				return e.importedFieldDim(x, v)
			}
		}
	}
	return dims.Dim{}, false
}

// learned reports the flow-established (not name-declared) dimension of a
// local parameter or field object.
func (e *engine) learned(v *types.Var) (dims.Dim, bool) {
	if s, ok := e.params[v]; ok && s.Known && !s.Named {
		return s.dim(), true
	}
	if fi, ok := e.fields[v]; ok && fi.spec.Known && !fi.spec.Named {
		return fi.spec.dim(), true
	}
	return dims.Dim{}, false
}

// importedFieldDim resolves a cross-package field's exported dimension fact.
func (e *engine) importedFieldDim(sel *ast.SelectorExpr, v *types.Var) (dims.Dim, bool) {
	if v.Pkg() == nil || v.Pkg() == e.pass.Pkg || !lint.InModule(v.Pkg().Path()) {
		return dims.Dim{}, false
	}
	named := receiverTypeName(e.info.Types[sel.X].Type)
	if named == "" {
		return dims.Dim{}, false
	}
	var fact objFact
	if !e.pass.ImportFact(v.Pkg().Path(), named+"."+v.Name(), &fact) || fact.Field == nil || !fact.Field.Known {
		return dims.Dim{}, false
	}
	return fact.Field.dim(), true
}

// callResult resolves a call's single-result dimension through the callee's
// summary (same package) or imported fact (other module packages).
func (e *engine) callResult(call *ast.CallExpr) (dims.Dim, bool) {
	fn := lint.CalleeFunc(e.info, call)
	if fn == nil {
		return dims.Dim{}, false
	}
	fact, ok := e.factFor(fn)
	if !ok || len(fact.Results) != 1 || !fact.Results[0].Known {
		return dims.Dim{}, false
	}
	return fact.Results[0].dim(), true
}

// factFor returns the summary of fn as an objFact, from the local summary
// table or from the defining package's fact file.
func (e *engine) factFor(fn *types.Func) (objFact, bool) {
	if sum, ok := e.funcs[fn]; ok {
		var fact objFact
		for _, p := range sum.params {
			fact.Params = append(fact.Params, *p)
		}
		for _, r := range sum.results {
			fact.Results = append(fact.Results, *r)
		}
		return fact, true
	}
	if fn.Pkg() == nil || fn.Pkg() == e.pass.Pkg || !lint.InModule(fn.Pkg().Path()) {
		return objFact{}, false
	}
	var fact objFact
	if !e.pass.ImportFact(fn.Pkg().Path(), factKey(fn), &fact) {
		return objFact{}, false
	}
	return fact, true
}

// ----- phase 4: checks -----

func (e *engine) check() {
	for _, f := range e.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				e.checkBinary(n)
			case *ast.CallExpr:
				e.checkCall(n)
			case *ast.AssignStmt, *ast.ValueSpec, *ast.CompositeLit:
				forEachStore(n, e.checkStore)
			case *ast.FuncDecl:
				e.checkReturns(n)
			}
			return true
		})
	}
}

// checkBinary reports cross-dimension addition, subtraction and comparison,
// and products or quotients that leave the sanctioned dimensions.
func (e *engine) checkBinary(b *ast.BinaryExpr) {
	switch b.Op {
	case token.ADD, token.SUB,
		token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		ld, lk := e.flow.OfExpr(b.X)
		rd, rk := e.flow.OfExpr(b.Y)
		if lk == dims.Physical && rk == dims.Physical && ld != rd {
			e.pass.Reportf(b.OpPos, "cross-dimension %s: %s %s %s", describeOp(b.Op), ld, b.Op, rd)
		}
	case token.MUL, token.QUO:
		// Names alone decide here. Learned evidence says "these two are the
		// same kind", which is what sums, stores and arguments compare; it
		// is too weak to say "this kind does not exist": des.PoissonProcess
		// keeps an event frequency in a field its accessor Rate() teaches
		// as bits/second, and 1/lambda is not a bug.
		d, k := dims.OfExpr(e.info, b)
		if k == dims.Physical && !d.Recognized() {
			e.pass.Reportf(b.OpPos, "suspicious product dimension %s (operands %s and %s)", d, e.operand(b.X), e.operand(b.Y))
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

func (e *engine) operand(x ast.Expr) string {
	if d, k := dims.OfExpr(e.info, x); k == dims.Physical {
		return d.String()
	}
	return "dimensionless"
}

// checkCall reports arguments whose dimension contradicts the callee
// parameter's: the one its name declares, else the one the callee's summary
// or imported fact established.
func (e *engine) checkCall(call *ast.CallExpr) {
	fn := lint.CalleeFunc(e.info, call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Variadic() || sig.Params().Len() != len(call.Args) {
		return // variadic tails (Printf's) carry no per-param names
	}
	fact, _ := e.factFor(fn)
	for i, arg := range call.Args {
		name := sig.Params().At(i).Name()
		pd, ok := dims.FromName(name)
		if !ok {
			if i >= len(fact.Params) || !fact.Params[i].Known {
				continue
			}
			pd = fact.Params[i].dim()
		}
		if ad, ak := e.flow.OfExpr(arg); ak == dims.Physical && ad != pd {
			e.pass.Reportf(arg.Pos(), "argument is %s but parameter %q of %s wants %s", ad, name, fn.Name(), pd)
		}
	}
}

// checkStore reports a value of one dimension stored under a name that
// declares another.
func (e *engine) checkStore(dst, src ast.Expr) {
	name, ok := storeName(dst)
	if !ok {
		return
	}
	dd, ok := dims.FromName(name)
	if !ok {
		return
	}
	if sd, sk := e.flow.OfExpr(src); sk == dims.Physical && sd != dd {
		e.pass.Reportf(src.Pos(), "%s value stored in %q, which is declared %s by name", sd, name, dd)
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

// checkReturns reports return expressions whose dimension contradicts the
// function's name-declared result dimension.
func (e *engine) checkReturns(decl *ast.FuncDecl) {
	fn, ok := e.info.Defs[decl.Name].(*types.Func)
	if !ok {
		return
	}
	sum := e.funcs[fn]
	if sum == nil || decl.Body == nil {
		return
	}
	forEachReturn(decl.Body, func(ret *ast.ReturnStmt) {
		if len(ret.Results) != len(sum.results) {
			return
		}
		for i, res := range ret.Results {
			s := sum.results[i]
			if !s.Known || !s.Named {
				continue // only name-declared results form a contract to check against
			}
			rd, rk := e.flow.OfExpr(res)
			if rk == dims.Physical && rd != s.dim() {
				e.pass.Reportf(res.Pos(), "%s returns %s but its result is declared %s", fn.Name(), rd, s.dim())
			}
		}
	})
}

// ----- phase 5: fact export -----

// export publishes summaries of exported functions and fields that carry at
// least one flow-established (non-name-derivable) dimension. Name-declared
// specs are recoverable downstream from export data, so packages whose
// naming already tells the whole story export nothing and keep their fact
// file empty.
func (e *engine) export() error {
	for fn, sum := range e.funcs {
		if !exportedFunc(fn) {
			continue
		}
		fact := objFact{}
		flow := false
		for _, p := range sum.params {
			fact.Params = append(fact.Params, *p)
			flow = flow || (p.Known && !p.Named)
		}
		for _, r := range sum.results {
			fact.Results = append(fact.Results, *r)
			flow = flow || (r.Known && !r.Named)
		}
		if !flow {
			continue
		}
		if err := e.pass.ExportFact(factKey(fn), fact); err != nil {
			return err
		}
	}
	for _, fi := range e.fields {
		if !fi.exported || !fi.spec.Known || fi.spec.Named {
			continue
		}
		s := *fi.spec
		if err := e.pass.ExportFact(fi.key, objFact{Field: &s}); err != nil {
			return err
		}
	}
	return nil
}

// ----- shared helpers -----

// factKey is the object path a function's fact is stored under: "Func" or
// "Recv.Method".
func factKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		if name := receiverTypeName(sig.Recv().Type()); name != "" {
			return name + "." + fn.Name()
		}
	}
	return fn.Name()
}

// exportedFunc reports whether fn's fact key is reachable from other
// packages: the function name is exported, and so is the receiver type for
// methods.
func exportedFunc(fn *types.Func) bool {
	if !fn.Exported() {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		name := receiverTypeName(sig.Recv().Type())
		return name != "" && ast.IsExported(name)
	}
	return true
}

// receiverTypeName names the defined type behind t, unwrapping one level of
// pointer.
func receiverTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
