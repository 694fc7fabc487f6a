// Package errdrop implements the dropped-error analyzer. It is not a
// general errcheck: it polices a short list of calls whose failures this
// repository has decided are never ignorable, because dropping them turns
// a detectable fault into silent data loss or leaked bandwidth:
//
//   - obs.AuditLog Append, Sync and Close — the audit log is the replay
//     source of truth; a record that never reached the kernel or a tail
//     that never reached disk is undetectable corruption.
//   - (*os.File) Close and Sync on files the same function opened with
//     os.Create or os.OpenFile — write-path files, where Close is the last
//     chance to see a buffered write fail.
//   - SetDeadline / SetReadDeadline / SetWriteDeadline — a deadline that
//     silently failed to arm disables the I/O timeout hardening.
//   - Release(connID) bool on module types (fddi.Ring, core.Controller) —
//     an unchecked false means synchronous bandwidth bookkeeping leaked or
//     double-freed.
//
// A call "drops" its result when it stands alone as a statement, is
// assigned entirely to blanks (`_ = f.Close()`), or is deferred directly.
// Intentional drops carry a justification:
//
//	//lint:allow errdrop <reason>
package errdrop

import (
	"go/ast"
	"go/types"
	"strings"

	"fafnet/internal/lint"
)

// Analyzer is the dropped-error check.
var Analyzer = &lint.Analyzer{
	Name: "errdrop",
	Doc:  "flag dropped errors on audit-log, write-path file, deadline and bandwidth-release calls",
	Run:  run,
}

func run(pass *lint.Pass) error {
	if !lint.InModule(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// checkFunc scans one function (closures included): first the os.File
// provenance pass, then the dropped-call pass.
func checkFunc(pass *lint.Pass, fd *ast.FuncDecl) {
	opened := make(map[*types.Var]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !isOSOpen(pass.TypesInfo, call) {
			return true
		}
		for _, lhs := range as.Lhs {
			if v := lhsVar(pass.TypesInfo, lhs); v != nil && isOSFilePtr(v.Type()) {
				opened[v] = true
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var call *ast.CallExpr
		switch n := n.(type) {
		case *ast.ExprStmt:
			call, _ = n.X.(*ast.CallExpr)
		case *ast.DeferStmt:
			call = n.Call
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			allBlank := true
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
					allBlank = false
				}
			}
			if allBlank {
				call, _ = n.Rhs[0].(*ast.CallExpr)
			}
		}
		if call != nil {
			checkDrop(pass, call, opened)
		}
		return true
	})
}

// checkDrop reports call when it is one of the policed shapes.
func checkDrop(pass *lint.Pass, call *ast.CallExpr, opened map[*types.Var]bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	name := fn.Name()
	switch {
	case isAuditLogMethod(fn):
		if name == "Append" || name == "Sync" || name == "Close" {
			pass.Reportf(call.Pos(), "the error from (obs.AuditLog).%s is dropped; a lost or unsynced audit record is silent replay corruption — log or return it, or waive with //lint:allow errdrop <reason>", name)
		}
	case isDeadlineSetter(fn):
		pass.Reportf(call.Pos(), "the error from %s is dropped; a deadline that failed to arm silently disables the I/O timeout — handle it, or waive with //lint:allow errdrop <reason>", name)
	case isModuleRelease(fn):
		pass.Reportf(call.Pos(), "the bool from %s.Release is dropped; an unmatched release silently corrupts synchronous-bandwidth bookkeeping — check it, or waive with //lint:allow errdrop <reason>", receiverName(fn))
	case isOSFileMethod(fn) && (name == "Close" || name == "Sync"):
		if v := lint.ResolveVar(pass.TypesInfo, sel.X); v != nil && opened[v] {
			pass.Reportf(call.Pos(), "the error from (*os.File).%s on a file this function opened for writing is dropped; a failed flush loses buffered bytes — handle it, or waive with //lint:allow errdrop <reason>", name)
		}
	}
}

// lhsVar resolves an assignment target to its variable, whether the
// statement defines it (`:=`, a Def) or reassigns it (`=`, a Use).
func lhsVar(info *types.Info, x ast.Expr) *types.Var {
	if id, ok := ast.Unparen(x).(*ast.Ident); ok {
		if v, ok := info.Defs[id].(*types.Var); ok {
			return v
		}
	}
	return lint.ResolveVar(info, x)
}

// isOSOpen matches os.Create and os.OpenFile calls.
func isOSOpen(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "os" {
		return false
	}
	return fn.Name() == "Create" || fn.Name() == "OpenFile"
}

// isOSFilePtr reports whether t is *os.File.
func isOSFilePtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "os" && named.Obj().Name() == "File"
}

// recvNamed returns the (possibly pointer-stripped) named receiver type.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// isAuditLogMethod matches methods on the module's obs.AuditLog.
func isAuditLogMethod(fn *types.Func) bool {
	named := recvNamed(fn)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == lint.ModulePath+"/internal/obs" && named.Obj().Name() == "AuditLog"
}

// isDeadlineSetter matches Set{,Read,Write}Deadline methods with the
// net.Conn shape func(time.Time) error — concrete net types, the net.Conn
// interface, and module wrappers (faultnet.Conn) alike.
func isDeadlineSetter(fn *types.Func) bool {
	switch fn.Name() {
	case "SetDeadline", "SetReadDeadline", "SetWriteDeadline":
	default:
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Params().Len() != 1 || sig.Results().Len() != 1 {
		return false
	}
	return isNamed(sig.Params().At(0).Type(), "time", "Time") && isErrorType(sig.Results().At(0).Type())
}

// isModuleRelease matches Release(string) bool methods on module types.
func isModuleRelease(fn *types.Func) bool {
	if fn.Name() != "Release" {
		return false
	}
	named := recvNamed(fn)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	if !lint.InModule(named.Obj().Pkg().Path()) {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Params().Len() != 1 || sig.Results().Len() != 1 {
		return false
	}
	basic, ok := sig.Results().At(0).Type().(*types.Basic)
	return ok && basic.Kind() == types.Bool
}

// isOSFileMethod matches methods declared on os.File.
func isOSFileMethod(fn *types.Func) bool {
	named := recvNamed(fn)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "os" && named.Obj().Name() == "File"
}

// receiverName renders the receiver as pkg.Type for diagnostics.
func receiverName(fn *types.Func) string {
	named := recvNamed(fn)
	parts := strings.Split(named.Obj().Pkg().Path(), "/")
	return parts[len(parts)-1] + "." + named.Obj().Name()
}

// isNamed reports whether t is the named type pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == pkgPath && named.Obj().Name() == name
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}
