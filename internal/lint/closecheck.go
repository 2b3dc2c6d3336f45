package lint

// closecheck: a Close() whose error result is dropped on the floor hides
// exactly the failures this system is built to surface — a failed Close
// can be the only report that written bytes never reached the disk, and
// dropped, the loss shows up later as a page checksum mismatch far from
// its cause, or not at all. The check
// flags any statement-position call of a method or function named Close
// returning exactly one error whose result is unused, in non-test code.
//
// `defer f.Close()` on read-only handles and an explicit `_ = f.Close()`
// in best-effort cleanup paths are accepted: both are visible, deliberate
// decisions; the bare statement is indistinguishable from an oversight.

import (
	"go/ast"
	"go/types"
)

func runCloseCheck(p *pass) {
	for i, file := range p.pkg.Files {
		if isTestFile(p.pkg.Filenames[i]) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := ast.Unparen(es.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			if !p.isErrorOnlyClose(call) {
				return true
			}
			recv := ""
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				recv = exprString(sel.X) + "."
			}
			p.reportf(es.Pos(), "closecheck",
				"error from %sClose() dropped: a failed close can hide lost writes or a corrupt segment; check it, or write `_ = %sClose()` if best-effort is intended",
				recv, recv)
			return true
		})
	}
}

// isErrorOnlyClose reports whether the call invokes something named Close
// with signature results exactly (error).
func (p *pass) isErrorOnlyClose(call *ast.CallExpr) bool {
	var name string
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return false
	}
	if name != "Close" {
		return false
	}
	t := p.pkg.Info.TypeOf(call.Fun)
	if t == nil {
		return false
	}
	sig, ok := t.Underlying().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return false
	}
	named, ok := types.Unalias(sig.Results().At(0).Type()).(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}
