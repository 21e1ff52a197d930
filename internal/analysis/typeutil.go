package analysis

import (
	"go/ast"
	"go/types"
)

// resolvePkgFunc resolves a call to a package-level function and returns
// the defining package path and function name (e.g. "time", "Now"). It
// returns ok=false for method calls, local closures, conversions, and
// builtins.
func resolvePkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if sel, isSel := info.Selections[fun]; isSel && sel != nil {
			return "", "", false // method or field call
		}
		obj := info.ObjectOf(fun.Sel)
		fn, isFn := obj.(*types.Func)
		if !isFn || fn.Pkg() == nil {
			return "", "", false
		}
		return fn.Pkg().Path(), fn.Name(), true
	case *ast.Ident:
		obj := info.ObjectOf(fun)
		fn, isFn := obj.(*types.Func)
		if !isFn || fn.Pkg() == nil {
			return "", "", false
		}
		if fn.Type().(*types.Signature).Recv() != nil {
			return "", "", false
		}
		return fn.Pkg().Path(), fn.Name(), true
	}
	return "", "", false
}

// typeOf returns the type of expression e from info, or nil if unknown.
func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// calleeName returns the bare name of whatever a call invokes: the
// method or function name for selector calls and plain calls, "" for
// indirect calls through arbitrary expressions.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return ""
}
