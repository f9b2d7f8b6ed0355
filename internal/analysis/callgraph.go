package analysis

import (
	"go/ast"
	"go/types"
)

// Function declarations and statically resolved callees, the two views
// of the type-checked syntax that typederr needs: which functions a
// package declares, and which named function or method a call invokes.

// FuncDecl pairs a function's type-checker object with its syntax.
type FuncDecl struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
}

// PackageFuncs returns every function and method declared in pkg with a
// body, in file order.
func PackageFuncs(pkg *Package) []FuncDecl {
	var out []FuncDecl
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			out = append(out, FuncDecl{Obj: obj, Decl: fd})
		}
	}
	return out
}

// Callee resolves a call expression to the named function or method it
// statically invokes, or nil for calls the type checker cannot pin down
// (function values, interface dispatch) and for conversions.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		// Interface method calls resolve to *types.Func too; reject them —
		// the concrete body is unknown, so there is no edge to follow.
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if types.IsInterface(sel.Recv().Underlying()) {
				return nil
			}
		}
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
