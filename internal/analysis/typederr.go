package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// TypedErr polices the error contract at the measurement-infrastructure
// boundaries. The checkpoint/resume and supervision layers promise
// callers machine-checkable failure classes — checkpoint.ErrCorrupt,
// ErrBadVersion, ErrNoSnapshot, core.ErrCorruptHistogram, workload's
// *Interrupted — and cmd/* routes on them with errors.Is/errors.As. The
// contract decays in two ways:
//
//   - a boundary package returns a fresh untyped error (errors.New, or
//     fmt.Errorf without %w) from an exported function: callers can only
//     string-match it. Every error leaving internal/checkpoint,
//     internal/workload or internal/cli must be a declared sentinel, a
//     declared error type, or wrap an underlying error with %w;
//   - a caller compares a module sentinel with == / != or asserts an
//     error type with .(…): both break under wrapping. errors.Is and
//     errors.As are required (stdlib sentinels like io.EOF keep their
//     documented identity contract and are left alone).
//
// The sentinel/assert rules run module-wide; the return-shape rule only
// in the boundary packages (by package name, so the analysistest
// fixtures can model them).
var TypedErr = &Analyzer{
	Name: "typederr",
	Doc:  "boundary errors are typed or %w-wrapped; sentinel checks use errors.Is/As",
	Run:  runTypedErr,
}

// typedErrBoundaries are the package names whose exported functions may
// only return typed or wrapped errors.
var typedErrBoundaries = map[string]bool{
	"checkpoint": true,
	"workload":   true,
	"cli":        true,
}

func runTypedErr(pass *Pass) error {
	boundary := typedErrBoundaries[pass.Pkg.Types.Name()]
	for _, fd := range PackageFuncs(pass.Pkg) {
		if boundary && fd.Obj.Exported() {
			checkBoundaryReturns(pass, fd)
		}
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				checkSentinelCompare(pass, n)
			case *ast.TypeAssertExpr:
				checkErrorAssert(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkBoundaryReturns flags returned error expressions that mint a
// fresh untyped error: errors.New, or fmt.Errorf whose format has no %w
// verb. Returning a variable, a sentinel, a typed error literal, or the
// result of another call is fine (the latter is conservative: the callee
// is itself checked where it is declared).
func checkBoundaryReturns(pass *Pass, fd FuncDecl) {
	sig := fd.Obj.Type().(*types.Signature)
	errResult := -1
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			errResult = i
		}
	}
	if errResult < 0 {
		return
	}
	ast.Inspect(fd.Decl.Body, func(n ast.Node) bool {
		// Nested function literals have their own signatures; do not
		// attribute their returns to the enclosing function.
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != sig.Results().Len() {
			return true
		}
		checkErrorExpr(pass, fd, ret.Results[errResult])
		return true
	})
}

func checkErrorExpr(pass *Pass, fd FuncDecl, e ast.Expr) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := Callee(pass.Pkg.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() + "." + fn.Name() {
	case "errors.New":
		pass.Reportf(e.Pos(),
			"%s returns errors.New(...) across the %s boundary: callers can only string-match it; return a declared sentinel/error type or wrap with fmt.Errorf(\"...: %%w\", ...)",
			funcString(fd.Obj), pass.Pkg.Types.Name())
	case "fmt.Errorf":
		if len(call.Args) == 0 {
			return
		}
		format, ok := stringConstant(pass, call.Args[0])
		if ok && !strings.Contains(format, "%w") {
			pass.Reportf(e.Pos(),
				"%s returns an unwrapped fmt.Errorf across the %s boundary: the error chain stops here; use %%w or a declared error type",
				funcString(fd.Obj), pass.Pkg.Types.Name())
		}
	}
}

// stringConstant returns the compile-time string value of e, if it has one.
func stringConstant(pass *Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.Pkg.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// checkSentinelCompare flags ==/!= where one operand is a module-declared
// error sentinel (a package-level Err* variable of error type) and the
// other is not nil.
func checkSentinelCompare(pass *Pass, b *ast.BinaryExpr) {
	if b.Op != token.EQL && b.Op != token.NEQ {
		return
	}
	if isNilExpr(pass, b.X) || isNilExpr(pass, b.Y) {
		return
	}
	for _, e := range []ast.Expr{b.X, b.Y} {
		if s := sentinelOf(pass, e); s != nil {
			pass.Reportf(b.Pos(),
				"sentinel %s compared with %s: wrapped errors slip through; use errors.Is", s.Name(), b.Op)
			return
		}
	}
}

// checkErrorAssert flags err.(*SomeError)-style assertions where the
// asserted type implements error. Type switches are *ast.TypeAssertExpr
// with a nil Type and are handled via their case clauses' implicit
// assertions being... not represented in the AST; a direct assertion is
// the form that appears in this codebase.
func checkErrorAssert(pass *Pass, ta *ast.TypeAssertExpr) {
	if ta.Type == nil {
		return // type switch header: cases are checked by convention/review
	}
	tv, ok := pass.Pkg.Info.Types[ta.Type]
	if !ok || !isErrorType(tv.Type) {
		return
	}
	// Only flag assertions on an error-typed operand (asserting a
	// concrete type out of a non-error interface is unrelated).
	if xtv, ok := pass.Pkg.Info.Types[ta.X]; !ok || !isErrorInterface(xtv.Type) {
		return
	}
	pass.Reportf(ta.Pos(),
		"type assertion on an error value: wrapped errors slip through; use errors.As")
}

// sentinelOf returns the object when e names a module-declared package-
// level error variable following the Err* convention.
func sentinelOf(pass *Pass, e ast.Expr) types.Object {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	v, ok := pass.Pkg.Info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || !strings.HasPrefix(v.Name(), "Err") {
		return nil
	}
	if v.Parent() != v.Pkg().Scope() || !isErrorType(v.Type()) {
		return nil
	}
	// Module-declared only: stdlib sentinels (io.EOF — not Err* anyway,
	// but e.g. os.ErrNotExist) keep their documented identity semantics
	// for code that owns the value; we scope the rule to sentinels the
	// load itself declares.
	for _, pkg := range pass.All {
		if pkg.Types == v.Pkg() {
			return v
		}
	}
	return nil
}

func isNilExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Pkg.Info.Types[e]
	return ok && tv.IsNil()
}

// isErrorType reports whether t implements the error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	m, _, _ := types.LookupFieldOrMethod(t, true, nil, "Error")
	fn, ok := m.(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	return sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
		sig.Results().At(0).Type().String() == "string"
}

// isErrorInterface reports whether t is an interface type implementing
// error (typically the error interface itself).
func isErrorInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok && isErrorType(t)
}

// funcString renders fn for a diagnostic: (recv).Name for a method,
// pkg.Name for a function.
func funcString(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		return fmt.Sprintf("(%s).%s", types.TypeString(sig.Recv().Type(), nil), fn.Name())
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
