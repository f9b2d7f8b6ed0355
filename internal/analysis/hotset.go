package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// The hot set: every function body the machine can execute per simulated
// cycle. Roots are the Machine's stepping entry points (Step*, Run,
// RunCtx); edges are the statically resolvable calls plus the two
// approximations the simulator's dispatch shapes need — calls through
// *named* function types resolve to every value of that type collected by
// FuncValues (the execTable shape), and calls through module-declared
// interfaces resolve to every implementing method in the load (the Probe
// shape). hotpath scans this set with both of its rule sets (allocation
// and dispatch shape), so the perf contract has one definition of "hot".
//
// A function is pruned from the set — not entered, not scanned — when its
// declaration line carries a justified //vaxlint:allow hotpath note: that
// is the cold-slice escape hatch (machine checks, exception delivery
// bookkeeping, the HALT path). Calls *to* a pruned function are treated
// as cold sites: the scan does not descend into their argument lists, so
// a %v passed to the cold fail() helper is not a hot boxing finding.
//
// Every statement of a hot body counts as reachable per cycle. Code after
// return, goto, break, continue, `for {}` or `select {}` is left to go
// vet's unreachable check, which the gates already run.

// hotNode is one function body in the hot set.
type hotNode struct {
	fn    *types.Func  // nil for a literal
	lit   *ast.FuncLit // nil for a declared function
	pkg   *Package
	body  *ast.BlockStmt
	chain string // "Machine.StepInstruction → runSpecifier → peek"
}

// hotDecl locates a function declaration with a body.
type hotDecl struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// hotSet is the computed hot set plus the tables needed to scan it.
type hotSet struct {
	pass  *Pass
	nodes []*hotNode // BFS order from the roots; deterministic
	byFn  map[*types.Func]*hotNode
	byLit map[*ast.FuncLit]*hotNode
	decls map[*types.Func]hotDecl
	vals  map[*types.TypeName][]FuncValue
}

// isHotRoot reports whether fn is a stepping entry point: a method on a
// type named Machine called Run, RunCtx, or Step-anything.
func isHotRoot(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || named.Obj().Name() != "Machine" {
		return false
	}
	name := fn.Name()
	return name == "Run" || name == "RunCtx" || strings.HasPrefix(name, "Step")
}

// hotName renders a function for call chains: Machine.tick, runSpecifier.
func hotName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := types.Unalias(t).(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

// isColdFn reports whether fn's declaration carries a justified
// //vaxlint:allow note covering "hotpath" (trailing on the func line or
// standing alone above it).
func (hs *hotSet) isColdFn(fn *types.Func) bool {
	d, ok := hs.decls[fn]
	if !ok {
		return false
	}
	return hs.pass.Allowed(d.decl.Pos())
}

// buildHotSet computes the hot set over the whole load.
func buildHotSet(pass *Pass) *hotSet {
	hs := &hotSet{
		pass:  pass,
		byFn:  make(map[*types.Func]*hotNode),
		byLit: make(map[*ast.FuncLit]*hotNode),
		decls: make(map[*types.Func]hotDecl),
	}
	for _, pkg := range pass.All {
		for _, fd := range PackageFuncs(pkg) {
			hs.decls[fd.Obj] = hotDecl{pkg, fd.Decl}
		}
	}
	hs.vals = FuncValues(pass.All)

	var queue []*hotNode
	addFn := func(fn *types.Func, parent *hotNode) {
		if hs.byFn[fn] != nil {
			return
		}
		d, ok := hs.decls[fn]
		if !ok {
			return // no body in the load (stdlib, declared-only)
		}
		if hs.isColdFn(fn) {
			return // justified cold slice: pruned, calls to it are cold sites
		}
		n := &hotNode{fn: fn, pkg: d.pkg, body: d.decl.Body, chain: hotName(fn)}
		if parent != nil {
			n.chain = parent.chain + " → " + hotName(fn)
		}
		hs.byFn[fn] = n
		queue = append(queue, n)
	}
	addLit := func(lit *ast.FuncLit, pkg *Package, parent *hotNode) {
		if hs.byLit[lit] != nil {
			return
		}
		if hs.pass.Allowed(lit.Pos()) {
			return
		}
		pos := pkg.Fset.Position(lit.Pos())
		name := fmt.Sprintf("func@%s:%d", filepath.Base(pos.Filename), pos.Line)
		n := &hotNode{lit: lit, pkg: pkg, body: lit.Body, chain: name}
		if parent != nil {
			n.chain = parent.chain + " → " + name
		}
		hs.byLit[lit] = n
		queue = append(queue, n)
	}

	for _, pkg := range pass.All {
		for _, fd := range PackageFuncs(pkg) {
			if isHotRoot(fd.Obj) {
				addFn(fd.Obj, nil)
			}
		}
	}

	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		hs.nodes = append(hs.nodes, n)
		hs.scanHot(n, func(stack []ast.Node, node ast.Node) bool {
			switch x := node.(type) {
			case *ast.FuncLit:
				// A literal in a hot body runs in the hot path (deferred,
				// invoked, or table-registered); it becomes its own node.
				addLit(x, n.pkg, n)
			case *ast.CallExpr:
				if fn := Callee(n.pkg.Info, x); fn != nil {
					addFn(fn, n)
					return true
				}
				if tn := DynamicFuncType(n.pkg.Info, x); tn != nil {
					for _, cand := range hs.vals[tn] {
						if cand.Fn != nil {
							addFn(cand.Fn, n)
						} else if cand.Lit != nil {
							addLit(cand.Lit, cand.Pkg, n)
						}
					}
					return true
				}
				for _, m := range ModuleInterfaceMethods(hs.pass.All, n.pkg, x) {
					addFn(m, n)
				}
			}
			return true
		})
	}
	return hs
}

// scanHot walks a node's body. Nested function literals are visited once
// but not entered (they are nodes of their own); calls whose static
// callee is a pruned cold function are skipped entirely, argument lists
// included. visit returns whether to descend into the node.
func (hs *hotSet) scanHot(n *hotNode, visit func(stack []ast.Node, node ast.Node) bool) {
	var stack []ast.Node
	for _, root := range n.body.List {
		ast.Inspect(root, func(node ast.Node) bool {
			if node == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			if call, ok := node.(*ast.CallExpr); ok {
				if fn := Callee(n.pkg.Info, call); fn != nil && hs.isColdFn(fn) {
					return false // cold site: the cold slice absorbs its arguments
				}
			}
			descend := visit(stack, node)
			if _, ok := node.(*ast.FuncLit); ok {
				descend = false
			}
			if !descend {
				return false
			}
			stack = append(stack, node)
			return true
		})
	}
}
