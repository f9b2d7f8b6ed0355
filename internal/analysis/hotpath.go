package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPath proves the per-cycle cost contract of the measurement loop: in
// every function reachable from Machine.Step*/Run/RunCtx, nothing may
// allocate, box into an interface, format through fmt, or touch a map.
// The paper's method divides wall-clock by cycles; a single make() in the
// specifier decode path turns every measurement into a benchmark of the
// Go allocator instead of the machine model, and a map
// lookup in the opcode dispatch puts Go's hash probe inside every
// "microcycle" while the histogram keeps claiming the cycle went to the
// VAX — both silently, because the histogram stays self-consistent. The
// analyzer flags, with the call chain from the root that reaches them:
//
//   - make/new and slice/map composite literals (heap, growth);
//   - &T{} composite literals whose address escapes the statement;
//   - function literals and method values (closure allocation);
//   - defer (runtime bookkeeping per cycle, on top of the closure);
//   - append (amortized growth of the backing array);
//   - go statements (a goroutine per cycle is never intended here);
//   - fmt.* calls (reflection-driven formatting per cycle);
//   - explicit conversions of concrete non-pointer values to interface
//     types, and implicit ones at call arguments and assignments
//     (pointers ride in the interface word without allocating and stay
//     silent; a call whose static callee is a pruned cold function is a
//     cold site and its arguments are not judged);
//   - map iteration (nondeterministic order — also a determinism hazard)
//     and map indexing.
//
// The escape judgment is an approximation, deliberately coarser than the
// compiler's: it flags what *may* allocate, and the justified cold
// slices — machine-check assembly, exception delivery, the HALT path —
// are pruned with //vaxlint:allow hotpath on the function declaration
// (see hotset.go) or excused per line. TestEscapeGroundTruth (`make
// escape-truth`, a named CI step) diffs the composite-literal half of
// the judgment against `go build -gcflags=-m` over the real hot set and
// fails on drift in either direction; DESIGN.md §13 documents the
// contract and its pinned over-approximations.
var HotPath = &Analyzer{
	Name:        "hotpath",
	Doc:         "nothing reachable from Machine.Step*/Run may allocate, box into an interface, call fmt, or touch a map per cycle",
	ModuleLevel: true,
	Run:         runHotPath,
}

func runHotPath(pass *Pass) error {
	hs := buildHotSet(pass)
	for _, n := range hs.nodes {
		hs.scanHot(n, func(stack []ast.Node, node ast.Node) bool {
			checkHotAlloc(pass, n, stack, node)
			checkHotBox(pass, n, node)
			return true
		})
	}
	return nil
}

func checkHotAlloc(pass *Pass, n *hotNode, stack []ast.Node, node ast.Node) {
	info := n.pkg.Info
	switch x := node.(type) {
	case *ast.DeferStmt:
		pass.Reportf(x.Pos(),
			"hot path (%s): defer runs its bookkeeping every cycle; restructure into explicit calls on each exit", n.chain)
	case *ast.GoStmt:
		pass.Reportf(x.Pos(),
			"hot path (%s): go statement launches a goroutine per cycle", n.chain)
	case *ast.FuncLit:
		pass.Reportf(x.Pos(),
			"hot path (%s): function literal allocates a closure per cycle; hoist it to a declared function", n.chain)
	case *ast.CallExpr:
		switch builtinName(info, x) {
		case "make":
			pass.Reportf(x.Pos(),
				"hot path (%s): make allocates per cycle; reuse a preallocated buffer on the machine", n.chain)
		case "new":
			pass.Reportf(x.Pos(),
				"hot path (%s): new allocates per cycle", n.chain)
		case "append":
			pass.Reportf(x.Pos(),
				"hot path (%s): append may grow its backing array per cycle; size the slice at construction", n.chain)
		}
	case *ast.CompositeLit:
		checkHotComposite(pass, n, stack, x)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok && sel.Kind() == types.MethodVal && !isCallFun(stack, x) {
			pass.Reportf(x.Pos(),
				"hot path (%s): method value %s allocates a bound-method closure per cycle; pass an interface or a declared function instead", n.chain, x.Sel.Name)
		}
	}
}

// escVerdict is the analyzer's allocation claim for one composite literal.
type escVerdict uint8

const (
	// escSilent: the literal is a plain value copy (struct or array, address
	// never taken at the literal). The analyzer makes no allocation claim —
	// if such a value heap-allocates it is through an interface conversion,
	// which checkHotBox reports, anchored at the conversion.
	escSilent escVerdict = iota
	// escStack: the analyzer claims the backing storage stays on the stack
	// (a slice literal ranged over in place).
	escStack
	// escHeap: the analyzer claims the literal allocates on the heap every
	// cycle and reports it.
	escHeap
)

// compositeEsc is one composite literal's verdict. pos is where the
// analyzer reports (the `&` for an escaping &T{…}, the literal's start
// otherwise); truthPos is where the compiler anchors its own verdict on
// the same literal — the opening brace for a plain T{…}, the `&` for
// &T{…} — which is what lets TestEscapeGroundTruth diff the two
// judgments position-exactly against `go build -gcflags=-m`.
type compositeEsc struct {
	verdict  escVerdict
	pos      token.Pos
	truthPos token.Pos
	kind     string // "slice", "map", "addr"; "" when silent
}

// compositeVerdict is the single escape judgment for composite literals,
// shared by the analyzer (checkHotComposite reports its escHeap verdicts)
// and by the compiler ground-truth diff (escape_truth_test.go), so the
// contract the CI step checks is exactly the judgment the analyzer ships:
// slice and map literals carry a backing allocation (except a slice
// literal ranged over in place, which the compiler keeps on the stack);
// struct and array literals allocate only when their address is taken, so
// plain value copies like `*op = operand{…}` stay silent.
func compositeVerdict(info *types.Info, parent ast.Node, lit *ast.CompositeLit) compositeEsc {
	t := info.TypeOf(lit)
	if t == nil {
		return compositeEsc{verdict: escSilent, pos: lit.Pos(), truthPos: lit.Lbrace}
	}
	switch types.Unalias(t).Underlying().(type) {
	case *types.Slice:
		if rs, ok := parent.(*ast.RangeStmt); ok && ast.Unparen(rs.X) == ast.Expr(lit) {
			return compositeEsc{verdict: escStack, pos: lit.Pos(), truthPos: lit.Lbrace, kind: "slice"}
		}
		return compositeEsc{verdict: escHeap, pos: lit.Pos(), truthPos: lit.Lbrace, kind: "slice"}
	case *types.Map:
		return compositeEsc{verdict: escHeap, pos: lit.Pos(), truthPos: lit.Lbrace, kind: "map"}
	case *types.Struct, *types.Array:
		if u, ok := parent.(*ast.UnaryExpr); ok && u.Op == token.AND {
			return compositeEsc{verdict: escHeap, pos: u.Pos(), truthPos: u.Pos(), kind: "addr"}
		}
	}
	return compositeEsc{verdict: escSilent, pos: lit.Pos(), truthPos: lit.Lbrace}
}

// checkHotComposite reports the composite literals compositeVerdict judges
// heap-bound.
func checkHotComposite(pass *Pass, n *hotNode, stack []ast.Node, lit *ast.CompositeLit) {
	parent := ast.Node(nil)
	if len(stack) > 0 {
		parent = stack[len(stack)-1]
	}
	v := compositeVerdict(n.pkg.Info, parent, lit)
	if v.verdict != escHeap {
		return
	}
	switch v.kind {
	case "slice":
		pass.Reportf(v.pos,
			"hot path (%s): slice literal allocates its backing array per cycle", n.chain)
	case "map":
		pass.Reportf(v.pos,
			"hot path (%s): map literal allocates per cycle", n.chain)
	case "addr":
		pass.Reportf(v.pos,
			"hot path (%s): &%s{…} escapes to the heap per cycle; reuse a field on the machine", n.chain, compositeTypeName(n.pkg.Info.TypeOf(lit)))
	}
}

func compositeTypeName(t types.Type) string {
	if named, ok := types.Unalias(t).(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

// isCallFun reports whether e is the function operand of its enclosing
// call (m.tick(w): the selector m.tick is a call, not a method value).
func isCallFun(stack []ast.Node, e ast.Expr) bool {
	if len(stack) == 0 {
		return false
	}
	call, ok := stack[len(stack)-1].(*ast.CallExpr)
	return ok && ast.Unparen(call.Fun) == ast.Unparen(e)
}

// builtinName names the builtin a call invokes, or "".
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

func checkHotBox(pass *Pass, n *hotNode, node ast.Node) {
	info := n.pkg.Info
	switch x := node.(type) {
	case *ast.CallExpr:
		if tv, ok := info.Types[x.Fun]; ok && tv.IsType() {
			if len(x.Args) == 1 && boxes(tv.Type, info.TypeOf(x.Args[0])) {
				pass.Reportf(x.Pos(),
					"hot path (%s): conversion boxes %s into %s per cycle", n.chain,
					typeName(info.TypeOf(x.Args[0])), typeName(tv.Type))
			}
			return
		}
		fn := Callee(info, x)
		if fn == nil {
			return
		}
		if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			pass.Reportf(x.Pos(),
				"hot path (%s): fmt.%s formats through reflection per cycle", n.chain, fn.Name())
			return
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return
		}
		for i, arg := range x.Args {
			pt := paramType(sig, i)
			if pt != nil && boxes(pt, info.TypeOf(arg)) {
				pass.Reportf(arg.Pos(),
					"hot path (%s): argument boxes %s into %s per cycle in the call to %s",
					n.chain, typeName(info.TypeOf(arg)), typeName(pt), fn.Name())
			}
		}
	case *ast.AssignStmt:
		if len(x.Lhs) != len(x.Rhs) {
			return
		}
		for i, lhs := range x.Lhs {
			lt := info.TypeOf(lhs)
			if lt != nil && boxes(lt, info.TypeOf(x.Rhs[i])) {
				pass.Reportf(x.Rhs[i].Pos(),
					"hot path (%s): assignment boxes %s into %s per cycle",
					n.chain, typeName(info.TypeOf(x.Rhs[i])), typeName(lt))
			}
		}
	case *ast.RangeStmt:
		if t := info.TypeOf(x.X); t != nil {
			if _, ok := types.Unalias(t).Underlying().(*types.Map); ok {
				pass.Reportf(x.Pos(),
					"hot path (%s): map iteration per cycle (nondeterministic order, hash-probe cost)", n.chain)
			}
		}
	case *ast.IndexExpr:
		if t := info.TypeOf(x.X); t != nil {
			if _, ok := types.Unalias(t).Underlying().(*types.Map); ok {
				pass.Reportf(x.Pos(),
					"hot path (%s): map lookup per cycle; replace with a dense table", n.chain)
			}
		}
	}
}

// boxes reports whether storing a value of type src into a location of
// type dst boxes: dst is an interface, src is a concrete non-pointer
// type. Pointers (and nil, whose type is untyped) fit in the interface
// word without allocating; interface-to-interface copies do not box.
func boxes(dst, src types.Type) bool {
	if dst == nil || src == nil {
		return false
	}
	if !types.IsInterface(dst.Underlying()) {
		return false
	}
	if types.IsInterface(src.Underlying()) {
		return false
	}
	if b, ok := src.Underlying().(*types.Basic); ok && b.Info()&types.IsUntyped != 0 {
		return false // nil, untyped constants: no runtime value to box here
	}
	if _, ok := src.Underlying().(*types.Pointer); ok {
		return false
	}
	return true
}

func typeName(t types.Type) string {
	if t == nil {
		return "?"
	}
	if named, ok := types.Unalias(t).(*types.Named); ok && named.Obj() != nil {
		if named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Name() + "." + named.Obj().Name()
		}
		return named.Obj().Name()
	}
	return t.String()
}
