package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"vax780/internal/latency"
)

// ULat is the static half of the latency oracle (DESIGN.md §16): for
// every opcode registered in the exec tables it resolves the registered
// handler expression to its microroutine closure — through local
// variables, factory calls with constant arguments, and factories
// returned by factories — and walks the closure's CFG (the µflow model
// of cfg.go/dataflow.go/uwmodel.go), deriving per-ucode.Class bounds on
// the execute-phase cycles the routine can count. Data-dependent loops
// (string, decimal, field scans, register-mask pushes) are detected via
// SCC condensation of the CFG and annotated with their loop variable
// rather than reported as unbounded. The derivation is emitted by
// cmd/vaxlat as the committed LATENCY.md + latency.json regression
// oracle; the analyzer itself reports what makes an opcode's bounds
// underivable — an unresolvable handler, a tick count that is neither
// constant nor inside a loop, a microword operand that resolves to no
// handle — plus any counted microword whose row disagrees with the
// opcode's registered Table 8 row.
var ULat = &Analyzer{
	Name:        "ulat",
	Doc:         "derive static per-opcode latency bounds and check counted rows against the Table 8 registration",
	ModuleLevel: true,
	Run:         runULat,
}

func runULat(pass *Pass) error {
	deriveULat(pass)
	return nil
}

// DeriveLatencyTable runs the ulat derivation over an already-loaded
// module and returns the table alongside the findings the analyzer
// would report. It is the entry point for cmd/vaxlat and the
// latency-truth test; pkgs must share one FileSet (LoadModule and
// LoadTestdataPackages both guarantee this).
func DeriveLatencyTable(pkgs []*Package) (*latency.Table, []Diagnostic, error) {
	if len(pkgs) == 0 {
		return &latency.Table{Version: latency.Version}, nil, nil
	}
	fset := pkgs[0].Fset
	for _, pkg := range pkgs[1:] {
		if pkg.Fset != fset {
			return nil, nil, fmt.Errorf("ulat: packages with distinct FileSets")
		}
	}
	var diags []Diagnostic
	pass := &Pass{Analyzer: ULat, Fset: fset, All: pkgs, diags: &diags, allows: buildAllowIndex(pkgs)}
	tab := deriveULat(pass)
	return tab, diags, nil
}

// ulatPrunedRows are service rows whose cycles are excluded from both
// sides of the oracle: memory-management overhead, interrupt/exception
// delivery and the patch-ROM abort are environment costs, not the
// opcode's own, and the dynamic harness drives each opcode under
// conditions (physical addressing, aligned operands, no pending
// interrupts) where they cannot fire.
var ulatPrunedRows = map[string]bool{
	"RowMemMgmt":   true,
	"RowIntExcept": true,
	"RowAbort":     true,
}

// ulatAbortReporters are the helpers whose boolean result says whether
// the instruction is still running: takeDisp answers false when an
// I-stream fault taken while it waited for the displacement redirected
// the IB to the exception handler. It is the one such answer an execute
// routine branches on (BSB's early return, branchTake's skipped
// redirect). The harness takes no faults, so the abort outcome is pruned
// like the service rows: an aborted instruction's partial cost must not
// lower the opcode's minimum.
var ulatAbortReporters = map[string]bool{"takeDisp": true}

// abortEdges returns the CFG edges, as (from, to) block indices, that
// body takes only after an abort reporter answered false: the then-edge
// of `if !ok` and the else-edge of `if ok`, where ok is the reporter's
// last result.
func abortEdges(pkg *Package, body *ast.BlockStmt, cfg *CFG) map[[2]int]bool {
	info := pkg.Info
	oks := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := Callee(info, call); fn != nil && ulatAbortReporters[fn.Name()] {
				if id, ok := n.Lhs[len(n.Lhs)-1].(*ast.Ident); ok && info.ObjectOf(id) != nil {
					oks[info.ObjectOf(id)] = true
				}
			}
		}
		return true
	})
	if len(oks) == 0 {
		return nil
	}
	abortWhen := make(map[ast.Expr]bool) // if condition → the outcome that means abort
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.IfStmt:
			c, abortOn := ast.Unparen(n.Cond), false
			if u, ok := c.(*ast.UnaryExpr); ok && u.Op == token.NOT {
				c, abortOn = ast.Unparen(u.X), true
			}
			if id, ok := c.(*ast.Ident); ok && oks[info.ObjectOf(id)] {
				abortWhen[n.Cond] = abortOn
			}
		}
		return true
	})
	edges := make(map[[2]int]bool)
	for _, blk := range cfg.Blocks {
		if len(blk.Stmts) == 0 || len(blk.Succs) != 2 {
			continue
		}
		es, ok := blk.Stmts[len(blk.Stmts)-1].(*ast.ExprStmt)
		if !ok {
			continue
		}
		if abortOn, ok := abortWhen[es.X]; ok {
			// BuildCFG orders an if's successors then, else-or-after.
			to := blk.Succs[1]
			if abortOn {
				to = blk.Succs[0]
			}
			edges[[2]int{blk.Index, to.Index}] = true
		}
	}
	return edges
}

// ulatSharedRows may appear in any opcode's word set regardless of its
// Table 8 row: register result stores and memory write-backs are
// specifier-row cycles by the paper's accounting, and taken branches
// dispatch through the BDISP row.
var ulatSharedRows = map[string]bool{
	"RowSpec1":  true,
	"RowSpec26": true,
	"RowBDisp":  true,
}

// ulatGroupRow maps an opTable group constant name to its Table 8
// execute row (the name-space mirror of core/reduce.go execRowOf).
var ulatGroupRow = map[string]string{
	"GroupSimple":    "RowSimple",
	"GroupField":     "RowField",
	"GroupFloat":     "RowFloat",
	"GroupCallRet":   "RowCallRet",
	"GroupSystem":    "RowSystem",
	"GroupCharacter": "RowCharacter",
	"GroupDecimal":   "RowDecimal",
}

// latSubst is the constant/word substitution in force while walking one
// function: factory and helper parameters bound to the values their
// call site passed.
type latSubst struct {
	consts map[types.Object]int64
	words  map[types.Object]valueSet
}

func newLatSubst() *latSubst {
	return &latSubst{consts: make(map[types.Object]int64), words: make(map[types.Object]valueSet)}
}

// latNote is one derivability problem found during a walk.
type latNote struct {
	pos token.Pos
	msg string
}

// latCost is the derived cost of one body (or one straight-line block):
// per-class bounds with loops excluded, loop terms, the perturbation
// fingerprint, and the contributing exec-channel words.
type latCost struct {
	lo, hi map[string]uint64
	sum    map[string]uint64
	loops  []latency.LoopTerm
	words  map[string]bool
	rows   map[string]bool // rows of contributing words, word name → row
	wrow   map[string]string
	scaled bool
	notes  []latNote
}

func newLatCost() *latCost {
	return &latCost{
		lo: make(map[string]uint64), hi: make(map[string]uint64),
		sum: make(map[string]uint64), words: make(map[string]bool),
		rows: make(map[string]bool), wrow: make(map[string]string),
	}
}

// addSeq composes c with a child cost executed unconditionally in
// sequence (bounds add; loops, words and notes union).
func (c *latCost) addSeq(o *latCost) {
	for k, v := range o.lo {
		c.lo[k] += v
	}
	for k, v := range o.hi {
		c.hi[k] += v
	}
	c.absorb(o)
}

// absorb merges everything but the path bounds.
func (c *latCost) absorb(o *latCost) {
	for k, v := range o.sum {
		c.sum[k] += v
	}
	c.loops = append(c.loops, o.loops...)
	for w := range o.words {
		c.words[w] = true
	}
	for r := range o.rows {
		c.rows[r] = true
	}
	for w, r := range o.wrow {
		c.wrow[w] = r
	}
	c.scaled = c.scaled || o.scaled
	c.notes = append(c.notes, o.notes...)
}

// resolvedFn is a handler expression resolved to a walkable body: its
// flow, the substitution its free parameters carry, and the lexical
// scope chain (innermost first) for resolving calls to locally assigned
// closures.
type resolvedFn struct {
	flow   *funcFlow
	sub    *latSubst
	scopes []*ast.BlockStmt
}

// latWalker derives costs over the µflow model.
type latWalker struct {
	m       *uwModel
	active  map[*funcFlow]bool
	svcMemo map[*types.Func]bool
	depth   int
}

const latMaxDepth = 24

// ---------------------------------------------------------------------------
// Handler resolution

// resolveFn resolves a handler-valued expression to a function body.
// It understands the registration shapes of the exec files: a direct
// closure literal, a named function, a local variable assigned either
// of those, and a factory call — a function (declared or itself a
// local closure) whose body returns the closure, with the factory's
// constant arguments folded into the substitution so tick counts like
// fpCost(cost) and 2*n resolve inside the returned body.
func (w *latWalker) resolveFn(pkg *Package, sub *latSubst, scopes []*ast.BlockStmt, e ast.Expr) *resolvedFn {
	if w.depth > latMaxDepth {
		return nil
	}
	w.depth++
	defer func() { w.depth-- }()

	switch x := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		flow := w.m.litFlows[x]
		if flow == nil {
			return nil
		}
		return &resolvedFn{flow: flow, sub: sub, scopes: append([]*ast.BlockStmt{x.Body}, scopes...)}
	case *ast.Ident:
		obj := pkg.Info.Uses[x]
		if obj == nil {
			obj = pkg.Info.Defs[x]
		}
		switch obj := obj.(type) {
		case *types.Func:
			return w.declaredFn(obj)
		case *types.Var:
			if rhs, rscopes := localInitExpr(pkg, scopes, obj); rhs != nil {
				return w.resolveFn(pkg, sub, rscopes, rhs)
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := pkg.Info.Uses[x.Sel].(*types.Func); ok {
			return w.declaredFn(fn)
		}
	case *ast.CallExpr:
		// A type conversion is transparent.
		if len(x.Args) == 1 {
			if tv, ok := pkg.Info.Types[x.Fun]; ok && tv.IsType() {
				return w.resolveFn(pkg, sub, scopes, x.Args[0])
			}
		}
		factory := w.resolveFn(pkg, sub, scopes, x.Fun)
		if factory == nil || factory.flow == nil {
			return nil
		}
		ret := returnedExpr(factory.scopes[0])
		if ret == nil {
			return nil
		}
		fsub := newLatSubst()
		params := paramsInOrder(factory.flow)
		for i, p := range params {
			if i >= len(x.Args) {
				break
			}
			if v, ok := w.constInt(pkg, sub, x.Args[i], nil); ok {
				fsub.consts[p] = v
			}
			if vs := w.argWords(pkg, sub, scopes, x.Args[i]); !vs.empty() {
				fsub.words[p] = vs
			}
		}
		return w.resolveFn(factory.flow.pkg, fsub, factory.scopes, ret)
	}
	return nil
}

func (w *latWalker) declaredFn(fn *types.Func) *resolvedFn {
	flow := w.m.flows[fn]
	if flow == nil || flow.fd.Decl == nil || flow.fd.Decl.Body == nil {
		return nil
	}
	return &resolvedFn{flow: flow, sub: newLatSubst(), scopes: []*ast.BlockStmt{flow.fd.Decl.Body}}
}

// paramsInOrder inverts a flow's paramIdx map.
func paramsInOrder(flow *funcFlow) []*types.Var {
	out := make([]*types.Var, flow.nparams)
	for p, i := range flow.paramIdx {
		if i >= 0 && i < len(out) {
			out[i] = p
		}
	}
	return out
}

// returnedExpr finds the single expression a factory body returns,
// skipping nested literals (their returns belong to the closure, not
// the factory).
func returnedExpr(body *ast.BlockStmt) ast.Expr {
	var ret ast.Expr
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if r, ok := n.(*ast.ReturnStmt); ok && len(r.Results) == 1 && ret == nil {
			ret = r.Results[0]
		}
		return true
	})
	return ret
}

// localInitExpr finds the expression a local variable was initialized
// with, searching the scope chain innermost first; the returned scope
// slice starts at the scope holding the assignment.
func localInitExpr(pkg *Package, scopes []*ast.BlockStmt, v *types.Var) (ast.Expr, []*ast.BlockStmt) {
	for si, scope := range scopes {
		var found ast.Expr
		ast.Inspect(scope, func(n ast.Node) bool {
			if found != nil {
				return false
			}
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, lhs := range n.Lhs {
					id, ok := ast.Unparen(lhs).(*ast.Ident)
					if !ok {
						continue
					}
					obj := pkg.Info.Defs[id]
					if obj == nil {
						obj = pkg.Info.Uses[id]
					}
					if obj == v {
						found = n.Rhs[i]
						return false
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if pkg.Info.Defs[name] == v && i < len(n.Values) {
						found = n.Values[i]
						return false
					}
				}
			}
			return true
		})
		if found != nil {
			return found, scopes[si:]
		}
	}
	return nil, nil
}

// ---------------------------------------------------------------------------
// Constant folding and word resolution

// constInt folds an expression to a constant integer under the current
// substitution. Beyond what go/types folds it handles parameters bound
// to factory constants, arithmetic over them, transparent conversions,
// and Machine.fpCost — folded at its FPA-present value with the cost
// marked configuration-scaled on bc.
func (w *latWalker) constInt(pkg *Package, sub *latSubst, e ast.Expr, bc *latCost) (int64, bool) {
	if tv, ok := pkg.Info.Types[e]; ok && tv.Value != nil {
		if v, ok := constant.Int64Val(constant.ToInt(tv.Value)); ok {
			return v, true
		}
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := pkg.Info.Uses[x]; obj != nil {
			if v, ok := sub.consts[obj]; ok {
				return v, true
			}
		}
	case *ast.BinaryExpr:
		a, oka := w.constInt(pkg, sub, x.X, bc)
		b, okb := w.constInt(pkg, sub, x.Y, bc)
		if oka && okb {
			switch x.Op {
			case token.ADD:
				return a + b, true
			case token.SUB:
				return a - b, true
			case token.MUL:
				return a * b, true
			case token.QUO:
				if b != 0 {
					return a / b, true
				}
			}
		}
	case *ast.UnaryExpr:
		if x.Op == token.SUB {
			if v, ok := w.constInt(pkg, sub, x.X, bc); ok {
				return -v, true
			}
		}
	case *ast.CallExpr:
		if len(x.Args) == 1 {
			if tv, ok := pkg.Info.Types[x.Fun]; ok && tv.IsType() {
				return w.constInt(pkg, sub, x.Args[0], bc)
			}
			if fn := Callee(pkg.Info, x); fn != nil && fn.Name() == "fpCost" {
				if v, ok := w.constInt(pkg, sub, x.Args[0], bc); ok {
					if bc != nil {
						bc.scaled = true
					}
					return v, true
				}
			}
		}
	}
	return 0, false
}

// argWords evaluates an expression's possible microword handles with no
// flow environment (package-level bindings and field selectors resolve
// statically; substituted parameters resolve through sub).
func (w *latWalker) argWords(pkg *Package, sub *latSubst, scopes []*ast.BlockStmt, e ast.Expr) valueSet {
	tmp := &funcFlow{pkg: pkg, paramIdx: make(map[*types.Var]int)}
	return w.expandParams(sub, w.m.eval(tmp, make(env), e))
}

// expandParams rewrites parameter aliases in a valueSet through the
// substitution, leaving a handle-only set.
func (w *latWalker) expandParams(sub *latSubst, vs valueSet) valueSet {
	var out valueSet
	for i := range vs.handles {
		out.addHandle(i)
	}
	for p := range vs.params {
		if pv, ok := sub.words[p]; ok {
			for i := range pv.handles {
				out.addHandle(i)
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// The walk

// walk derives the cost of one resolved body: per-block contributions,
// SCC condensation for loops, then per-class shortest/longest path over
// the condensed DAG.
func (w *latWalker) walk(r *resolvedFn) *latCost {
	res := newLatCost()
	flow := r.flow
	if flow == nil || flow.cfg == nil {
		return res
	}
	if w.active[flow] {
		res.notes = append(res.notes, latNote{flowPos(flow), "recursive microroutine helper; latency bounds underivable"})
		return res
	}
	if w.depth > latMaxDepth {
		return res
	}
	w.active[flow] = true
	w.depth++
	defer func() { delete(w.active, flow); w.depth-- }()

	spans := collectLoopSpans(flow.pkg, r.scopes[0])

	nb := len(flow.cfg.Blocks)
	blockCost := make([]*latCost, nb)
	firstCount := make([]token.Pos, nb)
	for _, blk := range flow.cfg.Blocks {
		bc := newLatCost()
		cur := make(env)
		if blk.Index < len(flow.blockIn) && flow.blockIn[blk.Index] != nil {
			cur = flow.blockIn[blk.Index].clone()
		}
		for _, s := range blk.Stmts {
			w.stmtCost(r, cur, s, bc, &firstCount[blk.Index])
			w.m.transfer(flow, cur, s)
		}
		blockCost[blk.Index] = bc
	}

	comp, compLoop := ulatSCC(flow.cfg)
	ncomp := 0
	for _, c := range comp {
		if c+1 > ncomp {
			ncomp = c + 1
		}
	}

	// Reachability from the entry block, over components, leaving out
	// the edges only an aborted instruction takes.
	abort := abortEdges(flow.pkg, r.scopes[0], flow.cfg)
	preds := make([]map[int]bool, ncomp)
	for i := range preds {
		preds[i] = make(map[int]bool)
	}
	for _, blk := range flow.cfg.Blocks {
		for _, s := range blk.Succs {
			if comp[blk.Index] != comp[s.Index] && !abort[[2]int{blk.Index, s.Index}] {
				preds[comp[s.Index]][comp[blk.Index]] = true
			}
		}
	}
	entry := comp[0]
	reach := make([]bool, ncomp)
	loD := make([]map[string]uint64, ncomp)
	hiD := make([]map[string]uint64, ncomp)

	// Per-component straight-line contribution (zero for loop
	// components: their cycles become loop terms below).
	contribLo := make([]map[string]uint64, ncomp)
	contribHi := make([]map[string]uint64, ncomp)
	for i := range contribLo {
		contribLo[i] = make(map[string]uint64)
		contribHi[i] = make(map[string]uint64)
	}
	loopBody := make([]map[string]uint64, ncomp)
	for _, blk := range flow.cfg.Blocks {
		c := comp[blk.Index]
		bc := blockCost[blk.Index]
		if compLoop[c] {
			if loopBody[c] == nil {
				loopBody[c] = make(map[string]uint64)
			}
			for k, v := range bc.hi {
				loopBody[c][k] += v
			}
		} else {
			for k, v := range bc.lo {
				contribLo[c][k] += v
			}
			for k, v := range bc.hi {
				contribHi[c][k] += v
			}
		}
	}

	// Tarjan numbers components in reverse topological order:
	// processing ids descending visits every predecessor first.
	for c := ncomp - 1; c >= 0; c-- {
		if c == entry {
			reach[c] = true
			loD[c] = copyCounts(contribLo[c])
			hiD[c] = copyCounts(contribHi[c])
			continue
		}
		var lo, hi map[string]uint64
		any := false
		for p := range preds[c] {
			if !reach[p] {
				continue
			}
			if !any {
				lo = copyCounts(loD[p])
				hi = copyCounts(hiD[p])
				any = true
				continue
			}
			lo = joinMin(lo, loD[p])
			hi = joinMax(hi, hiD[p])
		}
		if !any {
			continue
		}
		reach[c] = true
		for k, v := range contribLo[c] {
			lo[k] += v
		}
		for k, v := range contribHi[c] {
			hi[k] += v
		}
		loD[c] = lo
		hiD[c] = hi
	}

	// Merge reachable blocks' fingerprints, words, notes and child
	// loops; turn each reachable loop component into a loop term.
	termed := make([]bool, ncomp)
	for _, blk := range flow.cfg.Blocks {
		c := comp[blk.Index]
		if !reach[c] {
			continue
		}
		res.absorb(blockCost[blk.Index])
		if compLoop[c] && !termed[c] && len(loopBody[c]) > 0 {
			termed[c] = true
			pos := loopTermPos(flow, comp, c, firstCount)
			res.loops = append(res.loops, latency.LoopTerm{
				Var:     loopVarAt(spans, pos),
				Classes: copyCounts(loopBody[c]),
			})
		}
	}

	exitComp := comp[flow.cfg.Exit.Index]
	if reach[exitComp] {
		res.lo = loD[exitComp]
		res.hi = hiD[exitComp]
	} else {
		res.notes = append(res.notes, latNote{flowPos(flow), "exit is unreachable; latency bounds underivable"})
	}
	return res
}

func flowPos(flow *funcFlow) token.Pos {
	if flow.lit != nil {
		return flow.lit.Pos()
	}
	if flow.fd.Decl != nil {
		return flow.fd.Decl.Pos()
	}
	return token.NoPos
}

func copyCounts(m map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// joinMin takes the per-class minimum of two path costs; a class absent
// from either map costs 0 on that path.
func joinMin(a, b map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64)
	for k, v := range a {
		if bv, ok := b[k]; ok && bv < v {
			out[k] = bv
		} else if ok {
			out[k] = v
		}
		// absent in b: min is 0, leave out
	}
	return out
}

// joinMax takes the per-class maximum.
func joinMax(a, b map[string]uint64) map[string]uint64 {
	out := copyCounts(a)
	for k, v := range b {
		if v > out[k] {
			out[k] = v
		}
	}
	return out
}

// loopTermPos picks a representative position inside a loop component:
// the first counted contribution, else the first statement.
func loopTermPos(flow *funcFlow, comp []int, c int, firstCount []token.Pos) token.Pos {
	for _, blk := range flow.cfg.Blocks {
		if comp[blk.Index] == c && firstCount[blk.Index].IsValid() {
			return firstCount[blk.Index]
		}
	}
	for _, blk := range flow.cfg.Blocks {
		if comp[blk.Index] == c && len(blk.Stmts) > 0 {
			return blk.Stmts[0].Pos()
		}
	}
	return token.NoPos
}

// stmtCost accumulates the contributions of every call in one statement
// into bc, skipping nested closures (separate flows).
func (w *latWalker) stmtCost(r *resolvedFn, cur env, s ast.Stmt, bc *latCost, firstCount *token.Pos) {
	flow, sub := r.flow, r.sub
	pkg := flow.pkg
	ast.Inspect(s, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := Callee(pkg.Info, call); fn != nil {
			if ch, wi, ok := channelOf(fn); ok {
				w.primCost(r, cur, call, ch, wi, fn.Name(), bc, firstCount)
				return true
			}
			if w.serviceOnly(fn) {
				return true
			}
			if w.countingReachable(fn) {
				child := w.m.flows[fn]
				if child == nil || child.fd.Decl == nil {
					bc.notes = append(bc.notes, latNote{call.Pos(), fmt.Sprintf("counting helper %s has no analyzable body", fn.Name())})
					return true
				}
				cres := w.walk(&resolvedFn{
					flow:   child,
					sub:    w.bindSub(r, cur, call, child),
					scopes: []*ast.BlockStmt{child.fd.Decl.Body},
				})
				bc.addSeq(cres)
			}
			return true
		}
		if ch, ok := probeChannelOf(pkg, call); ok {
			w.primCost(r, cur, call, ch, 0, "Count", bc, firstCount)
			return true
		}
		// A call through a local variable holding a closure (the
		// SVPCTX/LDPCTX store/load pattern, and factory-local helpers
		// like bbi's plain).
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if v, ok := localVarOf(pkg, id); ok {
				if rhs, rscopes := localInitExpr(pkg, r.scopes, v); rhs != nil {
					if target := w.resolveFn(pkg, sub, rscopes, rhs); target != nil && target.flow != flow {
						csub := w.bindSub(r, cur, call, target.flow)
						for o, vv := range target.sub.consts {
							csub.consts[o] = vv
						}
						for o, vv := range target.sub.words {
							if _, have := csub.words[o]; !have {
								csub.words[o] = vv
							}
						}
						bc.addSeq(w.walk(&resolvedFn{flow: target.flow, sub: csub, scopes: target.scopes}))
					}
				}
			}
		}
		return true
	})
}

func localVarOf(pkg *Package, id *ast.Ident) (*types.Var, bool) {
	obj := pkg.Info.Uses[id]
	if obj == nil {
		obj = pkg.Info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil, false
	}
	if v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return nil, false
	}
	return v, true
}

// primCost records one counting-primitive call. Only the exec channel
// contributes to bounds: stall cycles are timing-dependent (and
// recorded on the stall channel), IB-stall ticks and folded markers are
// excluded from the execute-phase comparison by class.
func (w *latWalker) primCost(r *resolvedFn, cur env, call *ast.CallExpr, ch uwChannel, wi int, name string, bc *latCost, firstCount *token.Pos) {
	if ch != chExec {
		return
	}
	flow, sub := r.flow, r.sub
	if wi >= len(call.Args) {
		return
	}
	var n int64 = 1
	if name == "ticks" || name == "Count" {
		if wi+1 >= len(call.Args) {
			return
		}
		v, ok := w.constInt(flow.pkg, sub, call.Args[wi+1], bc)
		if !ok {
			bc.notes = append(bc.notes, latNote{call.Pos(), "tick count is not statically constant; latency bounds underivable"})
			return
		}
		n = v
	}
	if n <= 0 {
		return
	}
	vs := w.expandParams(sub, w.m.eval(flow, cur, call.Args[wi]))
	if len(vs.handles) == 0 {
		bc.notes = append(bc.notes, latNote{call.Pos(), "microword operand resolves to no control-store handle; latency bounds underivable"})
		return
	}
	idx := make([]int, 0, len(vs.handles))
	for i := range vs.handles {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	classes := make(map[string]bool)
	for _, i := range idx {
		h := w.m.handles[i]
		if ulatPrunedRows[h.Row] {
			continue
		}
		if h.Class == "ClassIBStall" || h.Class == "ClassMarker" {
			continue
		}
		if h.Class == "" {
			bc.notes = append(bc.notes, latNote{call.Pos(), fmt.Sprintf("microword %s has no statically known class; latency bounds underivable", h.Name)})
			continue
		}
		classes[h.Class] = true
		bc.words[h.Name] = true
		bc.rows[h.Row] = true
		bc.wrow[h.Name] = h.Row
	}
	if len(classes) == 0 {
		return
	}
	if !firstCount.IsValid() {
		*firstCount = call.Pos()
	}
	exact := len(classes) == 1
	for c := range classes {
		bc.hi[c] += uint64(n)
		bc.sum[c] += uint64(n)
		if exact {
			bc.lo[c] += uint64(n)
		}
	}
}

// bindSub builds the substitution for a helper call: each callee
// parameter bound to the constant and/or word set its argument carries
// at the call site.
func (w *latWalker) bindSub(r *resolvedFn, cur env, call *ast.CallExpr, child *funcFlow) *latSubst {
	flow, sub := r.flow, r.sub
	cs := newLatSubst()
	for i, p := range paramsInOrder(child) {
		if p == nil || i >= len(call.Args) {
			continue
		}
		if v, ok := w.constInt(flow.pkg, sub, call.Args[i], nil); ok {
			cs.consts[p] = v
		}
		if vs := w.expandParams(sub, w.m.eval(flow, cur, call.Args[i])); !vs.empty() {
			cs.words[p] = vs
		}
	}
	return cs
}

// serviceOnly reports whether every concrete microword fn touches —
// words it counts directly and words it hands to parameterized helpers
// — sits in a pruned service row (TB-miss service, exception delivery,
// alignment microcode). Such a helper contributes nothing to the oracle
// by the pruning policy, and not descending into it is what breaks the
// one genuine recursion in the model: dread → xlate → tbMissService →
// pageFault → deliverException → push32 → dwrite → xlate. Dynamically
// the harness never enters these routines (physical addressing, aligned
// operands, no faults), and even when an opcode's own semantics deliver
// an exception the cycles land on pruned-row words outside the opcode's
// attribution set, so skipping keeps both sides of the oracle aligned.
func (w *latWalker) serviceOnly(fn *types.Func) bool {
	if v, ok := w.svcMemo[fn]; ok {
		return v
	}
	w.svcMemo[fn] = false // recursion guard: resolve cycles to "descend"
	res := false
	if flow := w.m.flows[fn]; flow != nil {
		any, allPruned := false, true
		for _, site := range flow.sites {
			for _, vs := range site.args {
				for i := range vs.handles {
					h := w.m.handles[i]
					if h.Row == "" {
						continue
					}
					any = true
					if !ulatPrunedRows[h.Row] {
						allPruned = false
					}
				}
			}
		}
		res = any && allPruned
	}
	w.svcMemo[fn] = res
	return res
}

// countingReachable reports whether fn can transitively reach a
// counting primitive (including through closures declared in its body).
func (w *latWalker) countingReachable(fn *types.Func) bool {
	return w.countingRec(fn, make(map[*types.Func]bool))
}

func (w *latWalker) countingRec(fn *types.Func, seen map[*types.Func]bool) bool {
	if seen[fn] {
		return false
	}
	seen[fn] = true
	flow := w.m.flows[fn]
	if flow == nil {
		return false
	}
	if flowCounts(flow) {
		return true
	}
	for _, site := range flow.sites {
		if site.callee != nil {
			if _, _, ok := channelOf(site.callee); ok {
				return true
			}
			if w.countingRec(site.callee, seen) {
				return true
			}
		}
	}
	// Closures declared inside the body count for the body.
	if flow.fd.Decl != nil && flow.fd.Decl.Body != nil {
		counts := false
		ast.Inspect(flow.fd.Decl.Body, func(n ast.Node) bool {
			if counts {
				return false
			}
			if lit, ok := n.(*ast.FuncLit); ok {
				if lf := w.m.litFlows[lit]; lf != nil && flowCounts(lf) {
					counts = true
				}
			}
			return true
		})
		if counts {
			return true
		}
	}
	return false
}

func flowCounts(flow *funcFlow) bool {
	for _, site := range flow.sites {
		if site.callee != nil {
			if _, _, ok := channelOf(site.callee); ok {
				return true
			}
		} else if site.probeCh != "" {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Loop spans

type loopSpan struct {
	pos, end token.Pos
	name     string
}

// collectLoopSpans records every for/range statement of a body with the
// name of the variable(s) its condition scales on.
func collectLoopSpans(pkg *Package, body *ast.BlockStmt) []loopSpan {
	var spans []loopSpan
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch n := n.(type) {
		case *ast.ForStmt:
			spans = append(spans, loopSpan{n.Pos(), n.End(), forCondVars(pkg, n.Cond)})
		case *ast.RangeStmt:
			spans = append(spans, loopSpan{n.Pos(), n.End(), rangeName(n.X)})
		}
		return true
	})
	return spans
}

func forCondVars(pkg *Package, cond ast.Expr) string {
	if cond == nil {
		return "data"
	}
	var names []string
	seen := make(map[string]bool)
	ast.Inspect(cond, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pkg.Info.Uses[id]
		if v, ok := obj.(*types.Var); ok && !v.IsField() && !seen[id.Name] {
			seen[id.Name] = true
			names = append(names, id.Name)
		}
		return true
	})
	if len(names) == 0 {
		return "data"
	}
	return strings.Join(names, ",")
}

func rangeName(x ast.Expr) string {
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return "range"
}

// loopVarAt names the innermost loop span containing pos.
func loopVarAt(spans []loopSpan, pos token.Pos) string {
	best := ""
	var bestSize token.Pos = -1
	for _, s := range spans {
		if pos < s.pos || pos >= s.end {
			continue
		}
		size := s.end - s.pos
		if bestSize < 0 || size < bestSize {
			bestSize = size
			best = s.name
		}
	}
	if best == "" {
		return "data"
	}
	return best
}

// ---------------------------------------------------------------------------
// General SCCs (iterative Tarjan; unlike concmodel's sccLoops this keeps
// every component, escapable or not — a string-copy loop with a break is
// still a loop for latency purposes)

func ulatSCC(cfg *CFG) (comp []int, isLoop []bool) {
	n := len(cfg.Blocks)
	comp = make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var compSizes []int
	next := 0

	type frame struct {
		v  int
		ei int
	}
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		var call []frame
		call = append(call, frame{root, 0})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(call) > 0 {
			f := &call[len(call)-1]
			blk := cfg.Blocks[f.v]
			if f.ei < len(blk.Succs) {
				wi := blk.Succs[f.ei].Index
				f.ei++
				if index[wi] == -1 {
					index[wi] = next
					low[wi] = next
					next++
					stack = append(stack, wi)
					onStack[wi] = true
					call = append(call, frame{wi, 0})
				} else if onStack[wi] && index[wi] < low[f.v] {
					low[f.v] = index[wi]
				}
				continue
			}
			v := f.v
			call = call[:len(call)-1]
			if len(call) > 0 {
				parent := call[len(call)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == index[v] {
				id := len(compSizes)
				size := 0
				for {
					wv := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[wv] = false
					comp[wv] = id
					size++
					if wv == v {
						break
					}
				}
				compSizes = append(compSizes, size)
			}
		}
	}

	isLoop = make([]bool, len(compSizes))
	for i, sz := range compSizes {
		if sz > 1 {
			isLoop[i] = true
		}
	}
	for _, blk := range cfg.Blocks {
		for _, s := range blk.Succs {
			if s.Index == blk.Index {
				isLoop[comp[blk.Index]] = true
			}
		}
	}
	return comp, isLoop
}

// ---------------------------------------------------------------------------
// Registrations and the table

// latRegistration is one register() call with its handler expression.
type latRegistration struct {
	names   []string
	handler ast.Expr
	pkg     *Package
	scopes  []*ast.BlockStmt
	pos     token.Pos
}

func collectLatRegistrations(pkgs []*Package) []latRegistration {
	var out []latRegistration
	for _, pkg := range pkgs {
		pkg := pkg
		WalkWithStack(pkg, func(stack []ast.Node, n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			fn, ok := call.Fun.(*ast.Ident)
			if !ok || fn.Name != "register" || len(call.Args) < 2 {
				return
			}
			names, ok := resolveOpcodeArg(pkg, stack, call.Args[0])
			if !ok {
				return // exectable reports the unresolvable opcode argument
			}
			var scopes []*ast.BlockStmt
			for i := len(stack) - 1; i >= 0; i-- {
				switch s := stack[i].(type) {
				case *ast.FuncLit:
					scopes = append(scopes, s.Body)
				case *ast.FuncDecl:
					scopes = append(scopes, s.Body)
				}
			}
			out = append(out, latRegistration{
				names: names, handler: call.Args[1], pkg: pkg, scopes: scopes, pos: call.Pos(),
			})
		})
	}
	return out
}

// opTableGroups maps opcode names to their opTable group constant name
// (positional row form: {CODE, "NAME", GroupX, ...}).
func opTableGroups(pkgs []*Package) map[string]string {
	out := make(map[string]string)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				vs, ok := n.(*ast.ValueSpec)
				if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "opTable" || len(vs.Values) != 1 {
					return true
				}
				cl, ok := vs.Values[0].(*ast.CompositeLit)
				if !ok {
					return true
				}
				for _, elt := range cl.Elts {
					row, ok := elt.(*ast.CompositeLit)
					if !ok || len(row.Elts) < 3 {
						continue
					}
					name, ok := opcodeRefName(row.Elts[0])
					if !ok {
						continue
					}
					if group, ok := opcodeRefName(row.Elts[2]); ok {
						out[name] = group
					}
				}
				return false
			})
		}
	}
	return out
}

// deriveULat is the shared engine behind the analyzer and
// DeriveLatencyTable: derive every registered opcode's bounds, report
// findings through the pass, return the table.
func deriveULat(pass *Pass) *latency.Table {
	m := buildUWModel(pass, pass.All)
	w := &latWalker{m: m, active: make(map[*funcFlow]bool), svcMemo: make(map[*types.Func]bool)}
	groups := opTableGroups(pass.All)

	tab := &latency.Table{
		Version: latency.Version,
		Note: "static per-opcode execute-phase cycle bounds derived from the microroutines " +
			"(ulat analyzer, DESIGN.md §16); regenerate with `go run ./cmd/vaxlat`",
	}
	reported := make(map[string]bool)
	report := func(pos token.Pos, format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		key := fmt.Sprintf("%d|%s", pos, msg)
		if reported[key] {
			return
		}
		reported[key] = true
		pass.Reportf(pos, "%s", msg)
	}

	for _, reg := range collectLatRegistrations(pass.All) {
		label := strings.Join(reg.names, ",")
		if len(reg.names) > 3 {
			label = fmt.Sprintf("%s,… (%d opcodes)", reg.names[0], len(reg.names))
		}
		res := w.resolveFn(reg.pkg, newLatSubst(), reg.scopes, reg.handler)
		if res == nil {
			report(reg.pos, "opcode %s: handler expression cannot be resolved statically; latency bounds underivable", label)
			continue
		}
		cost := w.walk(res)
		for _, note := range cost.notes {
			report(note.pos, "opcode %s: %s", label, note.msg)
		}

		group := groups[reg.names[0]]
		row := ulatGroupRow[group]
		if row != "" {
			words := make([]string, 0, len(cost.wrow))
			for name := range cost.wrow {
				words = append(words, name)
			}
			sort.Strings(words)
			for _, name := range words {
				r := cost.wrow[name]
				if r != row && !ulatSharedRows[r] && r != "" {
					report(reg.pos, "opcode %s: microword %s (row %s) counted outside its Table 8 row %s", label, name, r, row)
				}
			}
		}

		for _, name := range reg.names {
			op := latency.Opcode{
				Name:    name,
				Group:   groups[name],
				Row:     ulatGroupRow[groups[name]],
				Classes: make(map[string]latency.Bound),
				Scaled:  cost.scaled,
			}
			for c := range union2(cost.lo, cost.hi) {
				op.Classes[c] = latency.Bound{Min: cost.lo[c], Max: cost.hi[c]}
			}
			if len(cost.sum) > 0 {
				op.Sum = copyCounts(cost.sum)
			}
			for _, l := range cost.loops {
				op.Loops = append(op.Loops, latency.LoopTerm{Var: l.Var, Classes: copyCounts(l.Classes)})
			}
			op.Words = make([]string, 0, len(cost.words))
			for word := range cost.words {
				op.Words = append(op.Words, word)
			}
			sort.Strings(op.Words)
			tab.Opcodes = append(tab.Opcodes, op)
		}
	}

	tab.Modes = deriveModes(w, pass.All)
	sort.Slice(tab.Opcodes, func(i, j int) bool { return tab.Opcodes[i].Name < tab.Opcodes[j].Name })
	return tab
}

func union2(a, b map[string]uint64) map[string]bool {
	out := make(map[string]bool, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

// ---------------------------------------------------------------------------
// Addressing-mode table

// deriveModes derives the per-addressing-mode specifier costs by walking
// the arms of runSpecifier's mode and access switches (read access,
// longword operand): each mode row is one dispatch cycle plus its arm's
// cost plus — for modes that fall through to the access switch — the
// read-access cost. Absent when the load has no runSpecifier (fixtures).
func deriveModes(w *latWalker, pkgs []*Package) []latency.Mode {
	var pkg *Package
	var body *ast.BlockStmt
	for _, p := range pkgs {
		for _, fd := range PackageFuncs(p) {
			if fd.Obj != nil && fd.Obj.Name() == "runSpecifier" && fd.Decl.Body != nil {
				pkg, body = p, fd.Decl.Body
			}
		}
	}
	if body == nil {
		return nil
	}

	var modeSwitch, accessSwitch *ast.SwitchStmt
	ast.Inspect(body, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok || sw.Tag == nil {
			return true
		}
		if sel, ok := sw.Tag.(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "Mode":
				if modeSwitch == nil {
					modeSwitch = sw
				}
			case "Access":
				if accessSwitch == nil {
					accessSwitch = sw
				}
			}
		}
		return true
	})
	if modeSwitch == nil || accessSwitch == nil {
		return nil
	}

	// The common dispatch cycle: m.tick(bank.dispatch[...]).
	dispatch := newLatCost()
	immExtra := newLatCost()
	ast.Inspect(body, func(n ast.Node) bool {
		if n == modeSwitch || n == accessSwitch {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := Callee(pkg.Info, call)
		if fn == nil || fn.Name() != "tick" || len(call.Args) != 1 {
			return true
		}
		switch arg := call.Args[0].(type) {
		case *ast.IndexExpr:
			if sel, ok := arg.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "dispatch" {
				w.syntheticStmtCost(pkg, &ast.ExprStmt{X: call}, dispatch)
			}
		case *ast.SelectorExpr:
			if arg.Sel.Name == "immExtra" {
				w.syntheticStmtCost(pkg, &ast.ExprStmt{X: call}, immExtra)
			}
		}
		return true
	})

	var readCost *latCost
	for _, clause := range accessSwitch.Body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			if name, ok := opcodeRefName(e); ok && name == "AccessRead" {
				readCost = w.walkSynthetic(pkg, cc.Body)
			}
		}
	}
	if readCost == nil {
		readCost = newLatCost()
	}

	var modes []latency.Mode
	for _, clause := range modeSwitch.Body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok || len(cc.List) == 0 {
			continue
		}
		arm := w.walkSynthetic(pkg, cc.Body)
		terminal := len(cc.Body) > 0
		if terminal {
			_, terminal = cc.Body[len(cc.Body)-1].(*ast.ReturnStmt)
		}
		total := newLatCost()
		total.addSeq(dispatch)
		total.addSeq(arm)
		if !terminal {
			total.addSeq(readCost)
		}
		for _, e := range cc.List {
			name, ok := opcodeRefName(e)
			if !ok {
				continue
			}
			row := latency.Mode{Mode: name, Classes: make(map[string]latency.Bound)}
			lo, hi := copyCounts(total.lo), copyCounts(total.hi)
			if name == "ModeImmediate" {
				// Wider-than-longword immediates take an extra dispatch
				// cycle; the row's Max admits it.
				for c, v := range immExtra.hi {
					hi[c] += v
				}
				for wd := range immExtra.words {
					total.words[wd] = true
				}
			}
			for c := range union2(lo, hi) {
				row.Classes[c] = latency.Bound{Min: lo[c], Max: hi[c]}
			}
			for wd := range total.words {
				row.Words = append(row.Words, wd)
			}
			sort.Strings(row.Words)
			modes = append(modes, row)
		}
	}
	sort.Slice(modes, func(i, j int) bool { return modes[i].Mode < modes[j].Mode })
	return modes
}

// walkSynthetic derives the cost of a statement list outside any real
// flow (a switch arm of runSpecifier): word operands resolve through
// static field bindings, which is all the specifier path uses.
func (w *latWalker) walkSynthetic(pkg *Package, stmts []ast.Stmt) *latCost {
	body := &ast.BlockStmt{List: stmts}
	cfg := BuildCFG(body)
	flow := &funcFlow{pkg: pkg, cfg: cfg, paramIdx: make(map[*types.Var]int)}
	flow.blockIn = make([]env, len(cfg.Blocks))
	for i := range flow.blockIn {
		flow.blockIn[i] = make(env)
	}
	return w.walk(&resolvedFn{flow: flow, sub: newLatSubst(), scopes: []*ast.BlockStmt{body}})
}

// syntheticStmtCost costs a single synthetic statement.
func (w *latWalker) syntheticStmtCost(pkg *Package, s ast.Stmt, bc *latCost) {
	flow := &funcFlow{pkg: pkg, paramIdx: make(map[*types.Var]int)}
	r := &resolvedFn{flow: flow, sub: newLatSubst(), scopes: []*ast.BlockStmt{{List: []ast.Stmt{s}}}}
	var first token.Pos
	w.stmtCost(r, make(env), s, bc, &first)
	for k, v := range bc.hi {
		if bc.lo[k] < v {
			// single statement: exact
			bc.lo[k] = v
		}
	}
}
