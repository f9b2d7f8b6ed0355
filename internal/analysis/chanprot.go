package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// ChanProt proves channel-protocol discipline, the contract the farm's
// coordinator/worker split rests on:
//
//   - exactly one closing owner per channel. The closer is found through
//     per-function summaries (concFact) so ownership is proved even when
//     the close hides behind a helper in another package; two distinct
//     owners is the double-close panic waiting for the right interleaving.
//   - no send reachable from the owner's close site (CFG reachability
//     within the owner, call sites included): send-on-closed is a panic
//     the race detector cannot see.
//   - direction discipline: a bidirectional channel parameter whose
//     summary only ever sends/closes (or only receives) should be
//     declared chan<- / <-chan, so the compiler enforces what the
//     analyzer inferred.
//   - unbuffered liveness: an unbuffered channel all of whose operations
//     run on one goroutine deadlocks at the first blocking send — the
//     shape a chaos soak cannot systematically explore, because the run
//     never gets past it.
//
// The model is package-local Steensgaard unification (locals, params,
// fields and make sites that can alias form one group) plus imported
// concFacts for cross-package callees. Channels that escape to unknown
// code (returned, stored in containers, passed to summary-less
// functions) and channels produced outside the load (ctx.Done,
// time.After) are skipped for the liveness rules; close-ownership is
// still counted, since a second owner is a bug wherever the channel
// travels.
var ChanProt = &Analyzer{
	Name: "chanprot",
	Doc:  "one closing owner per channel, no send after close, direction-honest params, live receivers for unbuffered sends",
	Run:  runChanProt,
}

// protSite is one channel operation: direct (send/recv/close/range in
// this package) or injected from a callee's summary at the call site.
type protSite struct {
	kind        concOps
	slot        any
	pos         token.Pos
	node        ast.Node    // enclosing function node (decl or lit)
	decl        *types.Func // enclosing declaration (lits attribute to theirs)
	via         *types.Func // non-nil: ops imported from this callee's summary
	stmt        ast.Stmt    // innermost block-level statement, for CFG location
	lit         bool        // site sits inside a function literal
	spawned     bool
	nonblocking bool // direct comm of a select that has a default arm
}

// protInj records a channel argument to a static callee, expanded into
// via-sites once summaries are known.
type protInj struct {
	slot     any
	callee   *types.Func
	paramIdx int
	site     protSite // template: pos/node/decl/stmt/spawned filled in
}

type protModel struct {
	pass    *Pass
	pkg     *Package
	uf      *chanUF
	spawned map[ast.Node]bool

	origins  []protOrigin
	sites    []protSite
	injs     []protInj
	escaped  []any
	external []any

	decls    map[*types.Func]*ast.FuncDecl
	nonblock map[ast.Node]bool // SendStmt/UnaryExpr comm ops under select-with-default
	goCalls  map[*ast.CallExpr]bool
}

type protOrigin struct {
	call     *ast.CallExpr
	slot     any
	buffered bool
}

func runChanProt(pass *Pass) error {
	m := &protModel{
		pass:     pass,
		pkg:      pass.Pkg,
		uf:       newChanUF(),
		spawned:  spawnedFuncs(pass.Pkg),
		decls:    make(map[*types.Func]*ast.FuncDecl),
		nonblock: make(map[ast.Node]bool),
		goCalls:  make(map[*ast.CallExpr]bool),
	}
	for _, fd := range PackageFuncs(pass.Pkg) {
		m.decls[fd.Obj] = fd.Decl
	}
	m.markSelectComms()
	WalkWithStack(pass.Pkg, m.node)

	sums := m.summaries()
	for fn, bits := range sums {
		any := false
		for _, b := range bits {
			if b != 0 {
				any = true
			}
		}
		if any {
			pass.ExportObjectFact(fn, &concFact{Params: bits})
		}
	}
	m.expandInjections(sums)
	m.checkDirections(sums)
	m.checkGroups()
	return nil
}

// markSelectComms records, for every select with a default arm, its comm
// operations — they are nonblocking, so the liveness rules skip them.
func (m *protModel) markSelectComms() {
	for _, f := range m.pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectStmt)
			if !ok {
				return true
			}
			hasDefault := false
			for _, cs := range sel.Body.List {
				if cc, ok := cs.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				return true
			}
			for _, cs := range sel.Body.List {
				cc, ok := cs.(*ast.CommClause)
				if !ok || cc.Comm == nil {
					continue
				}
				switch comm := cc.Comm.(type) {
				case *ast.SendStmt:
					m.nonblock[comm] = true
				case *ast.ExprStmt:
					m.nonblock[ast.Unparen(comm.X)] = true
				case *ast.AssignStmt:
					if len(comm.Rhs) == 1 {
						m.nonblock[ast.Unparen(comm.Rhs[0])] = true
					}
				}
			}
			return true
		})
	}
}

// ref resolves a channel expression to its package-local slot.
func (m *protModel) ref(e ast.Expr) (any, bool) {
	e = ast.Unparen(e)
	info := m.pkg.Info
	switch e := e.(type) {
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok {
			return v, true
		}
		if v, ok := info.Defs[e].(*types.Var); ok {
			return v, true
		}
	case *ast.SelectorExpr:
		if v, ok := info.Uses[e.Sel].(*types.Var); ok {
			return v, true
		}
	case *ast.CallExpr:
		if isMakeChan(info, e) {
			return e, true
		}
	}
	return nil, false
}

// bind unifies a destination slot with a value expression; values with
// no slot (results of out-of-load calls, container elements) mark the
// destination external.
func (m *protModel) bind(dst any, val ast.Expr) {
	if !isChanType(m.pkg.Info.TypeOf(val)) {
		return
	}
	if src, ok := m.ref(val); ok {
		m.uf.union(dst, src)
	} else {
		m.external = append(m.external, dst)
	}
}

func (m *protModel) site(stack []ast.Node, n ast.Node, kind concOps, chanExpr ast.Expr, pos token.Pos) {
	slot, ok := m.ref(chanExpr)
	if !ok {
		return
	}
	node := enclosingFuncNode(stack)
	s := protSite{
		kind:        kind,
		slot:        slot,
		pos:         pos,
		node:        node,
		decl:        protEnclosingDecl(m.pkg, stack),
		stmt:        enclosingBlockStmt(stack, n),
		lit:         isLitNode(node),
		spawned:     m.spawned[node],
		nonblocking: m.nonblock[n],
	}
	m.sites = append(m.sites, s)
}

func (m *protModel) node(stack []ast.Node, n ast.Node) {
	info := m.pkg.Info
	switch n := n.(type) {
	case *ast.GoStmt:
		m.goCalls[n.Call] = true

	case *ast.AssignStmt:
		if len(n.Lhs) != len(n.Rhs) {
			for _, lhs := range n.Lhs {
				if isChanType(info.TypeOf(lhs)) {
					if dst, ok := m.ref(lhs); ok {
						m.external = append(m.external, dst)
					}
				}
			}
			return
		}
		for i, lhs := range n.Lhs {
			if !isChanType(info.TypeOf(lhs)) {
				continue
			}
			if dst, ok := m.ref(lhs); ok {
				m.bind(dst, n.Rhs[i])
			}
		}

	case *ast.ValueSpec:
		for i, name := range n.Names {
			if i >= len(n.Values) {
				break
			}
			if v, ok := info.Defs[name].(*types.Var); ok && isChanType(v.Type()) {
				m.bind(v, n.Values[i])
			}
		}

	case *ast.CompositeLit:
		m.composite(n)

	case *ast.SendStmt:
		m.site(stack, n, opSend, n.Chan, n.Arrow)

	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			m.site(stack, n, opRecv, n.X, n.OpPos)
		}

	case *ast.RangeStmt:
		if isChanType(info.TypeOf(n.X)) {
			m.site(stack, n, opRange, n.X, n.For)
		}

	case *ast.ReturnStmt:
		for _, r := range n.Results {
			if isChanType(info.TypeOf(r)) {
				if slot, ok := m.ref(r); ok {
					m.escaped = append(m.escaped, slot)
				}
			}
		}

	case *ast.CallExpr:
		m.call(stack, n)
	}
}

func (m *protModel) composite(lit *ast.CompositeLit) {
	t := m.pkg.Info.TypeOf(lit)
	if t == nil {
		return
	}
	st, ok := types.Unalias(t).Underlying().(*types.Struct)
	if !ok {
		// A channel stored in an array/slice/map escapes the model.
		for _, el := range lit.Elts {
			v := elemValue(el)
			if isChanType(m.pkg.Info.TypeOf(v)) {
				if slot, ok := m.ref(v); ok {
					m.escaped = append(m.escaped, slot)
				}
			}
		}
		return
	}
	for i, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok {
				if f, ok := m.pkg.Info.Uses[key].(*types.Var); ok && isChanType(f.Type()) {
					m.bind(f, kv.Value)
				}
			}
			continue
		}
		if i < st.NumFields() && isChanType(st.Field(i).Type()) {
			m.bind(st.Field(i), el)
		}
	}
}

func (m *protModel) call(stack []ast.Node, call *ast.CallExpr) {
	info := m.pkg.Info
	if isMakeChan(info, call) {
		m.origins = append(m.origins, protOrigin{
			call:     call,
			slot:     call,
			buffered: len(call.Args) >= 2,
		})
		return
	}
	if isBuiltin(info, call, "close") && len(call.Args) == 1 {
		m.site(stack, call, opClose, call.Args[0], call.Pos())
		return
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion: same handle
	}
	if isBuiltin(info, call, "len") || isBuiltin(info, call, "cap") {
		return
	}
	fn := Callee(info, call)
	spawnCall := m.goCalls[call]
	for i, arg := range call.Args {
		if !isChanType(info.TypeOf(arg)) {
			continue
		}
		slot, ok := m.ref(arg)
		if !ok {
			continue
		}
		if fn != nil {
			sig, sok := fn.Type().(*types.Signature)
			if sok && !sig.Variadic() && i < sig.Params().Len() {
				if _, local := m.decls[fn]; local {
					// Same package: unify with the callee's parameter (its
					// direct sites join the group) and record the injection
					// for transitive summaries.
					m.uf.union(slot, sig.Params().At(i))
				}
				node := enclosingFuncNode(stack)
				m.injs = append(m.injs, protInj{
					slot:     slot,
					callee:   fn,
					paramIdx: i,
					site: protSite{
						slot:    slot,
						pos:     call.Pos(),
						node:    node,
						decl:    protEnclosingDecl(m.pkg, stack),
						stmt:    enclosingBlockStmt(stack, call),
						lit:     isLitNode(node),
						spawned: m.spawned[node] || spawnCall,
						via:     fn,
					},
				})
				continue
			}
		}
		// Function values, interface methods, variadics: unknown hands.
		m.escaped = append(m.escaped, slot)
	}
}

// summaries computes, to a fixed point, the ops each package function
// performs on each of its parameters — directly, or through callees
// (same-package summaries, imported concFacts for the rest).
func (m *protModel) summaries() map[*types.Func][]concOps {
	sums := make(map[*types.Func][]concOps)
	var fns []*types.Func
	for fn := range m.decls {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Pos() < fns[j].Pos() })
	params := make(map[*types.Func][]*types.Var)
	for _, fn := range fns {
		sig := fn.Type().(*types.Signature)
		ps := make([]*types.Var, sig.Params().Len())
		for i := range ps {
			ps[i] = sig.Params().At(i)
		}
		params[fn] = ps
		sums[fn] = make([]concOps, len(ps))
	}
	calleeBits := func(fn *types.Func, idx int) concOps {
		if bits, ok := sums[fn]; ok {
			if idx < len(bits) {
				return bits[idx]
			}
			return 0
		}
		var f concFact
		if m.pass.ImportObjectFact(fn, &f) && idx < len(f.Params) {
			return f.Params[idx]
		}
		return 0
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			bits := sums[fn]
			for i, p := range params[fn] {
				if !isChanType(p.Type()) {
					continue
				}
				b := bits[i]
				for _, s := range m.sites {
					if s.decl == fn && s.via == nil && m.uf.same(s.slot, p) {
						b |= s.kind
					}
				}
				for _, inj := range m.injs {
					if inj.site.decl == fn && m.uf.same(inj.slot, p) {
						b |= calleeBits(inj.callee, inj.paramIdx)
					}
				}
				if b != bits[i] {
					bits[i] = b
					changed = true
				}
			}
		}
	}
	return sums
}

// expandInjections turns each recorded channel argument into via-sites
// carrying the callee's summarized ops; summary-less callees make the
// argument escape.
func (m *protModel) expandInjections(sums map[*types.Func][]concOps) {
	for _, inj := range m.injs {
		var bits concOps
		if b, ok := sums[inj.callee]; ok {
			if inj.paramIdx < len(b) {
				bits = b[inj.paramIdx]
			}
		} else {
			var f concFact
			if m.pass.ImportObjectFact(inj.callee, &f) {
				if inj.paramIdx < len(f.Params) {
					bits = f.Params[inj.paramIdx]
				}
			} else if inj.callee.Pkg() != m.pkg.Types {
				// No summary at all (stdlib, or a fact-less dependency):
				// the channel is in unknown hands.
				m.escaped = append(m.escaped, inj.slot)
				continue
			}
		}
		for _, k := range []concOps{opSend, opRecv, opClose, opRange} {
			if bits&k != 0 {
				s := inj.site
				s.kind = k
				m.sites = append(m.sites, s)
			}
		}
	}
}

// checkDirections reports bidirectional channel parameters whose summary
// is one-way: the declaration should say so.
func (m *protModel) checkDirections(sums map[*types.Func][]concOps) {
	var fns []*types.Func
	for fn := range m.decls {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Pos() < fns[j].Pos() })
	for _, fn := range fns {
		sig := fn.Type().(*types.Signature)
		bits := sums[fn]
		for i := 0; i < sig.Params().Len() && i < len(bits); i++ {
			p := sig.Params().At(i)
			ch, ok := p.Type().Underlying().(*types.Chan)
			if !ok || ch.Dir() != types.SendRecv || bits[i] == 0 {
				continue
			}
			switch {
			case bits[i]&(opRecv|opRange) == 0:
				m.pass.Reportf(p.Pos(),
					"parameter %s of %s is only sent to or closed; declare it chan<- %s so the compiler enforces the direction",
					p.Name(), fn.Name(), ch.Elem())
			case bits[i]&(opSend|opClose) == 0:
				m.pass.Reportf(p.Pos(),
					"parameter %s of %s is only received from; declare it <-chan %s so the compiler enforces the direction",
					p.Name(), fn.Name(), ch.Elem())
			}
		}
	}
}

// checkGroups runs the per-channel protocol rules over every make-site
// group of the package.
func (m *protModel) checkGroups() {
	seen := make(map[any]bool)
	cfgs := make(map[ast.Node]*cfgIndex)
	cfgOf := func(node ast.Node) *cfgIndex {
		if ix, ok := cfgs[node]; ok {
			return ix
		}
		body := funcNodeBody(node)
		if body == nil {
			return nil
		}
		ix := indexCFG(BuildCFG(body))
		cfgs[node] = ix
		return ix
	}
	inGroup := func(root any, slot any) bool { return m.uf.find(slot) == root }
	anyIn := func(root any, slots []any) bool {
		for _, s := range slots {
			if inGroup(root, s) {
				return true
			}
		}
		return false
	}

	for _, o := range m.origins {
		root := m.uf.find(o.slot)
		if seen[root] {
			continue
		}
		seen[root] = true

		var group []protSite
		for _, s := range m.sites {
			if inGroup(root, s.slot) {
				group = append(group, s)
			}
		}
		escaped := anyIn(root, m.escaped)
		external := anyIn(root, m.external)

		// Rule: exactly one closing owner.
		closers := make(map[string]bool)
		for _, s := range group {
			if s.kind != opClose {
				continue
			}
			closers[m.actorLabel(s)] = true
		}
		if len(closers) > 1 {
			var names []string
			for n := range closers {
				names = append(names, n)
			}
			sort.Strings(names)
			m.pass.Reportf(o.call.Pos(),
				"channel has %d closing owners (%s); exactly one goroutine may own the close — move the extra close behind the owner, or //vaxlint:allow chanprot",
				len(closers), strings.Join(names, ", "))
		}

		// Rule: no send reachable after the owner's close site. A deferred
		// close runs at return, after every send in the body: skip it.
		for _, c := range group {
			if c.kind != opClose {
				continue
			}
			if _, isDefer := c.stmt.(*ast.DeferStmt); isDefer {
				continue
			}
			cix := cfgOf(c.node)
			cblk, cord, cok := locateSite(cix, c)
			if !cok {
				continue
			}
			for _, s := range group {
				if s.kind != opSend || s.node != c.node {
					continue
				}
				sblk, sord, sok := locateSite(cix, s)
				if !sok {
					continue
				}
				if cix.ordered(cblk, cord, sblk, sord) {
					p := m.pass.Fset.Position(c.pos)
					m.pass.Reportf(s.pos,
						"send reachable after the channel's close site at %s:%d; a send on a closed channel panics",
						filepath.Base(p.Filename), p.Line)
				}
			}
		}

		// Liveness rules want the whole protocol in view: only unbuffered,
		// non-escaping, load-made channels qualify.
		if o.buffered || escaped || external {
			continue
		}
		allUnbuffered := true
		for _, o2 := range m.origins {
			if inGroup(root, o2.slot) && o2.buffered {
				allUnbuffered = false
			}
		}
		if !allUnbuffered {
			continue
		}
		var blockingSends []protSite
		recvs := 0
		anySpawned := false
		for _, s := range group {
			if s.spawned {
				anySpawned = true
			}
			switch {
			case s.kind == opSend && !s.nonblocking:
				blockingSends = append(blockingSends, s)
			case s.kind&(opRecv|opRange) != 0:
				recvs++
			}
		}
		if len(blockingSends) == 0 {
			continue
		}
		first := blockingSends[0]
		for _, s := range blockingSends[1:] {
			if s.pos < first.pos {
				first = s
			}
		}
		switch {
		case recvs == 0:
			m.pass.Reportf(first.pos,
				"unbuffered channel is sent to but never received from anywhere in the load; the first send blocks forever")
		case !anySpawned:
			m.pass.Reportf(first.pos,
				"send on an unbuffered channel whose every operation runs on one goroutine: this blocks forever (spawn the receiver, buffer the channel, or //vaxlint:allow chanprot)")
		}
	}
}

// actorLabel names the owner of a site for the closing-owners message.
func (m *protModel) actorLabel(s protSite) string {
	if s.via != nil {
		return s.via.Name()
	}
	name := "package scope"
	if s.decl != nil {
		name = s.decl.Name()
	}
	if s.lit {
		return fmt.Sprintf("a function literal in %s", name)
	}
	return name
}

// locateSite finds a site's CFG block via its recorded statement.
func locateSite(ix *cfgIndex, s protSite) (*Block, int, bool) {
	if ix == nil || s.stmt == nil {
		return nil, 0, false
	}
	if b, ok := ix.blk[s.stmt]; ok {
		return b, ix.ord[s.stmt], true
	}
	return nil, 0, false
}

// protEnclosingDecl resolves the innermost enclosing *declared* function
// (literals attribute their sites to the declaration that owns them).
func protEnclosingDecl(pkg *Package, stack []ast.Node) *types.Func {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			return obj
		}
	}
	return nil
}

// enclosingBlockStmt returns the innermost statement on the stack that a
// function-body CFG will have emitted (not crossing literal boundaries).
func enclosingBlockStmt(stack []ast.Node, n ast.Node) ast.Stmt {
	if s, ok := n.(ast.Stmt); ok {
		return s
	}
	for i := len(stack) - 1; i >= 0; i-- {
		if _, isLit := stack[i].(*ast.FuncLit); isLit {
			return nil
		}
		if s, ok := stack[i].(ast.Stmt); ok {
			return s
		}
	}
	return nil
}

func isLitNode(n ast.Node) bool {
	_, ok := n.(*ast.FuncLit)
	return ok
}
