package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// goDecl pairs a declared function's syntax with its owning package.
type goDecl struct {
	decl *ast.FuncDecl
	pkg  *Package
}

// GoLeak proves every spawned goroutine in the load has a statically
// guaranteed exit path, so no fleet run can strand workers: the farm's
// pool-drain contract (close(dispatch) → workers fall out of their range
// loops → wg.Wait returns) only holds if no worker body can get stuck.
//
// Three shapes are findings, checked on the body each `go` statement
// enters (the literal, or the static callee's declaration — spawns
// through function values or interface methods are invisible, the
// dynamic-goroutine caveat of DESIGN.md §15):
//
//   - an inescapable loop: a CFG cycle, reachable from entry, with no
//     edge out — the body can never reach return. A `for { select {...}
//     } }` whose arms all continue is the canonical worker-shaped bug;
//     cfg.go models a default-less select as blocking, so an escape arm
//     (return, break) is what creates the exit edge.
//   - select{}: permanently blocked by construction.
//   - a range over a channel that no function in the load ever closes
//     (per the load-wide aliasing groups of concmodel.go): the loop can
//     never terminate. Groups aliasing out-of-load channels are skipped.
//
// Independently of spawns, a time.After (or time.Tick) call inside any
// CFG cycle is reported: each iteration strands a live timer (and
// time.Tick a whole ticker) until it fires, the slow leak behind
// long-lived supervisor loops — use one reusable time.NewTimer.
var GoLeak = &Analyzer{
	Name:        "goleak",
	Doc:         "every spawned goroutine has a statically guaranteed exit path; no timers stranded in loops",
	ModuleLevel: true,
	Run:         runGoLeak,
}

func runGoLeak(pass *Pass) error {
	groups := buildChanGroups(pass.All)

	// Decl bodies are resolvable across the whole load: `go other.F()`
	// checks F's body in its own package.
	decls := make(map[*types.Func]goDecl)
	for _, pkg := range pass.All {
		for _, fd := range PackageFuncs(pkg) {
			decls[fd.Obj] = goDecl{decl: fd.Decl, pkg: pkg}
		}
	}

	reported := make(map[token.Pos]bool) // dedup bodies spawned from several sites
	for _, pkg := range pass.All {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				body, bodyPkg := goTargetBody(pkg, decls, g)
				if body == nil {
					return true
				}
				checkSpawnedBody(pass, groups, g, body, bodyPkg, reported)
				return true
			})
		}
		checkStrandedTimers(pass, pkg, reported)
	}
	return nil
}

// goTargetBody resolves the body a `go` statement enters, with the
// package owning it (for type info on its expressions). Function values
// and interface methods resolve to nothing.
func goTargetBody(pkg *Package, decls map[*types.Func]goDecl, g *ast.GoStmt) (*ast.BlockStmt, *Package) {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		return lit.Body, pkg
	}
	if fn := Callee(pkg.Info, g.Call); fn != nil {
		if d, ok := decls[fn]; ok {
			return d.decl.Body, d.pkg
		}
	}
	return nil, nil
}

// checkSpawnedBody applies the three exit-path rules to one spawned body.
func checkSpawnedBody(pass *Pass, groups *chanGroups, g *ast.GoStmt, body *ast.BlockStmt, pkg *Package, reported map[token.Pos]bool) {
	// Inescapable loops.
	cfg := BuildCFG(body)
	for _, comp := range sccLoops(cfg) {
		where := "its body"
		if pos := compPos(comp); pos.IsValid() {
			p := pass.Fset.Position(pos)
			where = fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
		}
		if !reported[g.Pos()] {
			reported[g.Pos()] = true
			pass.Reportf(g.Pos(),
				"goroutine spawned here never exits: the loop at %s has no path to return (give an arm that returns on ctx.Done or a closed channel, or justify with //vaxlint:allow goleak)",
				where)
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectStmt:
			if len(n.Body.List) == 0 && !reported[n.Pos()] {
				reported[n.Pos()] = true
				pass.Reportf(n.Pos(), "select{} in a spawned goroutine blocks forever")
			}
		case *ast.RangeStmt:
			if !isChanType(pkg.Info.TypeOf(n.X)) {
				return true
			}
			b := &chanGroupBuilder{g: groups, pkg: pkg}
			slot, ok := b.ref(ast.Unparen(n.X))
			if !ok || groups.External(slot) || groups.Closed(slot) {
				return true
			}
			if !reported[n.Pos()] {
				reported[n.Pos()] = true
				pass.Reportf(n.Pos(),
					"spawned goroutine ranges over a channel no function in the module closes: the loop can never terminate (close it on every coordinator exit path, or //vaxlint:allow goleak)")
			}
		}
		return true
	})

	scanTimerLoops(pass, pkg, cfg, reported)
}

// checkStrandedTimers reports time.After/time.Tick calls sitting on a
// CFG cycle of any declared function in pkg (literals are scanned when
// their spawn is checked).
func checkStrandedTimers(pass *Pass, pkg *Package, reported map[token.Pos]bool) {
	for _, fd := range PackageFuncs(pkg) {
		scanTimerLoops(pass, pkg, BuildCFG(fd.Decl.Body), reported)
	}
}

// scanTimerLoops reports time.After/time.Tick calls in any block of cfg
// that sits on a cycle: each iteration strands a live timer.
func scanTimerLoops(pass *Pass, pkg *Package, cfg *CFG, reported map[token.Pos]bool) {
	for _, blk := range cfg.Blocks {
		if !cfg.Reaches(blk, blk) {
			continue
		}
		for _, s := range blk.Stmts {
			ast.Inspect(s, func(n ast.Node) bool {
				if _, isLit := n.(*ast.FuncLit); isLit {
					return false // a literal's own loops get their own CFG via spawns
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				name := timeFuncName(pkg.Info, call)
				if name == "" || reported[call.Pos()] {
					return true
				}
				reported[call.Pos()] = true
				pass.Reportf(call.Pos(),
					"time.%s inside a loop strands a live timer every iteration until it fires; hoist one reusable time.NewTimer (Stop+drain before Reset) out of the loop, or //vaxlint:allow goleak", name)
				return true
			})
		}
	}
}

// timeFuncName returns "After" or "Tick" when call statically invokes
// that package-level function of package time, else "" — the Time.After
// comparison method shares the name and must not match.
func timeFuncName(info *types.Info, call *ast.CallExpr) string {
	fn := Callee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return ""
	}
	if n := fn.Name(); n == "After" || n == "Tick" {
		return n
	}
	return ""
}
