// Package analysis is a vendored-in, dependency-free miniature of the
// golang.org/x/tools/go/analysis framework, carrying the project's custom
// static checks ("vaxlint", see cmd/vaxlint).
//
// The model's fidelity to Emer & Clark rests on cross-file invariants —
// every opcode in internal/vax's opTable must have exactly one register()ed
// execute microroutine in internal/cpu, every microword name referenced by
// the reduction engine must resolve in the control-store map built by
// internal/cpu/cs.go, the paper's headline numbers must live only in
// internal/paper, and the Machine/Probe pair is single-threaded. These are
// otherwise enforced by runtime panics or not at all; the analyzers in
// this package prove them at build time.
//
// The API mirrors go/analysis (Analyzer, Pass, Diagnostic, an
// analysistest-style harness under analysis/analysistest) so the suite can
// be ported to the real framework verbatim if golang.org/x/tools is ever
// vendored; the build environment for this repository is offline, so the
// framework itself is reimplemented here on top of go/ast and go/types
// only.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"sync"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the command line.
	Name string

	// Doc is a one-paragraph description of what the analyzer checks.
	Doc string

	// ModuleLevel marks analyzers whose invariant spans packages (e.g. the
	// opcode table lives in internal/vax, the handlers in internal/cpu).
	// A module-level analyzer runs once per load with Pass.Pkg == nil and
	// inspects Pass.All; a package-level analyzer runs once per package.
	ModuleLevel bool

	// Run executes the check, reporting findings through the Pass.
	Run func(*Pass) error
}

// Package is one type-checked package of the load.
type Package struct {
	Path  string // import path
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Pass carries one analyzer invocation over one package (or, for
// module-level analyzers, over the whole load).
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package   // package under analysis; nil for module-level runs
	All      []*Package // every package in the load, in dependency order

	diags  *[]Diagnostic
	facts  factStore  // shared by the analyzer's passes, nil for module-level
	allows allowIndex // //vaxlint:allow notes of the whole load
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Reportf records a finding at pos, unless a justified
// //vaxlint:allow note for this analyzer covers the position.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.Allowed(pos) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes the analyzers over the loaded packages and returns every
// finding, sorted by file position. A non-nil error means an analyzer
// itself failed, not that it found problems.
//
// The analyzers run concurrently, one goroutine per analyzer: the suite
// shares only immutable inputs (the type-checked packages, the allow
// index), facts never cross analyzers (each gets a private factStore),
// and each goroutine appends to a private diagnostic slice merged after
// the barrier. What CANNOT be parallelized is the fact-dependency order
// inside one analyzer: package-level analyzers visit pkgs in slice
// order, which the loader guarantees is dependency order, so facts
// exported while analyzing a package are visible in every pass over its
// importers. Total output order is independent of scheduling — the
// merged findings are sorted by position with analyzer name and message
// as tiebreakers, a total order (the previous serial implementation
// left same-position ties to sort.Slice's whim).
//
// Each pass positions its diagnostics with its own package's FileSet —
// a load whose packages span several FileSets (hand-assembled inputs)
// must not silently borrow pkgs[0]'s, or a diagnostic could name the
// wrong file; module-level analyzers, which report across the whole
// load through one Fset, refuse such an input outright.
func Run(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	if len(pkgs) == 0 {
		return nil, nil
	}
	var diags []Diagnostic
	sharedFset := pkgs[0].Fset
	for _, pkg := range pkgs[1:] {
		if pkg.Fset != sharedFset {
			sharedFset = nil
			break
		}
	}

	allows := buildAllowIndex(pkgs)
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	if sharedFset != nil {
		validateAllows(allows, known, sharedFset, &diags)
	} else {
		// Distinct FileSets: validate per package so positions resolve
		// against the owning package's Fset.
		for _, pkg := range pkgs {
			validateAllows(buildAllowIndex([]*Package{pkg}), known, pkg.Fset, &diags)
		}
	}

	perDiags := make([][]Diagnostic, len(analyzers))
	perErrs := make([]error, len(analyzers))
	var wg sync.WaitGroup
	for i, a := range analyzers {
		wg.Add(1)
		go func(i int, a *Analyzer) {
			defer wg.Done()
			perDiags[i], perErrs[i] = runOne(a, pkgs, sharedFset, allows)
		}(i, a)
	}
	wg.Wait()
	for i := range analyzers {
		diags = append(diags, perDiags[i]...)
		if perErrs[i] != nil {
			return diags, perErrs[i] // first failure in suite order
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
	return diags, nil
}

// runOne is one analyzer's complete run over the load: every package in
// dependency order for package-level analyzers, one whole-load pass for
// module-level ones. It touches nothing shared but its read-only inputs,
// which is what lets Run fan the suite out.
func runOne(a *Analyzer, pkgs []*Package, sharedFset *token.FileSet, allows allowIndex) ([]Diagnostic, error) {
	var diags []Diagnostic
	if a.ModuleLevel {
		if sharedFset == nil {
			return nil, fmt.Errorf("%s: module-level analyzer over packages with distinct FileSets", a.Name)
		}
		pass := &Pass{Analyzer: a, Fset: sharedFset, All: pkgs, diags: &diags, allows: allows}
		if err := a.Run(pass); err != nil {
			return diags, fmt.Errorf("%s: %w", a.Name, err)
		}
		return diags, nil
	}
	facts := make(factStore)
	for _, pkg := range pkgs {
		pass := &Pass{Analyzer: a, Fset: pkg.Fset, Pkg: pkg, All: pkgs, diags: &diags, facts: facts, allows: allows}
		if err := a.Run(pass); err != nil {
			return diags, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	return diags, nil
}

// All is the vaxlint suite in reporting order: the three cross-table
// analyzers from the original suite, the three determinism-contract
// analyzers built on the fact layer, and the hot-path perf-contract
// analyzer built on the callgraph's function-value and interface
// approximations (hotset.go). The farm's concurrency is held by its
// runtime tests under the race detector, not by an analyzer.
func All() []*Analyzer {
	return []*Analyzer{
		ExecTable, PaperConst, ProbeSafe,
		Determinism, TypedErr, Exhaustive,
		HotPath,
	}
}

// WalkWithStack walks every file of pkg, calling fn with the node and the
// stack of its ancestors (outermost first, not including n itself).
func WalkWithStack(pkg *Package, fn func(stack []ast.Node, n ast.Node)) {
	var stack []ast.Node
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			fn(stack, n)
			stack = append(stack, n)
			return true
		})
	}
}
