// Package analysis is a vendored-in, dependency-free miniature of the
// golang.org/x/tools/go/analysis framework, carrying the project's custom
// static checks ("vaxlint", see cmd/vaxlint).
//
// The model's fidelity to Emer & Clark rests on cross-file invariants —
// every opcode in internal/vax's opTable must have exactly one register()ed
// execute microroutine in internal/cpu, the paper's headline numbers must
// live only in internal/paper, and the Machine/Probe pair is
// single-threaded — and on two contracts at the package boundaries:
// typed errors and exhaustive enum switches. The analyzers in this
// package prove them at build time.
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

	diags *[]Diagnostic
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

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
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
// shares only the type-checked packages, which no analyzer writes, and
// each goroutine appends to a private diagnostic slice merged after the
// barrier. Total output order is independent of scheduling — the merged
// findings are sorted by position with analyzer name and message as
// tiebreakers, a total order.
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
	sharedFset := pkgs[0].Fset
	for _, pkg := range pkgs[1:] {
		if pkg.Fset != sharedFset {
			sharedFset = nil
			break
		}
	}

	perDiags := make([][]Diagnostic, len(analyzers))
	perErrs := make([]error, len(analyzers))
	var wg sync.WaitGroup
	for i, a := range analyzers {
		wg.Add(1)
		go func(i int, a *Analyzer) {
			defer wg.Done()
			perDiags[i], perErrs[i] = runOne(a, pkgs, sharedFset)
		}(i, a)
	}
	wg.Wait()
	var diags []Diagnostic
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
// load order for package-level analyzers, one whole-load pass for
// module-level ones. It touches nothing shared but its read-only inputs,
// which is what lets Run fan the suite out.
func runOne(a *Analyzer, pkgs []*Package, sharedFset *token.FileSet) ([]Diagnostic, error) {
	var diags []Diagnostic
	if a.ModuleLevel {
		if sharedFset == nil {
			return nil, fmt.Errorf("%s: module-level analyzer over packages with distinct FileSets", a.Name)
		}
		pass := &Pass{Analyzer: a, Fset: sharedFset, All: pkgs, diags: &diags}
		if err := a.Run(pass); err != nil {
			return diags, fmt.Errorf("%s: %w", a.Name, err)
		}
		return diags, nil
	}
	for _, pkg := range pkgs {
		pass := &Pass{Analyzer: a, Fset: pkg.Fset, Pkg: pkg, All: pkgs, diags: &diags}
		if err := a.Run(pass); err != nil {
			return diags, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	return diags, nil
}

// All is the vaxlint suite in reporting order: the three cross-table
// analyzers, then the two error and enum contracts. Determinism, the
// stepping loop's allocations and the farm's concurrency are held by
// runtime tests, not by an analyzer (DESIGN.md §11, §13, §14).
func All() []*Analyzer {
	return []*Analyzer{
		ExecTable, PaperConst, ProbeSafe,
		TypedErr, Exhaustive,
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
