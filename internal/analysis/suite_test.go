package analysis_test

import (
	"regexp"
	"sort"
	"strings"
	"testing"

	"vax780/internal/analysis"
	"vax780/internal/analysis/analysistest"
)

func TestExecTable(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.ExecTable, "exectable")
}

func TestPaperConst(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.PaperConst, "paperconst")
}

func TestProbeSafe(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.ProbeSafe, "probesafe")
}

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Determinism, "determinism")
}

func TestTypedErr(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.TypedErr, "typederr")
}

func TestExhaustive(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Exhaustive, "exhaustive")
}

func TestHotPath(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.HotPath, "hotpath")
}

// TestHotBox runs hotpath over the boxing, fmt and map shapes of the
// tick path.
func TestHotBox(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.HotPath, "hotbox")
}

// TestHotClean proves hotpath stays silent on a stepping loop that
// dispatches through a handler table and an interface probe but never
// allocates or boxes on a reachable path.
func TestHotClean(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.HotPath, "hotclean")
}

// TestSuiteSize pins the suite's advertised size: growing it without
// updating the docs (README, Makefile) should fail loudly here.
func TestSuiteSize(t *testing.T) {
	if got := len(analysis.All()); got != 7 {
		t.Fatalf("analysis.All() reports %d analyzers, want 7", got)
	}
}

// trailFact carries the provenance trail of a function for the synthetic
// fact-propagation analyzer below.
type trailFact struct{ Trail string }

func (*trailFact) AFact() {}

// TestFactPropagation proves the engine's fact plumbing end to end: a
// synthetic analyzer marks facts/a.Source, and the mark must cross two
// import hops (a → b → c, analyzed in dependency order) with the trail
// growing at each step. This is the mechanism the determinism analyzer's
// purity propagation rides on.
func TestFactPropagation(t *testing.T) {
	propagate := &analysis.Analyzer{
		Name: "propagate",
		Doc:  "test-only: chains a trail fact through the static call graph",
		Run: func(pass *analysis.Pass) error {
			pkgName := pass.Pkg.Types.Name()
			for _, fd := range analysis.PackageFuncs(pass.Pkg) {
				if strings.HasPrefix(fd.Obj.Name(), "Source") {
					pass.ExportObjectFact(fd.Obj, &trailFact{Trail: pkgName})
					continue
				}
				for _, callee := range analysis.Callees(pass.Pkg.Info, fd.Decl.Body) {
					var f trailFact
					if !pass.ImportObjectFact(callee, &f) {
						continue
					}
					trail := f.Trail + "." + pkgName
					pass.ExportObjectFact(fd.Obj, &trailFact{Trail: trail})
					if callee.Pkg() != pass.Pkg.Types {
						pass.Reportf(fd.Decl.Name.Pos(), "fact trail %s", trail)
					}
					break
				}
			}
			return nil
		},
	}
	analysistest.Run(t, "testdata", propagate, "facts/c")
}

// TestAllowValidation checks that //vaxlint:allow notes missing a
// justification or naming an unknown analyzer are themselves findings and
// suppress nothing. Asserted directly rather than via want comments: a
// want clause cannot share a line with the allow comment under test (the
// line comment swallows it).
func TestAllowValidation(t *testing.T) {
	pkgs, err := analysis.LoadTestdataPackages("testdata/src", "allowbad")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run([]*analysis.Analyzer{analysis.Determinism}, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	wants := []struct {
		analyzer string
		rx       string
	}{
		{"allow", `lacks a justification`},
		{"allow", `unknown analyzer "nosuchanalyzer"`},
		// Neither note is valid, so both map ranges still taint their roots.
		{"determinism", `Run must be deterministic .*ranges over a map`},
		{"determinism", `RunCtx must be deterministic .*ranges over a map`},
	}
	for _, w := range wants {
		rx := regexp.MustCompile(w.rx)
		found := false
		for _, d := range diags {
			if d.Analyzer == w.analyzer && rx.MatchString(d.Message) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing [%s] diagnostic matching %q in:\n%s", w.analyzer, w.rx, diagDump(diags))
		}
	}
	if len(diags) != len(wants) {
		t.Errorf("got %d diagnostics, want %d:\n%s", len(diags), len(wants), diagDump(diags))
	}
}

// TestAllowTrailing checks that a note trailing code does not leak onto
// the next line: the make below a trailing hotpath note is still a
// finding, while a standalone note still excuses the line under it.
func TestAllowTrailing(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.HotPath, "allowtrail")
}

// TestCollectAllows pins the audit listing behind `vaxlint -allows`: one
// entry per //vaxlint:allow note in the load, sorted by file then line,
// carrying the analyzer names and the justification text.
func TestCollectAllows(t *testing.T) {
	pkgs, err := analysis.LoadTestdataPackages("testdata/src", "hotpath")
	if err != nil {
		t.Fatal(err)
	}
	entries := analysis.CollectAllows(pkgs)
	if len(entries) != 2 {
		t.Fatalf("got %d allow entries, want 2: %+v", len(entries), entries)
	}
	if !sort.SliceIsSorted(entries, func(i, j int) bool {
		if entries[i].Pos.Filename != entries[j].Pos.Filename {
			return entries[i].Pos.Filename < entries[j].Pos.Filename
		}
		return entries[i].Pos.Line < entries[j].Pos.Line
	}) {
		t.Errorf("entries not sorted by file then line: %+v", entries)
	}
	for i, wantPrefix := range []string{"bounded:", "cold:"} {
		e := entries[i]
		if len(e.Analyzers) != 1 || e.Analyzers[0] != "hotpath" {
			t.Errorf("entry %d analyzers = %v, want [hotpath]", i, e.Analyzers)
		}
		if !strings.HasPrefix(e.Reason, wantPrefix) {
			t.Errorf("entry %d reason %q, want prefix %q", i, e.Reason, wantPrefix)
		}
	}
}

func diagDump(diags []analysis.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString("  " + d.String() + "\n")
	}
	return b.String()
}
