package analysis_test

import (
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

func TestTypedErr(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.TypedErr, "typederr")
}

func TestExhaustive(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Exhaustive, "exhaustive")
}

// TestSuiteSize pins the suite's advertised size: growing it without
// updating the docs (README, Makefile) should fail loudly here.
func TestSuiteSize(t *testing.T) {
	if got := len(analysis.All()); got != 5 {
		t.Fatalf("analysis.All() reports %d analyzers, want 5", got)
	}
}
