package main

import (
	"strings"
	"testing"

	"vax780/internal/analysis"
)

// TestSelectAnalyzers pins the -run contract: valid names resolve in
// order, and an unknown name is an error that lists every valid name
// (the driver turns it into exit 2) rather than silently running an
// empty selection.
func TestSelectAnalyzers(t *testing.T) {
	all := analysis.All()

	got, err := selectAnalyzers("hotpath, determinism", all)
	if err != nil {
		t.Fatalf("valid spec errored: %v", err)
	}
	if len(got) != 2 || got[0].Name != "hotpath" || got[1].Name != "determinism" {
		t.Fatalf("selectAnalyzers picked %v, want [hotpath determinism]", got)
	}

	_, err = selectAnalyzers("hotpaht", all)
	if err == nil {
		t.Fatal("unknown analyzer name did not error")
	}
	msg := err.Error()
	if !strings.Contains(msg, `unknown analyzer "hotpaht"`) {
		t.Errorf("error %q does not name the bad analyzer", msg)
	}
	for _, a := range all {
		if !strings.Contains(msg, a.Name) {
			t.Errorf("error %q does not list valid name %q", msg, a.Name)
		}
	}

	if _, err := selectAnalyzers(" , ", all); err == nil {
		t.Error("blank spec did not error")
	}
}
