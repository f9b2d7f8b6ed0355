package analysis_test

import (
	"testing"

	"vax780/internal/analysis"
	"vax780/internal/analysis/analysistest"
	"vax780/internal/latency"
)

// TestULat exercises the derivation's finding surface: an unresolvable
// handler expression, a runtime-valued tick count, and a word counted
// outside its opcode's Table 8 row — the word arriving through a
// cross-package counting helper.
func TestULat(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.ULat, "ulat")
}

// TestULatClean proves the derivation invents nothing on a table whose
// every handler derives exactly.
func TestULatClean(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.ULat, "ulatclean")
}

// TestULatTable pins the derived numbers on the clean fixture: exact
// straight-line bounds, a branch widening only the max, a
// data-dependent loop surfacing as a loop term rather than a bound, a
// factory constant folding to an exact count, and the abort outcome of
// takeDisp pruned while the same shape around another helper is not.
func TestULatTable(t *testing.T) {
	pkgs, err := analysis.LoadTestdataPackages("testdata/src", "ulatclean")
	if err != nil {
		t.Fatal(err)
	}
	tab, diags, err := analysis.DeriveLatencyTable(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}

	ops := make(map[string]*latency.Opcode, len(tab.Opcodes))
	for i := range tab.Opcodes {
		ops[tab.Opcodes[i].Name] = &tab.Opcodes[i]
	}
	for _, name := range []string{"ADDX", "DBLX", "LOOPX", "FACTX", "PAIRX", "QUADX", "BSBX", "BRX", "PEEKX"} {
		if ops[name] == nil {
			t.Fatalf("derived table misses %s; have %d opcodes", name, len(tab.Opcodes))
		}
	}

	wantBound := func(name, class string, min, max uint64) {
		t.Helper()
		b, ok := ops[name].Classes[class]
		if !ok {
			t.Errorf("%s: no %s bound; classes %v", name, class, ops[name].Classes)
			return
		}
		if b.Min != min || b.Max != max {
			t.Errorf("%s %s: derived %d–%d, want %d–%d", name, class, b.Min, b.Max, min, max)
		}
	}
	wantBound("ADDX", "ClassCompute", 1, 1)
	wantBound("ADDX", "ClassWrite", 1, 1)
	wantBound("ADDX", "ClassDispatch", 1, 1) // the shared-row SPEC1 word
	wantBound("DBLX", "ClassCompute", 1, 2)
	wantBound("FACTX", "ClassCompute", 3, 3)
	wantBound("BSBX", "ClassCompute", 2, 2)
	wantBound("BRX", "ClassCompute", 1, 1)
	wantBound("PEEKX", "ClassCompute", 1, 2)

	// The registrations sharing one handler share its bounds.
	wantBound("PAIRX", "ClassCompute", 1, 1)
	wantBound("QUADX", "ClassCompute", 1, 1)

	loop := ops["LOOPX"]
	if len(loop.Loops) != 1 {
		t.Fatalf("LOOPX: derived %d loop terms, want 1 (%+v)", len(loop.Loops), loop.Loops)
	}
	if v := loop.Loops[0].Var; v != "i,n" {
		t.Errorf("LOOPX loop variable: derived %q, want \"i,n\"", v)
	}
	if n := loop.Loops[0].Classes["ClassCompute"]; n != 1 {
		t.Errorf("LOOPX loop term: %d compute cycles per iteration, want 1", n)
	}
	if b := loop.Classes["ClassCompute"]; b.Min != 0 {
		t.Errorf("LOOPX ClassCompute min: %d, want 0 (the loop may run zero times)", b.Min)
	}

	found := false
	for _, w := range ops["ADDX"].Words {
		if w == "clean.op" {
			found = true
		}
	}
	if !found {
		t.Errorf("ADDX word set %v misses clean.op", ops["ADDX"].Words)
	}
}
