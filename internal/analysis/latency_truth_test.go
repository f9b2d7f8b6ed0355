package analysis

import (
	"go/constant"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"vax780/internal/experiments"
	"vax780/internal/ucode"
)

// execFileRows maps the per-opcode-group exec files of internal/cpu to
// the Row constant of the opcodes they register. exec.go itself (decode,
// branch plumbing, exceptions) is shared machinery and deliberately
// absent.
var execFileRows = map[string]string{
	"exec_simple.go":  "RowSimple",
	"exec_field.go":   "RowField",
	"exec_float.go":   "RowFloat",
	"exec_callret.go": "RowCallRet",
	"exec_system.go":  "RowSystem",
	"exec_string.go":  "RowCharacter",
	"exec_decimal.go": "RowDecimal",
}

// TestLatencyTruth confronts the suite's static model of the execute
// microroutines with the committed, measured latency table. exectable
// resolves every register() call statically and execFileRows gives each
// exec_<group>.go file its Table 8 row; the sweep behind latency.json
// single-steps what really registered and records where its cycles fell.
// The test requires:
//
//   - the statically resolved registrations and the table's opcodes to
//     be the same set, so a register() form the scanner mis-resolves, or
//     a table that lags the code, fails;
//   - each opcode's table row to be the row of the exec file that
//     registers it;
//   - each opcode's base cells to hold cycles in that row.
//
// Byte equality of the committed files with a fresh measurement is
// TestLatencyOracle's job, in internal/experiments.
func TestLatencyTruth(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	root, pkgs := loadModule(t)
	rows := rowStrings(t, pkgs)

	var diags []Diagnostic
	pass := &Pass{Analyzer: ExecTable, Fset: pkgs[0].Fset, All: pkgs, diags: &diags}
	static := make(map[string]string) // opcode → row of its registering file
	for _, pkg := range pkgs {
		for _, r := range registerCalls(pass, pkg) {
			file := filepath.Base(pass.Fset.Position(r.pos).Filename)
			row, ok := execFileRows[file]
			if !ok {
				t.Errorf("%s is registered from %s, which is not an exec_<group>.go file", r.name, file)
				continue
			}
			static[r.name] = rows[row]
		}
	}
	for _, d := range diags {
		t.Errorf("registration scan: %s", d)
	}
	if len(static) == 0 {
		t.Fatal("no register() call resolved; the registration scan is broken")
	}

	tab, err := experiments.LoadLatencyTable(filepath.Join(root, experiments.LatencyFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range tab.Opcodes {
		row, ok := static[op.Name]
		if !ok {
			t.Errorf("%s measures %s, but no register() call resolves to it", experiments.LatencyFile, op.Name)
			continue
		}
		delete(static, op.Name)
		if op.Row != row {
			t.Errorf("%s: %s says row %s, its register() call is in the %s file", op.Name, experiments.LatencyFile, op.Row, row)
		}
		if len(op.Cells[row]) == 0 {
			t.Errorf("%s: the measured base cells hold no %s-row cycles", op.Name, row)
		}
	}
	var unmeasured []string
	for name := range static {
		unmeasured = append(unmeasured, name)
	}
	sort.Strings(unmeasured)
	for _, name := range unmeasured {
		t.Errorf("%s is registered, but %s does not measure it", name, experiments.LatencyFile)
	}
}

// rowStrings maps the Row constants execFileRows names ("RowSimple") to
// their rendering in latency.json ("Simple"), through the constants'
// values in the loaded ucode package.
func rowStrings(t *testing.T, pkgs []*Package) map[string]string {
	t.Helper()
	for _, pkg := range pkgs {
		if !strings.HasSuffix(pkg.Path, "/internal/ucode") {
			continue
		}
		out := make(map[string]string, len(execFileRows))
		for _, name := range execFileRows {
			c, ok := pkg.Types.Scope().Lookup(name).(*types.Const)
			if !ok {
				t.Fatalf("ucode has no constant %s", name)
			}
			v, ok := constant.Int64Val(c.Val())
			if !ok {
				t.Fatalf("ucode.%s is not an integer constant", name)
			}
			out[name] = ucode.Row(v).String()
		}
		return out
	}
	t.Fatal("internal/ucode is not in the load")
	return nil
}

// loadModule returns the module root and every package under it.
func loadModule(t *testing.T) (string, []*Package) {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
	pkgs, err := LoadModule(dir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	return dir, pkgs
}
