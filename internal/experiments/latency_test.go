package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"vax780/internal/cpu"
	"vax780/internal/vax"
)

// committedPath returns the path of a committed file at the module root.
func committedPath(t *testing.T, name string) string {
	t.Helper()
	root, err := Root()
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	return filepath.Join(root, name)
}

// TestLatencyOracle is the latency oracle: a fresh sweep must reproduce
// the committed latency.json and LATENCY.md byte for byte, so any change
// to any opcode's or addressing mode's measured cells — one cycle, one
// class, one row — fails here until the table is regenerated and the
// diff reviewed. The committed table must cover exactly the registered
// opcodes and every addressing mode.
func TestLatencyOracle(t *testing.T) {
	tab, err := MeasureLatencyTable()
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	js, err := tab.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name string
		want []byte
	}{{LatencyFile, js}, {LatencyDoc, tab.Render()}} {
		got, err := os.ReadFile(committedPath(t, f.name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, f.want) {
			t.Errorf("committed %s differs from the measurement; regenerate with `go run ./cmd/vaxlat` and review the diff", f.name)
		}
	}

	committed, err := LoadLatencyTable(committedPath(t, LatencyFile))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, op := range committed.Opcodes {
		names = append(names, op.Name)
	}
	var want []string
	for _, code := range cpu.RegisteredOpcodes() {
		want = append(want, vax.Lookup(code).Name)
	}
	sort.Strings(want)
	if !slices.Equal(names, want) {
		t.Errorf("latency.json opcodes %v, registered %v", names, want)
	}
	if len(committed.Modes) != vax.NumAddrModes {
		t.Errorf("latency.json has %d mode rows, want %d", len(committed.Modes), vax.NumAddrModes)
	}
}

// TestLatencySweepDeterministic runs the whole sweep twice concurrently
// (the machines share only the sealed control store) and demands
// byte-identical marshalled tables — every opcode, every variant, every
// mode row: the measurement owes the same determinism contract as the
// simulator it measures.
func TestLatencySweepDeterministic(t *testing.T) {
	var out [2][]byte
	var errs [2]error
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tab, err := MeasureLatencyTable()
			if err == nil {
				out[i], err = tab.Marshal()
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out[0], out[1]) {
		t.Error("two identical sweeps measured different tables")
	}
}

// wordAddr returns a named microword's control-store address.
func wordAddr(t *testing.T, name string) uint16 {
	t.Helper()
	a, ok := cpu.CS.Lookup(name)
	if !ok {
		t.Fatalf("no microword %s", name)
	}
	return a
}

// TestLatencyMisattributionCaught is the corruption test: shifting one
// microword's measured counts onto a different-class word of the same
// routine must change the cells the oracle compares. If this passes
// trivially the oracle has no teeth.
func TestLatencyMisattributionCaught(t *testing.T) {
	tab, err := LoadLatencyTable(committedPath(t, LatencyFile))
	if err != nil {
		t.Fatal(err)
	}
	var committed Cells
	for _, op := range tab.Opcodes {
		if op.Name == "CHMK" {
			committed = op.Cells
		}
	}
	if committed == nil {
		t.Fatal("CHMK missing from committed table")
	}
	remap := map[uint16]uint16{wordAddr(t, "exec.sys.chm.work"): wordAddr(t, "exec.sys.chm.push")}
	measured, err := MeasureOpcodeLatency(vax.LookupName("CHMK"), "base", remap)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(measured, committed) {
		t.Errorf("compute cycles misattributed to a write-class word went undetected; measured %v", measured)
	}
}

// TestLatencyRowAssertion moves a Simple-row word's counts onto a
// Field-row word: the row assertion must refuse the measurement, wherever
// the tick is — in the group's own exec file or in a shared helper.
func TestLatencyRowAssertion(t *testing.T) {
	remap := map[uint16]uint16{wordAddr(t, "exec.simple.alu.entry"): wordAddr(t, "exec.field.work")}
	_, err := MeasureOpcodeLatency(vax.LookupName("ADDL2"), "base", remap)
	if err == nil || !strings.Contains(err.Error(), "exec.field.work counted in Table 8 row Field, outside execute row Simple") {
		t.Errorf("Field-row word counted by ADDL2: got error %v", err)
	}
}
