package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
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

// registeredInfos returns the opcode-table row of every registered
// opcode. A handler registered for an opcode with no row fails t by name
// and is left out, so the rest of the package's tests still run.
func registeredInfos(t *testing.T) []*vax.OpInfo {
	t.Helper()
	var infos []*vax.OpInfo
	for _, code := range cpu.RegisteredOpcodes() {
		info := vax.Lookup(code)
		if info == nil {
			t.Errorf("registered opcode %#02x has no vax.OpInfo row", uint8(code))
			continue
		}
		infos = append(infos, info)
	}
	return infos
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
	for _, info := range registeredInfos(t) {
		want = append(want, info.Name)
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

// sweepSink keeps TestLatencySweepAllocations' calibration allocation on
// the heap.
var sweepSink []byte

// TestLatencySweepAllocations requires every step of the latency sweep —
// every registered opcode under each variant, and the TSTL through each
// addressing mode — to allocate nothing on the heap. The profiles'
// allocation budget (TestStepAllocations, internal/workload) meters a
// mix in which a rarely run opcode hardly shows; here each one must be
// clean on its own.
//
// Method. runtime.MemStats.Mallocs counts every allocation of the
// process, so a bracket around one StepInstruction also counts what the
// runtime and other goroutines allocate meanwhile: plain brackets saw one
// or two 96-byte allocations on a few of the 1,800-odd steps, at
// different opcodes each run. An allocation the step itself makes
// happens every time it runs, so each case is stepped on up to three
// fresh machines and fails only if every step allocated. A calibration
// case that allocates once per step must fail, so the method is shown to
// see a real allocation before its silence is trusted.
//
// Guest memory is not the step's cost: a frame's first nonzero store
// gives it its 512 bytes of storage (DESIGN.md §3), at most once per
// frame over a machine's life. So every frame of the measurement layout
// is given storage, its bytes unchanged, before the step; without that
// the span variant's bit stores into zeroed scratch (BBSS, BBCS, BBSSI,
// INSV) count one allocation each. TestStepAllocations' budgets cover
// frame storage in the profiles.
func TestLatencySweepAllocations(t *testing.T) {
	type named struct {
		name string
		c    latCase
	}
	var cases []named
	for _, info := range registeredInfos(t) {
		for _, v := range latVariants {
			c, err := opcodeCase(info, v)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, named{info.Name + " (" + v.name + ")", c})
		}
	}
	for mode := vax.AddrMode(0); int(mode) < vax.NumAddrModes; mode++ {
		c, err := modeCase(mode)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, named{"TSTL " + mode.String(), c})
	}

	calib := cases[0].c
	if n := stepAllocs(calib, func() { sweepSink = make([]byte, 16) }); n == 0 {
		t.Fatal("a step that allocates once counted no allocation")
	}
	for _, nc := range cases {
		if n := stepAllocs(nc.c, nil); n > 0 {
			t.Errorf("%s allocates %d times per step", nc.name, n)
		}
	}
}

// stepAllocs steps the case on up to three fresh machines, running extra
// (if any) after each step inside the count, and returns the fewest heap
// allocations one step made; it stops at the first step that made none.
func stepAllocs(c latCase, extra func()) uint64 {
	fewest := ^uint64(0)
	for try := 0; try < 3 && fewest > 0; try++ {
		m, _ := c.load()
		for a := uint32(0); a < latStack+8; a += 512 {
			b := m.Mem.PeekByte(a)
			m.Mem.SetByte(a, ^b)
			m.Mem.SetByte(a, b)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m.StepInstruction()
		if extra != nil {
			extra()
		}
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	return fewest
}
