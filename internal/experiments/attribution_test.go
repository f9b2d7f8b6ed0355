package experiments

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"vax780/internal/cpu"
	"vax780/internal/fault"
	"vax780/internal/ucode"
	"vax780/internal/vax"
	"vax780/internal/workload"
)

// attrCycles is each profile run's cycle budget.
const attrCycles = 1_000_000

// attrInject is the fault schedule of the injected profile runs: every
// point that feeds the machine-check path fires a few hundred times per
// run.
const attrInject = "seed=7,mem=0.0001,sbi=1/50000,cache=0.00001,tb=0.00001"

// attrRun is one profile run of the identity check.
type attrRun struct {
	name       string
	checked    uint64    // gated instructions reconciled
	violations uint64    // of those, instructions that broke an identity
	first      error     // the first violation
	mchecks    uint64    // machine checks taken
	markers    uint64    // Marker-class counts (the folded decode cycles)
	probe      *latProbe // the whole run's counts; its ledger is per instruction
}

// runAttribution runs one profile for attrCycles and reconciles the
// probe's ledger with the machine's counters over every instruction the
// monitor gate covers.
func runAttribution(p workload.Profile, mcfg cpu.Config, inject bool) (*attrRun, error) {
	s, err := workload.Prepare(p, attrCycles, mcfg)
	if err != nil {
		return nil, err
	}
	m := s.Machine()
	if inject {
		cfg, err := fault.ParseSpec(attrInject)
		if err != nil {
			return nil, err
		}
		m.AttachFaultPlane(fault.NewPlane(cfg))
	}
	probe := &latProbe{}
	run := &attrRun{probe: probe}
	m.AttachProbe(probe)

	var from hwCounters
	var gated bool
	mark := func() {
		probe.ledger = classLedger{}
		from = readCounters(m)
		gated = m.MonitorGate()
	}
	hook := m.OnInstruction
	m.OnInstruction = func(m *cpu.Machine) {
		if gated {
			run.checked++
			run.markers += probe.ledger.counts[ucode.ClassMarker]
			if err := probe.ledger.reconcile(from, readCounters(m)); err != nil {
				if run.violations == 0 {
					run.first = fmt.Errorf("instruction ending at cycle %d: %w", m.Cycle(), err)
				}
				run.violations++
			}
		}
		if hook != nil {
			hook(m)
		}
		mark()
	}
	mark()
	if res := s.Run(attrCycles); res.Err != nil || res.Halted {
		return nil, fmt.Errorf("run: halted=%v err=%v", res.Halted, res.Err)
	}
	run.mchecks = m.HW().MachineChecks
	return run, nil
}

// profileRuns runs the five profiles clean, under attrInject and under
// DecodeOverlap, once per test binary: the identity test and the coverage
// test share them.
var profileRuns = sync.OnceValues(func() ([]*attrRun, error) {
	var runs []*attrRun
	for _, p := range workload.All() {
		for _, c := range []struct {
			name   string
			mcfg   cpu.Config
			inject bool
		}{
			{"clean", cpu.Config{}, false},
			{"inject", cpu.Config{}, true},
			{"overlap", cpu.Config{DecodeOverlap: true}, false},
		} {
			run, err := runAttribution(p, c.mcfg, c.inject)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", p.Name, c.name, err)
			}
			run.name = p.Name + "/" + c.name
			runs = append(runs, run)
		}
	}
	return runs, nil
})

// TestAttributionProfiles holds the histogram to the machine's own
// counters (attribution.go) on every gated instruction of the five
// profiles, clean, with faults injected and under the DecodeOverlap
// ablation. The injected runs must take machine checks and the overlap
// runs must fold decode cycles, or the check did not reach the paths it
// is there for.
func TestAttributionProfiles(t *testing.T) {
	runs, err := profileRuns()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		t.Logf("%s: %d instructions reconciled, %d machine checks, %d folded markers", r.name, r.checked, r.mchecks, r.markers)
		if r.violations > 0 {
			t.Errorf("%s: %d of %d instructions break a counter identity; first: %v", r.name, r.violations, r.checked, r.first)
		}
		if r.checked == 0 {
			t.Errorf("%s: no gated instruction", r.name)
		}
		if strings.HasSuffix(r.name, "/inject") && r.mchecks == 0 {
			t.Errorf("%s: no machine check taken", r.name)
		}
		if strings.HasSuffix(r.name, "/overlap") && r.markers == 0 {
			t.Errorf("%s: no decode cycle folded", r.name)
		}
	}
}

// TestAttributionIdentityCaught proves the identities have teeth on the
// sweep: one extra count of a read-class word, with no reference behind
// it, a stall charged to a compute-class word and a read word's stall
// that comes after its tick, with no count following, must each be
// refused.
func TestAttributionIdentityCaught(t *testing.T) {
	for _, tc := range []struct {
		name string
		bend func(p *latProbe)
		want string
	}{
		{"read without reference", func(p *latProbe) { p.Count(wordAddr(t, "spec1.read.data"), 1) }, "read-class words counted"},
		{"stall on compute", func(p *latProbe) { p.Stall(wordAddr(t, "exec.simple.alu.entry"), 1) }, "stall cycles at exec.simple.alu.entry"},
		{"stall after tick", func(p *latProbe) { p.Stall(wordAddr(t, "spec1.read.data"), 1) }, "stall at spec1.read.data not followed by its count"},
	} {
		m, p := newLatMachine()
		m.Mem.Load(latCode, []byte{byte(vax.ADDL2), 0x01, 0x52}) // ADDL2 S^#1, R2
		m.SetPC(latCode)
		before := readCounters(m)
		m.StepInstruction()
		if err := p.ledger.reconcile(before, readCounters(m)); err != nil {
			t.Fatalf("%s: the unbent step already fails: %v", tc.name, err)
		}
		tc.bend(p)
		err := p.ledger.reconcile(before, readCounters(m))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// coverageExempt is the one defined word nothing counts: runSpecifier
// charges every indexed specifier to the SPEC2-6 bank (§5's
// microcode-sharing artifact), so the SPEC1 bank's index word never
// runs. It stays defined so that no µPC address, and no .upc file, moves.
const coverageExempt = "spec1.index"

// TestAttributionCoverage requires every defined microword to be counted
// at least once over the latency sweep, each addressing mode as first
// and as second specifier, the two wide immediates and the profile runs,
// with coverageExempt the one exemption. A word nothing counts is a
// histogram bucket that is zero by construction, or a count site moved to
// another word.
func TestAttributionCoverage(t *testing.T) {
	seen := make([]bool, cpu.CS.Len())
	add := func(p *latProbe, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		for a := range seen {
			seen[a] = seen[a] || p.counts[a] > 0
		}
	}
	for _, code := range cpu.RegisteredOpcodes() {
		for _, v := range latVariants {
			add(stepOpcode(vax.Lookup(code), v))
		}
	}
	for mode := vax.AddrMode(0); int(mode) < vax.NumAddrModes; mode++ {
		add(stepMode(mode)) // first specifier: TSTL <mode>
		s, setup := modeSpecifier(mode)
		buf, err := vax.EncodeSpecifier([]byte{byte(vax.CMPL), 0x53}, s, vax.TypeLong) // CMPL R3, <mode>
		if err != nil {
			t.Fatal(err)
		}
		add(stepLat(latCase{buf, setup}))
	}
	// Quadword immediates take a second dispatch cycle in either bank.
	wide := vax.Specifier{Mode: vax.ModeImmediate, Imm: 0x0123456789ABCDEF}
	movq, err := vax.EncodeSpecifier([]byte{byte(vax.MOVQ)}, wide, vax.TypeQuad) // MOVQ I^#q, R2
	if err != nil {
		t.Fatal(err)
	}
	add(stepLat(latCase{append(movq, 0x52), func(*cpu.Machine) {}}))
	cmpd, err := vax.EncodeSpecifier([]byte{byte(vax.CMPD), 0x52}, wide, vax.TypeFloatD) // CMPD R2, I^#d
	if err != nil {
		t.Fatal(err)
	}
	add(stepLat(latCase{cmpd, func(*cpu.Machine) {}}))

	runs, err := profileRuns()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		add(r.probe, nil)
	}

	for _, w := range cpu.CS.Words()[1:] {
		switch {
		case w.Name == coverageExempt && seen[w.Addr]:
			t.Errorf("%s is counted now: drop its coverage exemption", w.Name)
		case w.Name != coverageExempt && !seen[w.Addr]:
			t.Errorf("microword %s (%s row, %s class) is never counted", w.Name, w.Row, w.Class)
		}
	}
}
