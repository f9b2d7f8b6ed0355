// The dynamic half of the latency oracle (DESIGN.md §16): single-step
// every registered opcode under directed conditions on a real Machine
// and attribute the measured µPC histogram over the opcode's committed
// word set. The static table (internal/latency, derived by the ulat
// analyzer, committed as latency.json) declares per-class bounds; the
// measurement here must land inside them — the software analogue of
// uops.info's measured-vs-documented diffing.
//
// Directed conditions, mirroring the static pruning policy exactly:
// physical addressing (no TB-miss service), aligned operands (no
// alignment microcode), no pending interrupts, patch cycles disabled.
// Attribution is over the opcode's word set, so specifier-phase cycles
// (measured separately per addressing mode), the decode cycle, and any
// service-row cycles an opcode's own semantics trigger (a CHMK's
// delivery runs on its System-row words; a fault's delivery runs on
// pruned exception-row words) never leak into the execute-phase
// comparison.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"vax780/internal/cpu"
	"vax780/internal/latency"
	"vax780/internal/ucode"
	"vax780/internal/vax"
)

// latProbe is the measurement histogram: exec-channel counts only.
// Stalls are timing, not attribution, and the static side carries no
// stall bounds. Counts live in a dense table — Count runs once per
// machine cycle, inside the hot path the hotpath analyzer prices.
type latProbe struct {
	counts [ucode.StoreSize]uint64
}

func (p *latProbe) Count(upc uint16, n uint64) { p.counts[upc] += n }
func (p *latProbe) Stall(upc uint16, n uint64) {}

// Fixed physical layout of the measurement machine. Everything lives in
// the first megabyte and every structure is longword-aligned.
const (
	latSCBB    = 0x0400 // system control block
	latHandler = 0x3000 // where every SCB vector points
	latCode    = 0x1000 // the instruction under measurement
	latScratch = 0x4000 // per-operand scratch regions (latRegionSize apart)
	latFrame   = 0x6000 // call frame for RET
	latPCBB    = 0x7000 // process control block
	latStack   = 0x7FF8 // kernel SP: a PC/PSL pair sits on the stack

	latRegionSize = 0x200
)

// latRegion returns operand i's scratch region base.
func latRegion(i int) uint32 { return latScratch + uint32(i)*latRegionSize }

// newLatMachine builds a machine in the directed measurement state:
// kernel mode, MMU off, patch cycles disabled, SCB/PCB/stack/frame
// populated so every opcode's semantics — including the system group's
// stack switches, context switches and change-mode vectoring — run to
// completion without faulting.
func newLatMachine() (*cpu.Machine, *latProbe) {
	m := cpu.New(cpu.Config{MemBytes: 1 << 20, PatchEvery: -1})

	// Every SCB vector points at a (never-executed) handler.
	m.SetIPR(cpu.IPRSlotSCBB, latSCBB)
	for off := uint32(0); off < 0x200; off += 4 {
		m.Mem.WriteLong(latSCBB+off, latHandler)
	}

	// Kernel stack with a PC/PSL pair on top: REI, RSB and SVPCTX pop
	// from here; pushes grow downward into free memory.
	m.R[vax.SP] = latStack
	m.SetIPR(cpu.IPRSlotKSP, latStack)
	m.SetIPR(cpu.IPRSlotUSP, 0x9000)
	m.Mem.WriteLong(latStack, 0x2000) // saved PC
	m.Mem.WriteLong(latStack+4, 0)    // saved PSL (kernel)

	// A CALLG-style frame for RET: no condition handler, empty register
	// mask, plausible saved AP/FP/PC.
	m.R[vax.FP] = latFrame
	m.Mem.WriteLong(latFrame, 0)
	m.Mem.WriteLong(latFrame+4, 0)
	m.Mem.WriteLong(latFrame+8, 0x9000)
	m.Mem.WriteLong(latFrame+12, latFrame+0x100)
	m.Mem.WriteLong(latFrame+16, 0x2000)

	// A complete PCB for SVPCTX/LDPCTX: valid stack pointers, resume
	// PC/PSL, MMU fields zero (the MMU stays off).
	m.SetIPR(cpu.IPRSlotPCBB, latPCBB)
	m.Mem.WriteLong(latPCBB+cpu.PCBOffset(0), latStack) // KSP
	m.Mem.WriteLong(latPCBB+cpu.PCBOffset(1), 0x9000)   // USP
	m.Mem.WriteLong(latPCBB+cpu.PCBOffset(16), 0x2000)  // PC
	m.Mem.WriteLong(latPCBB+cpu.PCBOffset(17), 0)       // PSL

	// Operand base registers: R2+2i addresses region i, leaving the odd
	// register of each pair free for quad-width operands.
	for i := 0; i < 6; i++ {
		m.R[2+2*i] = latRegion(i)
	}

	p := &latProbe{}
	m.AttachProbe(p)
	m.SetMonitorGate(true)
	return m, p
}

// prepOperands writes whatever operand memory an opcode's semantics
// demand beyond zero-filled scratch.
func prepOperands(m *cpu.Machine, info *vax.OpInfo) {
	switch info.Group {
	case vax.GroupDecimal:
		// Valid packed decimal "123" (plus sign) in every region: a
		// nonzero divisor for DIVP, valid nibbles everywhere.
		for i := 0; i < 6; i++ {
			m.Mem.SetByte(latRegion(i), 0x12)
			m.Mem.SetByte(latRegion(i)+1, 0x3C)
		}
	}
	switch info.Name {
	case "INSQUE", "REMQUE":
		// Self-linked queue entries: inserting after (or removing) one
		// touches only valid links.
		for i := 0; i < 2; i++ {
			r := latRegion(i)
			m.Mem.WriteLong(r, r)
			m.Mem.WriteLong(r+4, r)
		}
	}
}

// encodeFor builds the I-stream bytes of one directed instance of the
// opcode: literal sources, register (pair) destinations, deferred
// scratch addresses for address/field operands, and a zero branch
// displacement. The choices keep every instruction legal — nonzero
// divisors, field positions inside a register, CASE selector on its
// single zero-displacement table entry.
func encodeFor(info *vax.OpInfo) ([]byte, error) {
	buf := []byte{byte(info.Code)}
	for i, spec := range info.Specs {
		s := vax.Specifier{}
		switch spec.Access {
		case vax.AccessRead:
			if spec.Type.Size() == 8 {
				s.Mode = vax.ModeRegister
				s.Base = vax.Reg(2 + 2*i)
			} else {
				s.Mode = vax.ModeLiteral
				s.Disp = readLiteral(info, i)
			}
		case vax.AccessWrite, vax.AccessModify, vax.AccessField:
			s.Mode = vax.ModeRegister
			s.Base = vax.Reg(2 + 2*i)
		case vax.AccessAddr:
			s.Mode = vax.ModeRegDeferred
			s.Base = vax.Reg(2 + 2*i)
		default:
			return nil, fmt.Errorf("%s operand %d: unhandled access %v", info.Name, i, spec.Access)
		}
		var err error
		buf, err = vax.EncodeSpecifier(buf, s, spec.Type)
		if err != nil {
			return nil, fmt.Errorf("%s operand %d: %w", info.Name, i, err)
		}
	}
	switch info.BranchDisp {
	case vax.TypeByte:
		buf = append(buf, 0)
	case vax.TypeWord:
		buf = append(buf, 0, 0)
	}
	if info.PCClass == vax.PCCase {
		buf = append(buf, 0, 0) // the single displacement word of a limit-0 CASE
	}
	return buf, nil
}

// readLiteral picks the short-literal value of read operand i.
func readLiteral(info *vax.OpInfo, i int) int32 {
	switch info.Name {
	case "MTPR":
		if i == 1 {
			return cpu.PRSCBB // a real, writable processor register
		}
	case "MFPR":
		if i == 0 {
			return cpu.PRSCBB
		}
	case "INDEX":
		// subscript 1 in [0,5], size 4, indexin 0: no subscript-range trap.
		return []int32{1, 0, 5, 4, 0}[i]
	case "EXTV", "EXTZV", "FFS", "FFC", "CMPV", "CMPZV", "INSV":
		return 3 // field position/size inside one register
	case "BBS", "BBC", "BBSS", "BBCS", "BBSC", "BBCC", "BBSSI", "BBCCI":
		return 3
	case "ASHP", "ASHL", "ASHQ":
		if i == 0 {
			return 1 // shift count
		}
	case "CASEB", "CASEW", "CASEL":
		return 0 // selector = base = limit = 0: exactly one table entry
	case "MOVC3", "MOVC5", "CMPC3", "CMPC5", "MOVTC", "LOCC", "SKPC", "SCANC", "SPANC":
		if spec := info.Specs[i]; spec.Type == vax.TypeWord {
			return 4 // string lengths: a few iterations of each loop
		}
		return 0 // fill/char/escape bytes
	case "CALLS", "PUSHR", "POPR":
		if i == 0 {
			return 1 // one argument / register mask {R0}
		}
	}
	return 1
}

// wordSetMatcher compiles a committed word set into a name predicate.
// A trailing ".*" entry is a prefix wildcard: the static side emits one
// when a whole handle family flows through a single indexed table (the
// per-mode dispatch banks), and the dynamic side must attribute every
// member the same way.
func wordSetMatcher(words []string) func(name string) bool {
	exact := make(map[string]bool, len(words))
	var prefixes []string
	for _, w := range words {
		if strings.HasSuffix(w, ".*") {
			prefixes = append(prefixes, strings.TrimSuffix(w, "*"))
		} else {
			exact[w] = true
		}
	}
	return func(name string) bool {
		if exact[name] {
			return true
		}
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
}

// wordAddrs maps word names to control-store addresses (for the
// corruption test's deliberate misattribution).
func wordAddrs() map[string]uint16 {
	out := make(map[string]uint16)
	for _, w := range cpu.CS.Words() {
		out[w.Name] = w.Addr
	}
	return out
}

// MeasureOpcodeLatency single-steps one directed instance of the opcode
// and returns its measured execute-phase cycles per class constant
// name, attributed over the committed word set. remap, if non-nil,
// rewrites histogram µPCs before attribution — the corruption hook: the
// oracle must catch a count that lands on the wrong word.
func MeasureOpcodeLatency(op *latency.Opcode, remap map[uint16]uint16) (map[string]uint64, error) {
	info := vax.LookupName(op.Name)
	if info == nil {
		return nil, fmt.Errorf("latency table names unknown opcode %s", op.Name)
	}
	buf, err := encodeFor(info)
	if err != nil {
		return nil, err
	}
	m, p := newLatMachine()
	prepOperands(m, info)
	m.Mem.Load(latCode, buf)
	m.SetPC(latCode)
	m.StepInstruction()
	if err := m.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", op.Name, err)
	}

	byAddr := make(map[uint16]struct {
		name  string
		class string
	})
	for _, w := range cpu.CS.Words() {
		byAddr[w.Addr] = struct {
			name  string
			class string
		}{w.Name, w.Class.ConstName()}
	}
	inSet := wordSetMatcher(op.Words)
	measured := make(map[string]uint64)
	for a, n := range p.counts {
		if n == 0 {
			continue
		}
		upc := uint16(a)
		if to, ok := remap[upc]; ok {
			upc = to
		}
		w, ok := byAddr[upc]
		if !ok || !inSet(w.name) {
			continue
		}
		measured[w.class] += n
	}
	return measured, nil
}

// MeasureModeLatency measures one addressing mode's specifier cost: a
// TSTL through the mode, attributed over the mode row's word set. TSTL
// is the minimal carrier — its execute phase is a single Simple-row
// word outside every mode word set.
func MeasureModeLatency(mode *latency.Mode) (map[string]uint64, error) {
	s, setup, err := modeSpecifier(mode.Mode)
	if err != nil {
		return nil, err
	}
	info := vax.LookupName("TSTL")
	if info == nil {
		return nil, fmt.Errorf("TSTL missing from the opcode table")
	}
	buf := []byte{byte(info.Code)}
	buf, err = vax.EncodeSpecifier(buf, s, vax.TypeLong)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", mode.Mode, err)
	}
	m, p := newLatMachine()
	setup(m)
	m.Mem.Load(latCode, buf)
	m.SetPC(latCode)
	m.StepInstruction()
	if err := m.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", mode.Mode, err)
	}
	inSet := wordSetMatcher(mode.Words)
	classAt := make(map[uint16]string)
	for _, w := range cpu.CS.Words() {
		if inSet(w.Name) {
			classAt[w.Addr] = w.Class.ConstName()
		}
	}
	measured := make(map[string]uint64)
	for a, n := range p.counts {
		if n == 0 {
			continue
		}
		if class, ok := classAt[uint16(a)]; ok {
			measured[class] += n
		}
	}
	return measured, nil
}

// modeSpecifier builds the directed TSTL specifier for one mode-table
// row, plus any machine setup (pointers for the deferred modes).
func modeSpecifier(mode string) (vax.Specifier, func(*cpu.Machine), error) {
	none := func(*cpu.Machine) {}
	switch mode {
	case "ModeLiteral":
		return vax.Specifier{Mode: vax.ModeLiteral, Disp: 1}, none, nil
	case "ModeImmediate":
		return vax.Specifier{Mode: vax.ModeImmediate, Imm: 5}, none, nil
	case "ModeRegister":
		return vax.Specifier{Mode: vax.ModeRegister, Base: vax.R2}, none, nil
	case "ModeRegDeferred":
		return vax.Specifier{Mode: vax.ModeRegDeferred, Base: vax.R2}, none, nil
	case "ModeAutoInc":
		return vax.Specifier{Mode: vax.ModeAutoInc, Base: vax.R2}, none, nil
	case "ModeAutoDec":
		return vax.Specifier{Mode: vax.ModeAutoDec, Base: vax.R2}, none, nil
	case "ModeAutoIncDef":
		return vax.Specifier{Mode: vax.ModeAutoIncDef, Base: vax.R2}, func(m *cpu.Machine) {
			m.Mem.WriteLong(latRegion(0), latRegion(1))
		}, nil
	case "ModeAbsolute":
		return vax.Specifier{Mode: vax.ModeAbsolute, Imm: uint64(latRegion(1))}, none, nil
	case "ModeByteDisp":
		return vax.Specifier{Mode: vax.ModeByteDisp, Base: vax.R2, Disp: 8}, none, nil
	case "ModeWordDisp":
		return vax.Specifier{Mode: vax.ModeWordDisp, Base: vax.R2, Disp: 8}, none, nil
	case "ModeLongDisp":
		return vax.Specifier{Mode: vax.ModeLongDisp, Base: vax.R2, Disp: 8}, none, nil
	case "ModeByteDispDef", "ModeWordDispDef", "ModeLongDispDef":
		am := map[string]vax.AddrMode{
			"ModeByteDispDef": vax.ModeByteDispDef,
			"ModeWordDispDef": vax.ModeWordDispDef,
			"ModeLongDispDef": vax.ModeLongDispDef,
		}[mode]
		return vax.Specifier{Mode: am, Base: vax.R2, Disp: 8}, func(m *cpu.Machine) {
			m.Mem.WriteLong(latRegion(0)+8, latRegion(1))
		}, nil
	}
	return vax.Specifier{}, nil, fmt.Errorf("mode table names unknown mode %s", mode)
}

// CheckLatencyTable runs the full dynamic cross-check: every opcode and
// every mode of the committed table measured and bounds-checked.
// Returned problems are empty when the machine agrees with its own
// microcode-derived oracle.
func CheckLatencyTable(tab *latency.Table) ([]string, error) {
	var probs []string
	for i := range tab.Opcodes {
		op := &tab.Opcodes[i]
		measured, err := MeasureOpcodeLatency(op, nil)
		if err != nil {
			return nil, err
		}
		probs = append(probs, op.Check(measured)...)
	}
	for i := range tab.Modes {
		mode := &tab.Modes[i]
		measured, err := MeasureModeLatency(mode)
		if err != nil {
			return nil, err
		}
		// Same containment policy as Opcode.Check; mode rows carry no
		// loop terms, so Max always binds.
		probe := latency.Opcode{Name: mode.Mode, Classes: mode.Classes}
		probs = append(probs, probe.Check(measured)...)
	}
	sort.Strings(probs)
	return probs, nil
}
