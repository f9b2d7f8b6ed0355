// The latency table (DESIGN.md §16): every registered opcode single-stepped
// on a fresh Machine under a fixed list of directed variants, every
// addressing mode measured by a TSTL through it, and each instruction's
// exec-channel µPC counts reduced into Table 8 (row, column) cells — the
// paper's own reduction applied to one instruction at a time, in the
// manner of uops.info's measured per-instruction tables. cmd/vaxlat
// commits the result as latency.json and LATENCY.md, and
// TestLatencyOracle requires a fresh sweep to reproduce both files byte
// for byte. Every step must also keep the histogram equal to the
// machine's own counters (attribution.go).
//
// Directed conditions: physical addressing (no TB-miss service), aligned
// operand addresses, no pending interrupts, patch cycles disabled.
package experiments

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"vax780/internal/core"
	"vax780/internal/cpu"
	"vax780/internal/ucode"
	"vax780/internal/vax"
)

// LatencyFile and LatencyDoc are the committed table's file names at the
// module root: the machine-readable form and its rendering.
const (
	LatencyFile = "latency.json"
	LatencyDoc  = "LATENCY.md"
)

// latencyVersion is the schema version of latency.json.
const latencyVersion = 2

// Cells is one measured instruction: exec-channel cycle counts keyed by
// Table 8 row (ucode.Row.String) and then by column (ucode.Class.String).
type Cells map[string]map[string]uint64

// LatencyTable is the whole committed latency.json.
type LatencyTable struct {
	Version int             `json:"version"`
	Note    string          `json:"note"`
	Opcodes []LatencyOpcode `json:"opcodes"`
	Modes   []LatencyMode   `json:"modes"`
}

// LatencyOpcode is one opcode's measurements: the base variant's cells,
// then every other variant whose cells differ from them.
type LatencyOpcode struct {
	Name     string           `json:"name"`
	Row      string           `json:"row"` // its Table 8 execute row
	Cells    Cells            `json:"cells"`
	Variants []LatencyVariant `json:"variants,omitempty"`
}

// LatencyVariant is one non-base variant's cells.
type LatencyVariant struct {
	Name  string `json:"name"`
	Cells Cells  `json:"cells"`
}

// LatencyMode is one addressing mode's row: a TSTL through the mode.
type LatencyMode struct {
	Mode  string `json:"mode"`
	Cells Cells  `json:"cells"`
}

// latVariant is one directed condition of the sweep. The zero value is
// the base variant: literal and register operands, condition codes
// clear, zeroed scratch memory, a RET frame from CALLG with no saved
// registers.
type latVariant struct {
	name    string
	memory  bool // write, modify and field operands through (Rn); scratch region i holds bytes 0xFF-i
	indexed bool // those operands through (Rn)[R0] instead, R0 = 0: stores run in the SPEC2-6 bank
	span    bool // field operands through (Rn) with size 30, so a memory field spans two longwords
	codes   bool // N, Z, V and C set, so the conditional branches base skips are taken
	zero    bool // short literals 0 instead of 1: zero-trip loops, empty masks, low bit clear
	sirr    bool // MTPR writes SIRR, the processor register with its own microword
	bytes   bool // string lengths 5 and 9, so the byte loop and the fill loop run
	calls   bool // RET returns from a CALLS frame that saved R0 and passed one argument
}

// latVariants is the fixed variant list, base first.
var latVariants = [...]latVariant{
	{name: "base"},
	{name: "memory", memory: true},
	{name: "indexed", memory: true, indexed: true},
	{name: "span", span: true},
	{name: "codes", codes: true},
	{name: "zero", zero: true},
	{name: "sirr", sirr: true},
	{name: "bytes", bytes: true},
	{name: "calls", calls: true},
}

// latProbe is the measurement histogram: exec-channel counts, in a dense
// table — Count runs once per machine cycle, inside the stepping loop.
// Stall cycles are timing, not attribution, so no cell holds them; the
// ledger takes them for the counter identities.
type latProbe struct {
	counts [ucode.StoreSize]uint64
	ledger classLedger
}

func (p *latProbe) Count(upc uint16, n uint64) {
	p.counts[upc] += n
	p.ledger.count(upc, n)
}

func (p *latProbe) Stall(upc uint16, n uint64) { p.ledger.stall(upc, n) }

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
	latRegions    = 6
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
	for i := 0; i < latRegions; i++ {
		m.R[2+2*i] = latRegion(i)
	}

	p := &latProbe{}
	m.AttachProbe(p)
	m.SetMonitorGate(true)
	return m, p
}

// prepMachine sets the variant's scratch fill, condition codes and RET
// frame, then writes whatever operand memory the opcode's semantics
// demand.
func prepMachine(m *cpu.Machine, info *vax.OpInfo, v latVariant) {
	if v.memory {
		// Distinct nonzero bytes per region: set bits for the bit
		// branches, unequal strings for the compares, a full CALL mask.
		for i := 0; i < latRegions; i++ {
			for a := latRegion(i); a < latRegion(i+1); a += 4 {
				m.Mem.WriteLong(a, 0x01010101*uint32(0xFF-i))
			}
		}
	}
	if v.codes {
		m.PSL |= vax.PSLN | vax.PSLZ | vax.PSLV | vax.PSLC
	}
	if v.calls {
		m.Mem.WriteLong(latFrame+4, 1<<29|1<<16) // S bit, register mask {R0}
		m.Mem.WriteLong(latFrame+20, 0)          // saved R0
		m.Mem.WriteLong(latFrame+24, 1)          // argument count
	}
	switch info.Group {
	case vax.GroupDecimal:
		// Valid packed decimal "123" (plus sign) in every region: a
		// nonzero divisor for DIVP, valid nibbles everywhere.
		for i := 0; i < latRegions; i++ {
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
// opcode: literal sources, register (pair) or (Rn) destinations,
// deferred scratch addresses for address operands, and a zero branch
// displacement. The choices keep every instruction legal — nonzero
// divisors, field positions inside a register, a limit-0 CASE with its
// one displacement word.
func encodeFor(info *vax.OpInfo, v latVariant) ([]byte, error) {
	buf := []byte{byte(info.Code)}
	for i, spec := range info.Specs {
		s := vax.Specifier{Mode: vax.ModeRegister, Base: vax.Reg(2 + 2*i)}
		switch spec.Access {
		case vax.AccessRead:
			if spec.Type.Size() != 8 {
				s.Mode = vax.ModeLiteral
				s.Disp = readLiteral(info, i, v)
			}
		case vax.AccessWrite, vax.AccessModify, vax.AccessField:
			if v.memory || v.span && spec.Access == vax.AccessField {
				s.Mode = vax.ModeRegDeferred
				s.Indexed, s.Index = v.indexed, vax.R0
			}
		case vax.AccessAddr:
			s.Mode = vax.ModeRegDeferred
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
func readLiteral(info *vax.OpInfo, i int, v latVariant) int32 {
	switch info.Name {
	case "MTPR":
		if i == 1 {
			if v.sirr {
				return cpu.PRSIRR
			}
			return cpu.PRSCBB // a real, writable processor register
		}
	case "MFPR":
		if i == 0 {
			return cpu.PRSCBB
		}
	case "INDEX":
		// subscript 1 in [0,5], size 4, indexin 0: no subscript-range trap.
		return []int32{1, 0, 5, 4, 0}[i]
	case "CASEB", "CASEW", "CASEL":
		if i > 0 {
			return 0 // base = limit = 0: one table entry; selector 1 misses it, 0 (zero) hits it
		}
	case "MOVC3", "MOVC5", "CMPC3", "CMPC5", "MOVTC", "LOCC", "SKPC", "SCANC", "SPANC":
		if info.Specs[i].Type != vax.TypeWord {
			return 0 // fill/char/escape bytes
		}
		switch {
		case v.zero:
			return 0
		case !v.bytes:
			return 4 // one longword iteration of the move loops
		case slices.ContainsFunc(info.Specs[:i], func(s vax.OperandSpec) bool { return s.Type == vax.TypeWord }):
			return 9 // a second length longer than the first: the fill loops run
		default:
			return 5 // one longword and one byte iteration
		}
	}
	if v.zero {
		return 0
	}
	switch info.Name {
	case "EXTV", "EXTZV", "FFS", "FFC", "CMPV", "CMPZV", "INSV",
		"BBS", "BBC", "BBSS", "BBCS", "BBSC", "BBCC", "BBSSI", "BBCCI":
		if v.span && info.Specs[i].Type == vax.TypeByte {
			return 30 // the size: from position 3, the field reaches the next longword
		}
		return 3 // field position/size inside one register
	}
	return 1
}

// latCase is one step of the sweep: the instruction's I-stream bytes and
// the preparation of the machine that runs it.
type latCase struct {
	buf  []byte
	prep func(*cpu.Machine)
}

// load builds a fresh measurement machine prepared for the case, with the
// instruction at latCode and the PC on it.
func (c latCase) load() (*cpu.Machine, *latProbe) {
	m, p := newLatMachine()
	c.prep(m)
	m.Mem.Load(latCode, c.buf)
	m.SetPC(latCode)
	return m, p
}

// stepLat single-steps the case on a fresh measurement machine and
// returns its probe. A step whose counts break a counter identity
// (attribution.go) is an error.
func stepLat(c latCase) (*latProbe, error) {
	m, p := c.load()
	before := readCounters(m)
	m.StepInstruction()
	if err := m.Err(); err != nil {
		return nil, err
	}
	if err := p.ledger.reconcile(before, readCounters(m)); err != nil {
		return nil, err
	}
	return p, nil
}

// opcodeCase is the directed instance of the opcode under variant v.
func opcodeCase(info *vax.OpInfo, v latVariant) (latCase, error) {
	buf, err := encodeFor(info, v)
	if err != nil {
		return latCase{}, err
	}
	return latCase{buf, func(m *cpu.Machine) { prepMachine(m, info, v) }}, nil
}

// stepOpcode single-steps one directed instance of the opcode under
// variant v.
func stepOpcode(info *vax.OpInfo, v latVariant) (*latProbe, error) {
	c, err := opcodeCase(info, v)
	if err != nil {
		return nil, err
	}
	p, err := stepLat(c)
	if err != nil {
		return nil, fmt.Errorf("%s (%s): %w", info.Name, v.name, err)
	}
	return p, nil
}

// MeasureOpcodeLatency single-steps one directed instance of the opcode
// under the named variant and returns its cells. remap, if non-nil,
// rewrites histogram µPCs before they are reduced — the corruption hook:
// the oracle must catch a count that lands on the wrong word. A count in
// a Table 8 row the opcode may not reach is an error (see checkRow).
func MeasureOpcodeLatency(info *vax.OpInfo, variant string, remap map[uint16]uint16) (Cells, error) {
	i := slices.IndexFunc(latVariants[:], func(v latVariant) bool { return v.name == variant })
	if i < 0 {
		return nil, fmt.Errorf("no latency variant %q", variant)
	}
	v := latVariants[i]
	exec, ok := core.ExecRowOf(info.Group)
	if !ok {
		return nil, fmt.Errorf("%s: group %v has no Table 8 execute row", info.Name, info.Group)
	}
	p, err := stepOpcode(info, v)
	if err != nil {
		return nil, err
	}
	return reduceCells(p, remap, exec)
}

// reduceCells folds the probe's counts into Table 8 cells, requiring each
// count to land in a row the instruction may reach: the decode,
// specifier and branch-displacement rows every instruction shares, its
// own execute row, or a service row.
func reduceCells(p *latProbe, remap map[uint16]uint16, exec ucode.Row) (Cells, error) {
	cells := make(Cells)
	for a, n := range p.counts {
		if n == 0 {
			continue
		}
		upc := uint16(a)
		if to, ok := remap[upc]; ok {
			upc = to
		}
		w := cpu.CS.Word(upc)
		if err := checkRow(w, exec); err != nil {
			return nil, err
		}
		row := w.Row.String()
		if cells[row] == nil {
			cells[row] = make(map[string]uint64)
		}
		cells[row][w.Class.String()] += n
	}
	return cells, nil
}

// checkRow is the row assertion: a word counted outside the shared rows,
// the instruction's execute row and the service rows means the model
// charges the instruction to another group's Table 8 row.
func checkRow(w ucode.Word, exec ucode.Row) error {
	switch w.Row {
	case ucode.RowDecode, ucode.RowSpec1, ucode.RowSpec26, ucode.RowBDisp,
		ucode.RowIntExcept, ucode.RowMemMgmt, ucode.RowAbort, exec:
		return nil
	}
	return fmt.Errorf("word %s counted in Table 8 row %s, outside execute row %s", w.Name, w.Row, exec)
}

// MeasureModeLatency measures one addressing mode: a TSTL through the
// mode, the minimal carrier — its execute phase is a single Simple-row
// word.
func MeasureModeLatency(mode vax.AddrMode) (Cells, error) {
	p, err := stepMode(mode)
	if err != nil {
		return nil, err
	}
	return reduceCells(p, nil, ucode.RowSimple)
}

// modeCase is the directed TSTL through one addressing mode.
func modeCase(mode vax.AddrMode) (latCase, error) {
	s, setup := modeSpecifier(mode)
	buf, err := vax.EncodeSpecifier([]byte{byte(vax.TSTL)}, s, vax.TypeLong)
	if err != nil {
		return latCase{}, fmt.Errorf("%s: %w", mode, err)
	}
	return latCase{buf, setup}, nil
}

// stepMode single-steps the directed TSTL through one addressing mode.
func stepMode(mode vax.AddrMode) (*latProbe, error) {
	c, err := modeCase(mode)
	if err != nil {
		return nil, err
	}
	p, err := stepLat(c)
	if err != nil {
		return nil, fmt.Errorf("TSTL %s: %w", mode, err)
	}
	return p, nil
}

// modeSpecifier builds the directed TSTL specifier for one mode, plus any
// machine setup (the pointer the deferred modes follow).
func modeSpecifier(mode vax.AddrMode) (vax.Specifier, func(*cpu.Machine)) {
	s := vax.Specifier{Mode: mode, Base: vax.R2}
	pointer := func(at uint32) func(*cpu.Machine) {
		return func(m *cpu.Machine) { m.Mem.WriteLong(at, latRegion(1)) }
	}
	setup := func(*cpu.Machine) {}
	switch mode {
	case vax.ModeLiteral:
		s.Disp = 1
	case vax.ModeImmediate:
		s.Imm = 5
	case vax.ModeAbsolute:
		s.Imm = uint64(latRegion(1))
	case vax.ModeAutoIncDef:
		setup = pointer(latRegion(0))
	case vax.ModeByteDisp, vax.ModeWordDisp, vax.ModeLongDisp:
		s.Disp = 8
	case vax.ModeByteDispDef, vax.ModeWordDispDef, vax.ModeLongDispDef:
		s.Disp = 8
		setup = pointer(latRegion(0) + 8)
	}
	return s, setup
}

// MeasureLatencyTable runs the whole sweep: every registered opcode under
// every variant, and every addressing mode.
func MeasureLatencyTable() (*LatencyTable, error) {
	tab := &LatencyTable{
		Version: latencyVersion,
		Note:    "measured Table 8 cells per opcode and variant (DESIGN.md §16); regenerate with `go run ./cmd/vaxlat`",
	}
	for _, code := range cpu.RegisteredOpcodes() {
		info := vax.Lookup(code)
		if info == nil {
			return nil, fmt.Errorf("registered opcode %#02x has no vax.OpInfo row", uint8(code))
		}
		exec, _ := core.ExecRowOf(info.Group)
		op := LatencyOpcode{Name: info.Name, Row: exec.String()}
		for i, v := range latVariants {
			cells, err := MeasureOpcodeLatency(info, v.name, nil)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				op.Cells = cells
			} else if !maps.EqualFunc(cells, op.Cells, maps.Equal) {
				op.Variants = append(op.Variants, LatencyVariant{Name: v.name, Cells: cells})
			}
		}
		tab.Opcodes = append(tab.Opcodes, op)
	}
	sort.Slice(tab.Opcodes, func(i, j int) bool { return tab.Opcodes[i].Name < tab.Opcodes[j].Name })
	for mode := vax.AddrMode(0); int(mode) < vax.NumAddrModes; mode++ {
		cells, err := MeasureModeLatency(mode)
		if err != nil {
			return nil, err
		}
		tab.Modes = append(tab.Modes, LatencyMode{Mode: mode.String(), Cells: cells})
	}
	return tab, nil
}

// Marshal renders the table in its committed byte form: two-space
// indent, trailing newline. Maps marshal key-sorted, so identical
// measurements give identical bytes.
func (t *LatencyTable) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// LoadLatencyTable reads a committed table.
func LoadLatencyTable(path string) (*LatencyTable, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("latency table: %w", err)
	}
	var t LatencyTable
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, fmt.Errorf("latency table %s: %w", path, err)
	}
	if t.Version != latencyVersion {
		return nil, fmt.Errorf("latency table %s: schema version %d, want %d", path, t.Version, latencyVersion)
	}
	return &t, nil
}

// Root walks up from the working directory to the module root — the
// nearest ancestor holding go.mod — so tests and tools can locate the
// committed latency.json wherever they run.
func Root() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// Render is the committed LATENCY.md: one line per opcode and stored
// variant, then one per addressing mode, with a column per Table 8 row
// group and each cell listing its classes.
func (t *LatencyTable) Render() []byte {
	var sb strings.Builder
	sb.WriteString(`# Per-opcode latency table

Measured exec-channel microcycles per Table 8 row and column: each
registered opcode is single-stepped on a fresh machine under a fixed list
of directed variants (DESIGN.md §16), and each addressing mode is measured
by a TSTL through it. A variant is listed only where its cells differ from
the base variant's. *Execute* is the opcode's own row (the *Row* column);
*Service* names any Int/Except, Mem Mgmt or Abort cell.

Regenerate with ` + "`go run ./cmd/vaxlat`" + `; ` + "`go test -run TestLatency ./internal/experiments`" + `
fails when a fresh sweep differs from this file or from latency.json.

## Opcodes

| Opcode | Variant | Row | Decode | SPEC1 | SPEC2-6 | B-DISP | Execute | Service |
|---|---|---|---|---|---|---|---|---|
`)
	for _, op := range t.Opcodes {
		renderLine(&sb, []string{op.Name, "base", op.Row}, op.Cells, op.Row)
		for _, v := range op.Variants {
			renderLine(&sb, []string{"", v.Name, ""}, v.Cells, op.Row)
		}
	}
	sb.WriteString(`
## Addressing modes (TSTL, longword operand)

| Mode | Decode | SPEC1 | SPEC2-6 | B-DISP | Execute | Service |
|---|---|---|---|---|---|---|
`)
	for _, mo := range t.Modes {
		renderLine(&sb, []string{mo.Mode}, mo.Cells, ucode.RowSimple.String())
	}
	return []byte(sb.String())
}

// renderLine writes one table line: the label columns, then the shared
// rows, the execute row and the service rows.
func renderLine(sb *strings.Builder, labels []string, cells Cells, exec string) {
	sb.WriteString("|")
	for _, l := range labels {
		sb.WriteString(" " + l + " |")
	}
	shared := []string{ucode.RowDecode.String(), ucode.RowSpec1.String(), ucode.RowSpec26.String(), ucode.RowBDisp.String()}
	for _, row := range append(shared, exec) {
		sb.WriteString(" " + classText(cells[row]) + " |")
	}
	var service []string
	for _, row := range sortedKeys(cells) {
		if row != exec && !slices.Contains(shared, row) {
			service = append(service, row+": "+classText(cells[row]))
		}
	}
	if len(service) == 0 {
		service = []string{"·"}
	}
	sb.WriteString(" " + strings.Join(service, "; ") + " |\n")
}

// classText renders one cell's classes as "compute 2, read 1".
func classText(classes map[string]uint64) string {
	if len(classes) == 0 {
		return "·"
	}
	var parts []string
	for _, c := range sortedKeys(classes) {
		parts = append(parts, fmt.Sprintf("%s %d", c, classes[c]))
	}
	return strings.Join(parts, ", ")
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
