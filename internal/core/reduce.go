package core

import (
	"fmt"

	"vax780/internal/ucode"
	"vax780/internal/vax"
)

// ColumnSet is one row of the paper's Table 8: cycles per average
// instruction in each of the six mutually-exclusive categories.
type ColumnSet struct {
	Compute float64
	Read    float64
	RStall  float64
	Write   float64
	WStall  float64
	IBStall float64
}

// Total sums the six categories.
func (c ColumnSet) Total() float64 {
	return c.Compute + c.Read + c.RStall + c.Write + c.WStall + c.IBStall
}

func (c *ColumnSet) add(o ColumnSet) {
	c.Compute += o.Compute
	c.Read += o.Read
	c.RStall += o.RStall
	c.Write += o.Write
	c.WStall += o.WStall
	c.IBStall += o.IBStall
}

func (c ColumnSet) scale(f float64) ColumnSet {
	return ColumnSet{c.Compute * f, c.Read * f, c.RStall * f, c.Write * f, c.WStall * f, c.IBStall * f}
}

// PCClassStat is one row of Table 2.
type PCClassStat struct {
	Entries uint64 // executions of instructions in the class
	Taken   uint64 // executions that actually changed the PC
}

// PctTaken returns the percentage of executions that branched.
func (p PCClassStat) PctTaken() float64 {
	if p.Entries == 0 {
		return 0
	}
	return 100 * float64(p.Taken) / float64(p.Entries)
}

// SpecCategory aggregates addressing modes into the paper's Table 4 rows.
type SpecCategory int

// Table 4 rows.
const (
	CatRegister SpecCategory = iota
	CatLiteral
	CatImmediate
	CatDisplacement
	CatRegDeferred
	CatAutoInc
	CatDispDeferred
	CatAutoDec
	CatAbsolute
	CatAutoIncDef
	NumSpecCategories
)

func (c SpecCategory) String() string {
	switch c {
	case CatRegister:
		return "Register R"
	case CatLiteral:
		return "Short literal"
	case CatImmediate:
		return "Immediate (PC)+"
	case CatDisplacement:
		return "Displacement D(R)"
	case CatRegDeferred:
		return "Register deferred (R)"
	case CatAutoInc:
		return "Autoincrement (R)+"
	case CatDispDeferred:
		return "Disp. deferred @D(R)"
	case CatAutoDec:
		return "Autodecrement -(R)"
	case CatAbsolute:
		return "Absolute @#"
	case CatAutoIncDef:
		return "Autoinc. deferred @(R)+"
	}
	return fmt.Sprintf("SpecCategory(%d)", int(c))
}

// categoryOf maps a decoded addressing mode to its Table 4 row and its
// encoded size in bytes (mode byte + constant bytes; immediates assume the
// longword data path, as the paper's estimate does).
func categoryOf(m vax.AddrMode) (SpecCategory, float64) {
	switch m {
	case vax.ModeLiteral:
		return CatLiteral, 1
	case vax.ModeRegister:
		return CatRegister, 1
	case vax.ModeRegDeferred:
		return CatRegDeferred, 1
	case vax.ModeAutoInc:
		return CatAutoInc, 1
	case vax.ModeAutoDec:
		return CatAutoDec, 1
	case vax.ModeAutoIncDef:
		return CatAutoIncDef, 1
	case vax.ModeImmediate:
		return CatImmediate, 5
	case vax.ModeAbsolute:
		return CatAbsolute, 5
	case vax.ModeByteDisp:
		return CatDisplacement, 2
	case vax.ModeWordDisp:
		return CatDisplacement, 3
	case vax.ModeLongDisp:
		return CatDisplacement, 5
	case vax.ModeByteDispDef:
		return CatDispDeferred, 2
	case vax.ModeWordDispDef:
		return CatDispDeferred, 3
	case vax.ModeLongDispDef:
		return CatDispDeferred, 5
	}
	return CatRegister, 1
}

// SpecifierStats covers Tables 3 and 4.
type SpecifierStats struct {
	Spec1      uint64 // first-specifier dispatches
	Spec26     uint64 // other-specifier dispatches
	BranchDisp uint64 // executions of displacement-bearing instructions
	Indexed    uint64 // indexed specifiers

	ByCategory [NumSpecCategories]struct {
		Spec1  uint64
		Spec26 uint64
	}

	// EstSpecBytes is the frequency-weighted average encoded specifier
	// size (the paper's 1.68 bytes).
	EstSpecBytes float64
}

// MemOpRow is one row of Table 5: reads and writes per average instruction
// attributed to a source.
type MemOpRow struct {
	Label  string
	Reads  float64
	Writes float64
}

// HeadwayStats is Table 7: average instruction headway between events.
type HeadwayStats struct {
	SoftIntRequests uint64
	Interrupts      uint64
	CtxSwitches     uint64
	Instructions    uint64
}

// Headway returns instructions per event (0 when the event never fired).
func headway(instr, events uint64) float64 {
	if events == 0 {
		return 0
	}
	return float64(instr) / float64(events)
}

// SoftIntHeadway returns instructions per software-interrupt request.
func (h HeadwayStats) SoftIntHeadway() float64 { return headway(h.Instructions, h.SoftIntRequests) }

// InterruptHeadway returns instructions per delivered interrupt.
func (h HeadwayStats) InterruptHeadway() float64 { return headway(h.Instructions, h.Interrupts) }

// CtxSwitchHeadway returns instructions per context switch.
func (h HeadwayStats) CtxSwitchHeadway() float64 { return headway(h.Instructions, h.CtxSwitches) }

// TBMissStats is the §4.2 translation-buffer characterization.
type TBMissStats struct {
	DStreamMisses uint64
	IStreamMisses uint64
	ServiceCycles uint64 // all cycles in the miss routine, incl. read stalls
	PTEReadStalls uint64 // read-stall cycles on PTE fetches
}

// MissesPerInstr returns total TB misses per instruction.
func (t TBMissStats) PerInstr(instr uint64) float64 {
	if instr == 0 {
		return 0
	}
	return float64(t.DStreamMisses+t.IStreamMisses) / float64(instr)
}

// CyclesPerMiss returns the average miss service time.
func (t TBMissStats) CyclesPerMiss() float64 {
	n := t.DStreamMisses + t.IStreamMisses
	if n == 0 {
		return 0
	}
	return float64(t.ServiceCycles) / float64(n)
}

// Report is the full reduction of one histogram: every table of the paper.
type Report struct {
	Instructions uint64
	Cycles       uint64 // classified cycles (executions + stalls)

	// Timing is Table 8: rows by ucode.Row, in cycles per average
	// instruction; TimingTotal is its TOTAL row. CPI is TimingTotal.Total().
	Timing      [ucode.NumRows]ColumnSet
	TimingTotal ColumnSet

	// Groups is Table 1: instruction executions per opcode group.
	Groups [vax.NumGroups]uint64

	// PCClasses is Table 2 (index by vax.PCClass; PCNone unused).
	PCClasses [vax.NumPCClasses]PCClassStat

	// Spec covers Tables 3 and 4.
	Spec SpecifierStats

	// MemOps is Table 5.
	MemOps []MemOpRow

	// Headway is Table 7.
	Headway HeadwayStats

	// TBMiss is §4.2.
	TBMiss TBMissStats
}

// CPI returns cycles per average instruction.
func (r *Report) CPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Instructions)
}

// GroupFreq returns a group's share of instruction executions (0..1).
func (r *Report) GroupFreq(g vax.Group) float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Groups[g]) / float64(r.Instructions)
}

// SpecsPerInstr returns Table 3's specifier rates.
func (r *Report) SpecsPerInstr() (spec1, spec26, bdisp float64) {
	if r.Instructions == 0 {
		return
	}
	n := float64(r.Instructions)
	return float64(r.Spec.Spec1) / n, float64(r.Spec.Spec26) / n, float64(r.Spec.BranchDisp) / n
}

// EstInstrBytes returns Table 6's estimated average instruction size:
// one opcode byte, the specifier bytes, and one byte per branch
// displacement (the paper's estimate).
func (r *Report) EstInstrBytes() float64 {
	if r.Instructions == 0 {
		return 0
	}
	n := float64(r.Instructions)
	specs := float64(r.Spec.Spec1+r.Spec.Spec26) / n
	return 1 + specs*r.Spec.EstSpecBytes + float64(r.Spec.BranchDisp)/n*1.0
}

// WithinGroup returns Table 9: the execute-phase cycles per average
// instruction *of that group* (Table 8's execute rows divided by the
// group's frequency).
func (r *Report) WithinGroup(g vax.Group) ColumnSet {
	if r.Groups[g] == 0 {
		return ColumnSet{}
	}
	er, ok := ExecRowOf(g)
	if !ok {
		return ColumnSet{}
	}
	row := r.Timing[er]
	return row.scale(float64(r.Instructions) / float64(r.Groups[g]))
}

// ExecRowOf maps an opcode group to its Table 8 execute row. The second
// result is false for values that are not opcode groups.
func ExecRowOf(g vax.Group) (ucode.Row, bool) {
	switch g {
	case vax.GroupSimple:
		return ucode.RowSimple, true
	case vax.GroupField:
		return ucode.RowField, true
	case vax.GroupFloat:
		return ucode.RowFloat, true
	case vax.GroupCallRet:
		return ucode.RowCallRet, true
	case vax.GroupSystem:
		return ucode.RowSystem, true
	case vax.GroupCharacter:
		return ucode.RowCharacter, true
	case vax.GroupDecimal:
		return ucode.RowDecimal, true
	}
	return 0, false
}

// groupOfRow inverts ExecRowOf for rows that are execute rows.
func groupOfRow(row ucode.Row) (vax.Group, bool) {
	switch row {
	case ucode.RowSimple:
		return vax.GroupSimple, true
	case ucode.RowField:
		return vax.GroupField, true
	case ucode.RowFloat:
		return vax.GroupFloat, true
	case ucode.RowCallRet:
		return vax.GroupCallRet, true
	case ucode.RowSystem:
		return vax.GroupSystem, true
	case ucode.RowCharacter:
		return vax.GroupCharacter, true
	case ucode.RowDecimal:
		return vax.GroupDecimal, true
	}
	return 0, false
}

// pcClassWords maps each Table 2 class to the control-store locations
// whose execution counts give its entry and taken counts. The BRB/BRW
// grouping with simple conditionals reproduces the paper's
// microcode-sharing artifact.
var pcClassWords = map[vax.PCClass]struct {
	entries []string
	taken   []string
	hasDisp bool
}{
	vax.PCSimpleCond: {[]string{"exec.br.cond.entry"}, []string{"exec.br.cond.taken"}, true},
	vax.PCLoop:       {[]string{"exec.br.loop.entry"}, []string{"exec.br.loop.taken"}, true},
	vax.PCLowBit:     {[]string{"exec.br.lowbit.entry"}, []string{"exec.br.lowbit.taken"}, true},
	vax.PCSubr: {
		[]string{"exec.br.bsb.entry", "exec.br.jsb.entry", "exec.br.rsb.entry"},
		[]string{"exec.br.bsb.taken", "exec.br.jsb.taken", "exec.br.rsb.taken"},
		false, // only BSBx carries a displacement; counted separately below
	},
	vax.PCUncond:    {[]string{"exec.br.jmp.entry"}, []string{"exec.br.jmp.taken"}, false},
	vax.PCCase:      {[]string{"exec.br.case.entry"}, []string{"exec.br.case.taken"}, false},
	vax.PCBitBranch: {[]string{"exec.bb.entry"}, []string{"exec.bb.taken"}, true},
	vax.PCProc: {
		[]string{"exec.call.entry", "exec.ret.entry"},
		[]string{"exec.call.taken", "exec.ret.taken"},
		false,
	},
	vax.PCSystem: {
		[]string{"exec.sys.chm.entry", "exec.sys.rei.entry"},
		[]string{"exec.sys.chm.taken", "exec.sys.rei.taken"},
		false,
	},
}

// Reduce interprets a raw histogram against a control-store map,
// producing the paper's tables. This is the paper's "additional
// interpretation of the raw histogram data" (§2.2), automated.
//
// Every microword name below is looked up on every call, through
// MustLookup: a misspelt name panics, naming the nearest defined word, in
// any test that reduces a histogram, instead of reading as a zero count.
func Reduce(h *Histogram, cs *ucode.Store) *Report {
	r := &Report{}
	at := func(name string) (uint64, uint64) {
		addr := cs.MustLookup(name)
		return h.Counts[addr], h.Stalls[addr]
	}
	count := func(name string) uint64 { c, _ := at(name); return c }

	r.Instructions = count("decode.ird") + count("decode.ird.folded")
	// Classified cycles exclude marker locations (zero-cycle events used
	// by the DecodeOverlap ablation).
	for _, w := range cs.Words() {
		if w.Class == ucode.ClassMarker {
			continue
		}
		r.Cycles += h.Counts[w.Addr] + h.Stalls[w.Addr]
	}
	instr := float64(r.Instructions)
	if instr == 0 {
		instr = 1 // avoid dividing by zero; all rates become absolute counts
	}

	// ---- Table 8: classify every location by (row, class) -------------
	var memReads, memWrites [ucode.NumRows]uint64
	for _, w := range cs.Words() {
		c := h.Counts[w.Addr]
		s := h.Stalls[w.Addr]
		if c == 0 && s == 0 {
			continue
		}
		col := &r.Timing[w.Row]
		switch w.Class {
		case ucode.ClassCompute, ucode.ClassDispatch:
			col.Compute += float64(c) / instr
		case ucode.ClassRead:
			col.Read += float64(c) / instr
			col.RStall += float64(s) / instr
			memReads[w.Row] += c
		case ucode.ClassWrite:
			col.Write += float64(c) / instr
			col.WStall += float64(s) / instr
			memWrites[w.Row] += c
		case ucode.ClassIBStall:
			col.IBStall += float64(c) / instr
		case ucode.ClassMarker:
			// Event count only; no cycles.
		}
	}
	for row := ucode.Row(0); row < ucode.NumRows; row++ {
		r.TimingTotal.add(r.Timing[row])
	}

	// ---- Table 1: group execution counts from execute-row entry words --
	for _, w := range cs.Words() {
		if g, ok := groupOfRow(w.Row); ok && isEntryWord(w.Name) {
			r.Groups[g] += h.Counts[w.Addr]
		}
	}

	// ---- Table 2: PC-changing classes ----------------------------------
	for class, words := range pcClassWords {
		var st PCClassStat
		for _, n := range words.entries {
			st.Entries += count(n)
		}
		for _, n := range words.taken {
			st.Taken += count(n)
		}
		r.PCClasses[class] = st
		if words.hasDisp {
			r.Spec.BranchDisp += st.Entries
		}
	}
	// BSBB/BSBW carry displacements; JSB/RSB do not.
	r.Spec.BranchDisp += count("exec.br.bsb.entry")

	// ---- Tables 3, 4: specifier dispatch counts ------------------------
	var weightedBytes float64
	for mode := 0; mode < vax.NumAddrModes; mode++ {
		ms := vax.AddrMode(mode).String()
		cat, bytes := categoryOf(vax.AddrMode(mode))
		c1 := count("spec1.disp." + ms)
		c2 := count("spec26.disp." + ms)
		r.Spec.Spec1 += c1
		r.Spec.Spec26 += c2
		r.Spec.ByCategory[cat].Spec1 += c1
		r.Spec.ByCategory[cat].Spec26 += c2
		weightedBytes += bytes * float64(c1+c2)
	}
	r.Spec.Indexed = count("spec26.index") + count("spec1.index")
	// An index prefix adds one byte to the specifier it decorates.
	weightedBytes += float64(r.Spec.Indexed)
	if total := r.Spec.Spec1 + r.Spec.Spec26; total > 0 {
		r.Spec.EstSpecBytes = weightedBytes / float64(total)
	}

	// ---- Table 5: reads/writes per instruction by source ----------------
	addRow := func(label string, rows ...ucode.Row) {
		var rd, wr uint64
		for _, row := range rows {
			rd += memReads[row]
			wr += memWrites[row]
		}
		r.MemOps = append(r.MemOps, MemOpRow{
			Label:  label,
			Reads:  float64(rd) / instr,
			Writes: float64(wr) / instr,
		})
	}
	addRow("Spec1", ucode.RowSpec1)
	addRow("Spec2-6", ucode.RowSpec26)
	addRow("Simple", ucode.RowSimple)
	addRow("Field", ucode.RowField)
	addRow("Float", ucode.RowFloat)
	addRow("Call/Ret", ucode.RowCallRet)
	addRow("System", ucode.RowSystem)
	addRow("Character", ucode.RowCharacter)
	addRow("Decimal", ucode.RowDecimal)
	addRow("Other", ucode.RowDecode, ucode.RowBDisp, ucode.RowIntExcept, ucode.RowMemMgmt, ucode.RowAbort)

	// ---- Table 7: headways ----------------------------------------------
	r.Headway = HeadwayStats{
		SoftIntRequests: count("exec.sys.mtpr.sirr"),
		Interrupts:      count("int.irq.entry"),
		CtxSwitches:     count("exec.sys.ldpctx.entry"),
		Instructions:    r.Instructions,
	}

	// ---- §4.2: TB misses --------------------------------------------------
	r.TBMiss.DStreamMisses = count("mm.tbmiss.d.entry")
	r.TBMiss.IStreamMisses = count("mm.tbmiss.i.entry")
	for _, n := range []string{"mm.tbmiss.d.entry", "mm.tbmiss.i.entry", "mm.tbmiss.work", "mm.tbmiss.read", "mm.tbmiss.done"} {
		c, s := at(n)
		r.TBMiss.ServiceCycles += c + s
	}
	// Count each trap's abort cycle toward the service time, as the paper
	// does (21.6 cycles per miss includes the trap overhead).
	r.TBMiss.ServiceCycles += r.TBMiss.DStreamMisses + r.TBMiss.IStreamMisses
	_, pteStalls := at("mm.tbmiss.read")
	r.TBMiss.PTEReadStalls = pteStalls

	return r
}

// isEntryWord reports whether a location name marks the once-per-
// instruction entry of an execute routine.
func isEntryWord(name string) bool {
	const suffix = ".entry"
	return len(name) > len(suffix) && name[len(name)-len(suffix):] == suffix
}
