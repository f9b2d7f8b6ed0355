package cpu

import (
	"fmt"
	"math/bits"

	"vax780/internal/vax"
)

// pswIV is the integer overflow trap enable bit of the PSW.
const pswIV = uint32(1) << 5

// arithIntOvf is the arithmetic-trap type code for integer overflow.
const arithIntOvf = 1

// execFn is the execute-phase microroutine of one opcode.
type execFn func(m *Machine)

var execTable [256]execFn

// register attaches the execute microroutine of one opcode. A second
// registration of an opcode panics at package init;
// TestSemanticsEveryRegisteredOpcodeHasExec holds the table and the
// handlers to the same set of opcodes.
func register(op vax.Opcode, fn execFn) {
	if execTable[op] != nil {
		name := fmt.Sprintf("opcode %#02x", uint8(op))
		if info := vax.Lookup(op); info != nil {
			name = info.Name
		}
		panic("cpu: duplicate exec registration for " + name)
	}
	execTable[op] = fn
}

// RegisteredOpcodes returns the opcodes with an execute microroutine, in
// ascending code order. The measured latency table (cmd/vaxlat,
// DESIGN.md §16) sweeps exactly this set, so the committed latency.json
// covers every entry and nothing else.
func RegisteredOpcodes() []vax.Opcode {
	var ops []vax.Opcode
	for code := 0; code < len(execTable); code++ {
		if execTable[code] != nil {
			ops = append(ops, vax.Opcode(code))
		}
	}
	return ops
}

// StepInstruction runs one complete VAX instruction: interrupt check,
// decode (one non-overlapped cycle), specifier processing, execute phase.
func (m *Machine) StepInstruction() {
	if m.halted || m.runErr != nil {
		return
	}
	m.instAborted = false
	// Machine checks outrank interrupts: drain the subsystem error latches
	// and deliver a pending check before anything else this boundary.
	m.pollMachineChecks()
	if m.mcPending {
		m.deliverMachineCheck()
		if m.halted || m.runErr != nil {
			return
		}
	}
	m.checkInterrupts()
	if m.halted || m.runErr != nil {
		return
	}
	m.instPC = m.ib.cur()

	// IRD: the first I-Decode of an instruction cannot overlap the
	// previous instruction, costing one EBOX cycle (§2.1). The
	// DecodeOverlap ablation models the 11/750's folding of this cycle
	// into the previous instruction when that instruction did not change
	// the PC (§5).
	if !m.ibWait(1, uw.irdStall) {
		return
	}
	// A decode memo hit knows the instruction's bytes and decode, so no
	// I-stream byte is read again; a miss decodes byte by byte and, once
	// every specifier is in, fills the slot.
	slot, pa, hit := m.dmFind()
	var opc byte
	if hit {
		opc = byte(slot.code[0])
		m.ib.skip(1)
	} else {
		opc = m.ib.consume(1)[0]
	}
	if !(m.cfg.DecodeOverlap && !m.lastPCChange) {
		m.tick(uw.ird)
	} else {
		// Folded into the previous instruction: counted for instruction
		// accounting at a marker location, but no cycle is spent.
		m.tickFree(uw.irdFolded)
	}
	info := vax.Lookup(vax.Opcode(opc))
	if info == nil {
		m.deliverException(SCBReservedOp, nil)
		return
	}
	m.instr = info
	m.nops = len(info.Specs)
	m.lastPCChange = false

	for i, os := range info.Specs {
		var d *dspec
		if hit {
			d = &slot.spec[i]
		}
		m.runSpecifier(i, os, d)
		if m.halted || m.runErr != nil || m.instAborted {
			return
		}
	}
	if slot != nil && !hit {
		m.dmStore(slot, pa)
	}
	fn := execTable[info.Code]
	if fn == nil {
		// No execute routine is an unimplemented opcode: architecturally a
		// reserved-instruction fault, not a simulator stop.
		m.deliverException(SCBReservedOp, nil)
		return
	}
	fn(m)
	// Integer overflow traps at instruction end when the PSW IV bit is
	// set (the architectural arithmetic trap).
	if m.PSL&pswIV != 0 && m.PSL&vax.PSLV != 0 && !m.halted && m.runErr == nil && !m.instAborted {
		m.PSL &^= vax.PSLV
		m.deliverException(SCBArithTrap, []uint32{arithIntOvf})
	}
	// Production microcode carries patches: a patched location costs one
	// extra Abort-row cycle when crossed (§5).
	if m.cfg.PatchEvery > 0 {
		m.patchCtr++
		if m.patchCtr >= m.cfg.PatchEvery {
			m.patchCtr = 0
			m.tick(uw.abort)
		}
	}
	m.instret++
	m.wdLastRetire = m.cycle
}

// tickFree counts an execution without spending a cycle (used only by the
// DecodeOverlap ablation so instruction counting via the IRD location
// still works).
func (m *Machine) tickFree(w uint16) {
	if m.probe != nil && m.gate {
		m.probe.Count(w, 1)
	}
}

// ---------------------------------------------------------------------------
// Branch displacement handling.

func (m *Machine) dispSize() int {
	if m.instr.BranchDisp == vax.TypeWord {
		return 2
	}
	return 1
}

// takeDisp consumes the branch displacement with the one-cycle B-DISP
// target calculation and returns the branch target. It reports false,
// having consumed nothing, if the instruction aborted while waiting.
func (m *Machine) takeDisp() (uint32, bool) {
	n := m.dispSize()
	if !m.ibWait(n, uw.bdispStall) {
		return 0, false
	}
	b := m.ib.consume(n)
	var disp int32
	if n == 1 {
		disp = int32(int8(b[0]))
	} else {
		disp = int32(int16(uint16(b[0]) | uint16(b[1])<<8))
	}
	target := m.ib.cur() + uint32(disp)
	m.tick(uw.bdisp)
	return target, true
}

// branchTake consumes the displacement, spends the execute-phase redirect
// cycle at takenWord, and redirects the IB (§5: "an additional cycle is
// consumed in the execute phase to redirect the IB").
func (m *Machine) branchTake(takenWord uint16) {
	if target, ok := m.takeDisp(); ok {
		m.redirect(takenWord, target)
	}
}

// branchSkip passes over the displacement of an untaken branch; the
// hardware consumes the bytes without a dedicated cycle, which is why the
// paper sees fewer B-DISP compute cycles than branch displacements.
func (m *Machine) branchSkip() {
	m.ib.consumeFree(m.dispSize())
}

// redirect spends the execute-phase redirect cycle at w and restarts the
// IB at target (for PC-changing instructions without displacements).
func (m *Machine) redirect(w uint16, target uint32) {
	m.tick(w)
	m.ib.redirect(target)
	m.lastPCChange = true
}

// ---------------------------------------------------------------------------
// Interrupts.

func (m *Machine) checkInterrupts() {
	cur := uint8(m.PSL >> 16 & 0x1F)
	// Device requests, in assertion order.
	for m.nextIRQ < len(m.irqs) && m.irqs[m.nextIRQ].At <= m.cycle {
		q := m.irqs[m.nextIRQ]
		if q.IPL <= cur {
			break // blocked until IPL drops; preserves request order
		}
		// Drop the request, with any delivered ones a snapshot kept, so
		// the queue holds only pending requests, in order.
		m.irqs = m.irqs[:copy(m.irqs, m.irqs[m.nextIRQ+1:])]
		m.nextIRQ = 0
		m.deliverIRQ(q.IPL, q.Vector)
		return
	}
	// Software interrupt summary register.
	sisr := m.ipr[IPRSlotSISR]
	if sisr != 0 {
		lvl := uint8(31 - bits.LeadingZeros32(sisr))
		if lvl > cur {
			m.ipr[IPRSlotSISR] &^= 1 << lvl
			m.deliverIRQ(lvl, uint16(SCBSoftBase+4*int(lvl)))
		}
	}
}

// deliverIRQ runs the interrupt microcode: save PSL/PC on the kernel
// stack, fetch the SCB vector, raise IPL, vector to the handler. All
// cycles land in the Int/Except row.
func (m *Machine) deliverIRQ(lvl uint8, vec uint16) {
	m.tick(uw.irqEntry)
	m.ticks(uw.irqWork, 5)
	savedPSL := m.PSL
	savedPC := m.ib.cur()
	m.setMode(0)
	m.push32(uw.irqPush, savedPSL)
	m.push32(uw.irqPush, savedPC)
	handler := m.readSCB(uw.irqVec, vec)
	m.PSL = m.PSL&^(0x1F<<16) | uint32(lvl)<<16
	m.ticks(uw.irqWork, 4)
	m.ib.redirect(handler)
	m.lastPCChange = true
	m.irqDelivered++
}

// ---------------------------------------------------------------------------
// Exceptions.

// deliverException pushes PSL, PC and any parameters on the kernel stack
// and vectors through the SCB.
func (m *Machine) deliverException(vec int, params []uint32) {
	if m.inExc {
		m.fail("nested exception delivering vector %#x", vec)
		return
	}
	m.inExc = true
	// The flag is cleared on every exit below rather than in a defer: a
	// deferred closure would allocate on each delivery, and pageFault runs
	// on the TB-miss path the paper's Mem Mgmt rows time.
	m.tick(uw.excEntry)
	m.ticks(uw.excWork, 3)
	savedPSL := m.PSL
	savedPC := m.instPC
	m.setMode(0)
	m.push32(uw.excPush, savedPSL)
	m.push32(uw.excPush, savedPC)
	for _, p := range params {
		m.push32(uw.excPush, p)
	}
	handler := m.readSCB(uw.excVec, uint16(vec))
	if m.runErr != nil {
		m.inExc = false
		return
	}
	if handler == 0 {
		m.fail("unhandled exception: SCB vector %#x empty (pc %#x)", vec, savedPC)
		m.inExc = false
		return
	}
	m.ticks(uw.excWork, 2)
	m.ib.redirect(handler)
	m.lastPCChange = true
	m.instAborted = true // skip the remaining phases of the faulted instruction
	m.exceptions++
	m.inExc = false
}

func (m *Machine) pageFault(va uint32) {
	m.deliverException(SCBTransInval, []uint32{va})
}

func (m *Machine) memMgmtFault(va uint32, err error) {
	m.deliverException(SCBAccessViol, []uint32{va})
}

// ---------------------------------------------------------------------------
// Stack and SCB helpers (timed).

func (m *Machine) push32(w uint16, v uint32) {
	m.R[vax.SP] -= 4
	m.dwrite(w, m.R[vax.SP], 4, uint64(v))
}

func (m *Machine) pop32(w uint16) uint32 {
	v := uint32(m.dread(w, m.R[vax.SP], 4))
	m.R[vax.SP] += 4
	return v
}

func (m *Machine) readSCB(w uint16, vec uint16) uint32 {
	scbb := m.ipr[IPRSlotSCBB]
	if scbb == 0 {
		m.fail("SCBB not initialised; cannot vector %#x", vec)
		return 0
	}
	return m.readPhys(w, scbb+uint32(vec))
}
