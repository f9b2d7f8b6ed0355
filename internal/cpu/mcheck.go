package cpu

import (
	"vax780/internal/fault"
	"vax780/internal/mem"
)

// Machine checks: the 780's report path for hardware errors — cache and
// TB parity, SBI faults, memory RDS, control-store parity. The subsystem
// that detects the error latches a syndrome; the microcode polls the
// latches at the next instruction boundary, pushes a machine-check frame
// on the kernel stack, raises IPL to 31 and vectors through SCB offset
// 0x04. The kernel decides the policy: retry (REI — safe here because
// the check is delivered between instructions), log, or crash.
//
// The frame, built upward from the final SP:
//
//	0(SP)  byte count of the parameters below (8)
//	4(SP)  info  — the failing physical/virtual address or µPC
//	8(SP)  cause — an MCCause code
//	12(SP) PC    — the next instruction (the retry address)
//	16(SP) PSL
//
// A real 780 frame is longer (it dumps internal registers); the shape —
// count on top, parameters, PC, PSL — matches, which is what the kernel
// handler depends on.

// MCCause is the machine-check cause code pushed in the frame. The vmos
// kernel indexes its per-cause log table with it, so values must stay
// dense and below mcCauseSlots.
type MCCause uint32

const (
	MCMemRange    MCCause = iota // physical reference to nonexistent memory
	MCMemRDS                     // uncorrectable memory array error
	MCCacheParity                // cache tag/data parity error
	MCTBParity                   // translation-buffer parity error
	MCSBITimeout                 // SBI transaction timeout
	MCCSParity                   // microcode control-store parity error
	NumMCCauses
)

// mcCauseSlots is the size of the kernel's per-cause table (longwords);
// kept a power of two above NumMCCauses so the frame's cause can index it
// without bounds logic in assembly.
const mcCauseSlots = 8

func (c MCCause) String() string {
	switch c {
	case MCMemRange:
		return "nonexistent memory"
	case MCMemRDS:
		return "memory RDS"
	case MCCacheParity:
		return "cache parity"
	case MCTBParity:
		return "TB parity"
	case MCSBITimeout:
		return "SBI timeout"
	case MCCSParity:
		return "control-store parity"
	}
	return "unknown machine-check cause"
}

// pendingMC is a latched machine check awaiting delivery.
type pendingMC struct {
	cause MCCause
	info  uint32
}

// AttachFaultPlane wires a fault-injection plane into every injection
// point of the machine (nil detaches them all). See internal/fault.
func (m *Machine) AttachFaultPlane(p *fault.Plane) {
	m.Mem.SetInjector(p.Sampler(fault.MemRDS))
	m.Cache.SetInjector(p.Sampler(fault.CacheParity))
	m.TLB.SetInjector(p.Sampler(fault.TBParity))
	m.SBI.SetInjector(p.Sampler(fault.SBITimeout))
	m.csSample = p.Sampler(fault.CSParity)
}

// pollMachineChecks drains the subsystem error latches and the
// control-store parity sampler, pending at most one machine check.
// Called at every instruction boundary.
func (m *Machine) pollMachineChecks() {
	if m.csSample != nil && m.csSample() {
		m.pendMachineCheck(MCCSParity, uint32(m.upc))
	}
	if f, ok := m.Mem.TakeFault(); ok {
		cause := MCMemRange
		if f.Kind == mem.FaultRDS {
			cause = MCMemRDS
		}
		m.pendMachineCheck(cause, f.Addr)
	}
	if pa, ok := m.Cache.TakeFault(); ok {
		m.pendMachineCheck(MCCacheParity, pa)
	}
	if va, ok := m.TLB.TakeFault(); ok {
		m.pendMachineCheck(MCTBParity, va)
	}
	if cyc, ok := m.SBI.TakeFault(); ok {
		m.pendMachineCheck(MCSBITimeout, uint32(cyc))
	}
}

// pendMachineCheck latches one machine check for delivery at the next
// instruction boundary. The latch holds a single syndrome: errors
// arriving while one is pending or being handled are counted as lost,
// not stacked — the hardware's lost-error behaviour, and what keeps an
// error burst from nesting machine checks inside their own handler.
func (m *Machine) pendMachineCheck(cause MCCause, info uint32) {
	if m.mcActive || m.mcPending {
		m.mcLost++
		return
	}
	m.pendMC = pendingMC{cause: cause, info: info}
	m.mcPending = true
}

// deliverMachineCheck runs the machine-check microcode: build the frame
// on the kernel stack, raise IPL to 31, vector through the SCB. All
// cycles land in the Int/Except row. An empty or unreachable vector is
// the unrecoverable case and halts with a structured error.
func (m *Machine) deliverMachineCheck() {
	mc := m.pendMC
	m.mcPending = false
	m.mcActive = true
	m.machineChecks++
	m.mcByCause[mc.cause]++

	m.tick(uw.mcEntry)
	m.ticks(uw.mcWork, 4)
	savedPSL := m.PSL
	savedPC := m.ib.cur() // boundary delivery: the next instruction, i.e. the retry address
	m.setMode(0)
	m.push32(uw.mcPush, savedPSL)
	m.push32(uw.mcPush, savedPC)
	m.push32(uw.mcPush, uint32(mc.cause))
	m.push32(uw.mcPush, mc.info)
	m.push32(uw.mcPush, 8) // byte count of {info, cause}
	handler := m.readSCB(uw.mcVec, uint16(SCBMachineChk))
	if m.runErr != nil {
		return
	}
	if handler == 0 {
		m.fail("machine check (%v, info %#x) with no SCB handler", mc.cause, mc.info)
		return
	}
	m.PSL = m.PSL&^(0x1F<<16) | 31<<16
	m.ticks(uw.mcWork, 2)
	m.ib.redirect(handler)
	m.lastPCChange = true
}
