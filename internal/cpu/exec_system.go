package cpu

import "vax780/internal/vax"

// Execute-phase microroutines for the SYSTEM group: change-mode system
// service requests, REI, context switching, queue manipulation, protection
// probes and privileged register access.

// PCB layout used by SVPCTX/LDPCTX (longword offsets from PCBB, physical).
// A simplified but complete process context.
const (
	pcbKSP  = 0  // kernel stack pointer
	pcbUSP  = 1  // user stack pointer
	pcbR0   = 2  // R0..R11 in 2..13
	pcbAP   = 14 //
	pcbFP   = 15 //
	pcbPC   = 16 //
	pcbPSL  = 17 //
	pcbP0BR = 18 //
	pcbP0LR = 19 //
	pcbP1BR = 20 //
	pcbP1LR = 21 //
	// PCBSize is the PCB length in longwords.
	PCBSize = 22
)

// PCBOffset returns the byte offset of a PCB slot (for OS code building
// process control blocks).
func PCBOffset(slot int) uint32 { return uint32(4 * slot) }

func init() {
	// CHMK/CHME code.rw: change mode to kernel/executive; the system
	// service request mechanism (Table 1: "sys. serv. requests").
	chm := func(vec int) execFn {
		return func(m *Machine) {
			m.tick(uw.chmEntry)
			m.ticks(uw.chmWork, 8)
			code := uint32(int32(int16(uint16(m.opVal(0)))))
			savedPSL := m.PSL
			savedPC := m.ib.cur()
			prevMode := m.CurrentMode()
			m.setMode(0)
			m.push32(uw.chmPush, savedPSL)
			m.push32(uw.chmPush, savedPC)
			m.push32(uw.chmPush, code)
			handler := m.readSCB(uw.chmVec, uint16(vec))
			m.PSL = m.PSL&^(3<<22) | prevMode<<22
			m.ticks(uw.chmWork, 5)
			m.redirect(uw.chmTaken, handler)
		}
	}
	register(vax.CHMK, chm(SCBCHMK))
	register(vax.CHME, chm(SCBCHME))

	// REI: return from exception or interrupt.
	register(vax.REI, func(m *Machine) {
		m.tick(uw.reiEntry)
		m.ticks(uw.reiWork, 5)
		pc := m.pop32(uw.reiPop)
		m.ticks(uw.reiWork, 2)
		psl := m.pop32(uw.reiPop)
		m.ticks(uw.reiWork, 5)
		m.setMode(psl >> 24 & 3)
		m.PSL = psl
		// Returning re-opens the machine-check latch: the handler is done
		// (or an outer context resumed), so a new syndrome may be taken.
		m.mcActive = false
		m.redirect(uw.reiTaken, pc)
	})

	// SVPCTX: save process context into the PCB (run in kernel mode after
	// an interrupt: pops the interrupt PC/PSL pair into the PCB).
	register(vax.SVPCTX, func(m *Machine) {
		m.tick(uw.svpctxEntry)
		m.ticks(uw.svpctxWork, 3)
		pcb := m.ipr[IPRSlotPCBB]
		pc := uint32(m.dread(uw.svpctxRead, m.R[vax.SP], 4))
		psl := uint32(m.dread(uw.svpctxRead, m.R[vax.SP]+4, 4))
		m.R[vax.SP] += 8
		store := func(slot int, v uint32) {
			m.tick(uw.svpctxWork)
			m.cacheWriteRef(uw.svpctxStore, pcb+PCBOffset(slot))
			m.Mem.WriteLong(pcb+PCBOffset(slot), v)
		}
		store(pcbKSP, m.R[vax.SP])
		store(pcbUSP, m.ipr[IPRSlotUSP])
		for r := 0; r < 12; r++ {
			store(pcbR0+r, m.R[r])
		}
		store(pcbAP, m.R[vax.AP])
		store(pcbFP, m.R[vax.FP])
		store(pcbPC, pc)
		store(pcbPSL, psl)
		m.ticks(uw.svpctxWork, 2)
	})

	// LDPCTX: load process context from the PCB, flush the process half of
	// the TB, and push the saved PC/PSL for the REI that resumes the
	// process. This is the context-switch event of Table 7.
	register(vax.LDPCTX, func(m *Machine) {
		m.tick(uw.ldpctxEntry)
		m.ticks(uw.ldpctxWork, 3)
		pcb := m.ipr[IPRSlotPCBB]
		load := func(slot int) uint32 {
			// The PCB is addressed physically (PCBB is a physical address).
			return m.readPhys(uw.ldpctxLoad, pcb+PCBOffset(slot))
		}
		ksp := load(pcbKSP)
		m.ipr[IPRSlotUSP] = load(pcbUSP)
		for r := 0; r < 12; r++ {
			m.R[r] = load(pcbR0 + r)
		}
		m.R[vax.AP] = load(pcbAP)
		m.R[vax.FP] = load(pcbFP)
		pc := load(pcbPC)
		psl := load(pcbPSL)
		m.MMU.P0BR = load(pcbP0BR)
		m.MMU.P0LR = load(pcbP0LR)
		m.MMU.P1BR = load(pcbP1BR)
		m.MMU.P1LR = load(pcbP1LR)
		if !m.cfg.NoTBFlushOnSwitch {
			m.TLB.FlushProcess()
		}
		m.ticks(uw.ldpctxWork, 4)
		m.R[vax.SP] = ksp
		m.push32(uw.ldpctxPush, psl)
		m.push32(uw.ldpctxPush, pc)
		m.ctxSwitches++
	})

	// INSQUE entry.ab, pred.ab: insert into a doubly-linked queue.
	register(vax.INSQUE, func(m *Machine) {
		m.tick(uw.queueEntry)
		m.ticks(uw.queueWork, 6)
		entry := m.opAddr(0)
		pred := m.opAddr(1)
		succ := uint32(m.dread(uw.queueRead, pred, 4))
		m.dwrite(uw.queueWrite, entry, 4, uint64(succ))
		m.tick(uw.queueWork)
		m.dwrite(uw.queueWrite, entry+4, 4, uint64(pred))
		m.dwrite(uw.queueWrite, pred, 4, uint64(entry))
		m.tick(uw.queueWork)
		m.dwrite(uw.queueWrite, succ+4, 4, uint64(entry))
		// Z set when the queue was empty before insertion.
		m.setCC(false, succ == pred, false, false)
	})

	// REMQUE entry.ab, addr.wl: remove from a doubly-linked queue.
	register(vax.REMQUE, func(m *Machine) {
		m.tick(uw.queueEntry)
		m.ticks(uw.queueWork, 6)
		entry := m.opAddr(0)
		succ := uint32(m.dread(uw.queueRead, entry, 4))
		pred := uint32(m.dread(uw.queueRead, entry+4, 4))
		m.dwrite(uw.queueWrite, pred, 4, uint64(succ))
		m.tick(uw.queueWork)
		m.dwrite(uw.queueWrite, succ+4, 4, uint64(pred))
		m.storeResult(1, uint64(entry))
		// V set when the queue was already empty (entry linked to itself).
		m.setCC(false, succ == pred, entry == pred, false)
	})

	// PROBER/PROBEW mode.rb, len.rw, base.ab: accessibility probes.
	probe := func(m *Machine) {
		m.tick(uw.probeEntry)
		m.ticks(uw.probeWork, 10)
		base := m.opAddr(2)
		length := uint32(uint16(m.opVal(1)))
		ok := true
		for _, va := range []uint32{base, base + length - 1} {
			if _, err := m.translate(va); err != nil {
				ok = false
			}
		}
		// Z set when NOT accessible? Architecture: Z set when accessible
		// check fails; condition code Z <- NOT accessible.
		m.setCC(false, !ok, false, false)
	}
	register(vax.PROBER, probe)
	register(vax.PROBEW, probe)

	// MTPR src.rl, procreg.rl
	register(vax.MTPR, func(m *Machine) {
		m.tick(uw.mtprEntry)
		m.ticks(uw.mtprWork, 4)
		if m.CurrentMode() != 0 {
			m.deliverException(SCBReservedOp, nil)
			return
		}
		reg := uint32(m.opVal(1))
		if reg == PRSIRR {
			m.tick(uw.mtprSIRR)
		}
		m.prWrite(reg, uint32(m.opVal(0)))
	})

	// MFPR procreg.rl, dst.wl
	register(vax.MFPR, func(m *Machine) {
		m.tick(uw.mfprEntry)
		m.tick(uw.mtprWork)
		if m.CurrentMode() != 0 {
			m.deliverException(SCBReservedOp, nil)
			return
		}
		v := m.prRead(uint32(m.opVal(0)))
		m.storeResult(1, uint64(v))
	})

	// BISPSW/BICPSW mask.rw
	register(vax.BISPSW, func(m *Machine) {
		m.tick(uw.pswEntry)
		m.PSL |= uint32(uint16(m.opVal(0))) & 0xFF
	})
	register(vax.BICPSW, func(m *Machine) {
		m.tick(uw.pswEntry)
		m.PSL &^= uint32(uint16(m.opVal(0))) & 0xFF
	})

	// HALT: kernel mode stops the machine; user mode faults.
	register(vax.HALT, func(m *Machine) {
		m.tick(uw.haltEntry)
		if m.CurrentMode() != 0 {
			m.deliverException(SCBReservedOp, nil)
			return
		}
		m.halted = true
		m.haltReason = HaltInstruction
	})

	// BPT: breakpoint fault.
	register(vax.BPT, func(m *Machine) {
		m.tick(uw.haltEntry)
		m.deliverException(SCBReservedOp, nil)
	})
}
