package cpu

import (
	"fmt"
	"strings"

	"vax780/internal/cache"
	"vax780/internal/mem"
	"vax780/internal/mmu"
	"vax780/internal/tb"
	"vax780/internal/vax"
)

// Checkpoint support: the complete run state of a machine, exportable at
// an instruction boundary and importable into a machine built with the
// same Config. The snapshot deliberately excludes:
//
//   - configuration (the resume path rebuilds the machine from the
//     checkpoint's recorded Config before importing);
//   - attachments — probe, fault plane, OnInstruction — which the resume
//     path re-attaches;
//   - per-instruction transients (decoded operands, the current OpInfo),
//     which are dead at the boundary where checkpoints are taken;
//   - the sticky error state: a stopped machine cannot be checkpointed.
//
// The round-trip test in internal/checkpoint perturbs every field of this
// struct, imports it into a fresh machine, and requires every Machine
// field outside an explicit exemption table to change, so a new field
// cannot be silently dropped from the snapshot.

// IBState is the serialized state of the I-Fetch unit.
type IBState struct {
	Ptr           uint32
	Valid         int
	FillPending   bool
	FillDone      uint64
	FillBytes     int
	TBMissPending bool
	TBMissVA      uint32
	Advanced      uint64
	Stats         IBStats
}

// State is the complete serialized run state of a Machine.
type State struct {
	// Architectural state.
	R   [16]uint32
	PSL uint32
	IPR [iprCount]uint32
	MMU mmu.Registers

	// Microarchitectural state.
	IB           IBState
	Cycle        uint64
	Instret      uint64
	UPC          uint16
	Gate         bool
	IRQs         []IRQ
	NextIRQ      int
	LastPCChange bool
	PatchCtr     int
	WDLastRetire uint64

	// Machine-check latch.
	MCPending bool
	MCActive  bool
	MCCause   MCCause
	MCInfo    uint32

	// Hardware event counters.
	HW HWCounters

	// Memory subsystem.
	Mem   mem.MemoryState
	SBI   mem.SBIState
	WB    mem.WriteBufferState
	Cache cache.State
	TB    tb.State
}

// ExportState captures the machine's complete run state into a new
// State; see ExportStateInto.
func (m *Machine) ExportState() (State, error) {
	var st State
	err := m.ExportStateInto(&st)
	return st, err
}

// ExportStateInto captures the machine's complete run state into st,
// overwriting every field and reusing the storage of its interrupt queue
// and memory image, so a caller that keeps one State for a run's
// checkpoints copies the image without allocating it again. It must be
// called at an instruction boundary (between Run/StepInstruction calls)
// on a machine that is still running: a halted or failed machine has no
// resumable state and is refused, with st left as it was.
func (m *Machine) ExportStateInto(st *State) error {
	if m.runErr != nil {
		return fmt.Errorf("cpu: cannot checkpoint a failed machine: %w", m.runErr)
	}
	if m.halted {
		return fmt.Errorf("cpu: cannot checkpoint a halted machine (%v)", m.haltReason)
	}
	irqs, memSt := st.IRQs, st.Mem
	*st = State{
		R:   m.R,
		PSL: m.PSL,
		IPR: m.ipr,
		MMU: m.MMU,
		IB: IBState{
			Ptr:           m.ib.ptr,
			Valid:         m.ib.valid,
			FillPending:   m.ib.fillPending,
			FillDone:      m.ib.fillDone,
			FillBytes:     m.ib.fillBytes,
			TBMissPending: m.ib.tbMissPending,
			TBMissVA:      m.ib.tbMissVA,
			Advanced:      m.ib.advanced,
			Stats:         m.ib.stats,
		},
		Cycle:        m.cycle,
		Instret:      m.instret,
		UPC:          m.upc,
		Gate:         m.gate,
		IRQs:         append(irqs[:0], m.irqs...),
		NextIRQ:      m.nextIRQ,
		LastPCChange: m.lastPCChange,
		PatchCtr:     m.patchCtr,
		WDLastRetire: m.wdLastRetire,
		MCPending:    m.mcPending,
		MCActive:     m.mcActive,
		MCCause:      m.pendMC.cause,
		MCInfo:       m.pendMC.info,
		HW:           m.HW(),
		Mem:          memSt,
		SBI:          m.SBI.ExportState(),
		WB:           m.WB.ExportState(),
		Cache:        m.Cache.ExportState(),
		TB:           m.TLB.ExportState(),
	}
	m.Mem.ExportStateInto(&st.Mem)
	return nil
}

// ImportState restores a captured state into a machine built with the
// same Config as the one the state was exported from. Attachments
// (probe, fault plane, OnInstruction) are untouched; re-attach them
// before or after importing as needed.
func (m *Machine) ImportState(st State) error {
	if err := m.Mem.ImportState(st.Mem); err != nil {
		return err
	}
	if err := m.WB.ImportState(st.WB); err != nil {
		return err
	}
	if err := m.Cache.ImportState(st.Cache); err != nil {
		return err
	}
	m.SBI.ImportState(st.SBI)
	m.TLB.ImportState(st.TB)

	m.R = st.R
	m.PSL = st.PSL
	m.ipr = st.IPR
	m.MMU = st.MMU
	m.ib.ptr = st.IB.Ptr
	m.ib.valid = st.IB.Valid
	m.ib.fillPending = st.IB.FillPending
	m.ib.fillDone = st.IB.FillDone
	m.ib.fillBytes = st.IB.FillBytes
	m.ib.tbMissPending = st.IB.TBMissPending
	m.ib.tbMissVA = st.IB.TBMissVA
	m.ib.advanced = st.IB.Advanced
	m.ib.stats = st.IB.Stats
	m.cycle = st.Cycle
	m.instret = st.Instret
	m.upc = st.UPC
	m.gate = st.Gate
	m.irqs = append([]IRQ(nil), st.IRQs...)
	m.nextIRQ = st.NextIRQ
	m.lastPCChange = st.LastPCChange
	m.patchCtr = st.PatchCtr
	m.wdLastRetire = st.WDLastRetire
	m.pendMC = pendingMC{cause: st.MCCause, info: st.MCInfo}
	m.mcPending = st.MCPending
	m.mcActive = st.MCActive
	m.unaligned = st.HW.Unaligned
	m.sirrRequests = st.HW.SIRRRequests
	m.irqDelivered = st.HW.Interrupts
	m.exceptions = st.HW.Exceptions
	m.ctxSwitches = st.HW.CtxSwitches
	m.machineChecks = st.HW.MachineChecks
	m.mcLost = st.HW.MachineChecksLost
	m.mcByCause = st.HW.MachineChecksByCause

	// A snapshot is only taken from a running machine.
	m.halted = false
	m.haltReason = HaltNone
	m.runErr = nil
	m.inExc = false
	m.instAborted = false
	return nil
}

// StateDump renders a diagnostic summary of the machine — registers,
// PSL, µPC, cycle counts and pending machine-check state — for
// watchdog reports and post-mortem messages.
func (m *Machine) StateDump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "µpc=%#04x cycle=%d instret=%d pc=%#08x psl=%#08x mode=%d ipl=%d\n",
		m.upc, m.cycle, m.instret, m.ib.cur(), m.PSL, m.CurrentMode(), m.PSL>>16&0x1F)
	for i := 0; i < 16; i += 4 {
		for j := i; j < i+4; j++ {
			fmt.Fprintf(&b, "  %-3s=%#08x", vax.Reg(j).String(), m.R[j])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  ib: ptr=%#08x valid=%d fill=%v tbmiss=%v",
		m.ib.ptr, m.ib.valid, m.ib.fillPending, m.ib.tbMissPending)
	if m.mcPending || m.mcActive {
		fmt.Fprintf(&b, "\n  mcheck: pending=%v active=%v cause=%v info=%#x",
			m.mcPending, m.mcActive, m.pendMC.cause, m.pendMC.info)
	}
	return b.String()
}
