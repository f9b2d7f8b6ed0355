// Package vmos is a miniature VMS-like timesharing kernel for the modelled
// VAX-11/780 — the substrate the paper's measurements run on. It provides:
//
//   - virtual memory: an identity-mapped system region and per-process P0
//     spaces with real page tables walked by the TB-miss microcode;
//   - a round-robin scheduler driven by the interval clock through a
//     software interrupt, context-switching with SVPCTX/LDPCTX (the Table 7
//     events);
//   - CHMK system services (yield, terminal read/write, get-time) whose
//     kernel-mode work contributes the operating-system component of the
//     measurements, as the paper stresses;
//   - a terminal device fed by the Remote Terminal Emulator in
//     internal/workload;
//   - the VMS null process ("branch to self, awaiting an interrupt"),
//     excluded from measurement via the monitor gate exactly as in §2.2.
//
// The kernel itself is written in VAX assembly (internal/asm) and executed
// by the simulated processor, so kernel time is measured by the µPC
// monitor like any other time.
package vmos

import (
	"fmt"
	"slices"

	"vax780/internal/asm"
	"vax780/internal/cpu"
	"vax780/internal/mmu"
	"vax780/internal/vax"
)

// Service codes for the CHMK interface.
const (
	SvcYield     = 0 // give up the processor (requests a reschedule)
	SvcTermRead  = 1 // read a line from the terminal: R2 = buffer, R3 = length
	SvcTermWrite = 2 // write a line to the terminal: R2 = buffer, R3 = length
	SvcGetTime   = 3 // R1 <- clock ticks
	SvcDiskIO    = 4 // queue an asynchronous disk transfer
)

// Config sets up a system.
type Config struct {
	Machine cpu.Config
	// ClockInterval is the interval-timer period in cycles (default
	// 50,000 = 10 ms at the 200 ns cycle).
	ClockInterval uint64
	// ReschedTicks requests a reschedule every N clock ticks (default 1).
	ReschedTicks uint32
	// DiskLatency is the cycles from a disk request (CHMK SvcDiskIO) to
	// its completion interrupt (default 3000 = 600 µs).
	DiskLatency uint64
	// IncludeNull creates the null process (default on via NewSystem).
	IncludeNull bool
	// NullInRotation schedules the null process like any other (off by
	// default: the measured machines were busy, and VMS only ran the null
	// process when nothing else was runnable; our synthetic processes are
	// always runnable).
	NullInRotation bool
	// MaxProcesses bounds the process table (default 16).
	MaxProcesses int
}

// Process is one timesharing process.
type Process struct {
	PID     int
	Name    string
	PCB     uint32 // physical PCB address
	P0Table uint32 // physical address of the P0 page table
	Base    uint32 // physical base of the contiguous P0 backing
	Pages   uint32 // P0 pages mapped
	Null    bool
}

// System is a booted machine plus its kernel.
type System struct {
	cfg  Config
	m    *cpu.Machine
	kern *asm.Image

	procs     []*Process
	nullPCB   uint32
	nextFrame uint32

	nextClock  uint64
	termEvents []uint64 // cycle numbers of terminal interrupts (sorted)
	termNext   int
	diskSeen   uint32   // disk requests already scheduled
	diskDue    []uint64 // pending disk completion times

	// Per-process CPU accounting (by resident PCB between instructions).
	// charged and cpuTime are parallel: the PCBs charged so far, in the
	// order of their first charge, and the cycles charged to each.
	lastCycle uint64
	lastPCB   uint32
	charged   []uint32
	cpuTime   []uint64
	cur       int    // index of lastPCB in charged, or -1 until the next charge looks it up
	diskReq   uint32 // physical address of the kernel's diskreq counter

	booted bool
}

// Physical memory layout constants.
const (
	scbPhys    = 0x00000200 // system control block
	sysPTPhys  = 0x00004000 // system page table (16 KB -> maps 2 MB of S0)
	sysPTSlots = 4096
	kernPhys   = 0x00010000 // kernel image
	firstFree  = 0x00030000 // frame allocator start
	kstackSize = 4 * mmu.PageSize
	ustackSize = 8 * mmu.PageSize
)

// S0Base is the base virtual address of system space.
const S0Base = 0x80000000

// NewSystem builds (but does not boot) a system.
func NewSystem(cfg Config) *System {
	if cfg.ClockInterval == 0 {
		cfg.ClockInterval = 50_000
	}
	if cfg.ReschedTicks == 0 {
		cfg.ReschedTicks = 1
	}
	if cfg.DiskLatency == 0 {
		cfg.DiskLatency = 3000
	}
	if cfg.MaxProcesses == 0 {
		cfg.MaxProcesses = 16
	}
	s := &System{cfg: cfg, nextFrame: firstFree / mmu.PageSize}
	s.m = cpu.New(cfg.Machine)
	return s
}

// Machine returns the underlying machine.
func (s *System) Machine() *cpu.Machine { return s.m }

// Processes returns the process table.
func (s *System) Processes() []*Process { return s.procs }

// allocFrames takes n contiguous physical frames, or reports that the
// configured physical memory is exhausted.
func (s *System) allocFrames(n uint32) (uint32, error) {
	pa := s.nextFrame * mmu.PageSize
	if (s.nextFrame+n)*mmu.PageSize > s.m.Mem.Size() {
		return 0, fmt.Errorf("vmos: out of physical memory (%d frames requested, %d bytes configured)",
			n, s.m.Mem.Size())
	}
	s.nextFrame += n
	return pa, nil
}

// AddProcess creates a process from a user image assembled into P0 space.
// The image org must be page-aligned or leave room below it in page 0.
func (s *System) AddProcess(name string, im *asm.Image) (*Process, error) {
	if s.booted {
		return nil, fmt.Errorf("vmos: cannot add processes after boot")
	}
	if len(s.procs) >= s.cfg.MaxProcesses {
		return nil, fmt.Errorf("vmos: process table full")
	}
	progPages := (im.Org + uint32(len(im.Bytes)) + 4*mmu.PageSize + mmu.PageSize - 1) / mmu.PageSize
	stackPages := uint32(ustackSize / mmu.PageSize)
	totalPages := progPages + stackPages

	// Physical backing.
	base, err := s.allocFrames(totalPages)
	if err != nil {
		return nil, err
	}
	// P0 page table (in physical memory; referenced through S0).
	ptPages := (totalPages*4 + mmu.PageSize - 1) / mmu.PageSize
	pt, err := s.allocFrames(ptPages)
	if err != nil {
		return nil, err
	}
	for j := uint32(0); j < totalPages; j++ {
		s.m.Mem.WriteLong(pt+4*j, mmu.MakePTE(base/mmu.PageSize+j, mmu.ProtUW))
	}
	// Load the program.
	s.m.Mem.Load(base+im.Org, im.Bytes)

	// PCB.
	pcb, err := s.allocFrames(1)
	if err != nil {
		return nil, err
	}
	kstack, err := s.allocFrames(kstackSize / mmu.PageSize)
	if err != nil {
		return nil, err
	}
	kstackTop := S0Base + kstack + kstackSize
	ustackTop := totalPages * mmu.PageSize

	w := func(slot int, v uint32) { s.m.Mem.WriteLong(pcb+cpu.PCBOffset(slot), v) }
	w(0, kstackTop)    // KSP
	w(1, ustackTop)    // USP
	w(16, im.Org)      // PC = image org (entry point)
	w(17, 3<<24|3<<22) // PSL: user mode, previous user
	w(18, S0Base+pt)   // P0BR (system virtual address)
	w(19, totalPages)  // P0LR
	w(20, S0Base+pt)   // P1BR (unused; valid value required)
	w(21, 0)           // P1LR

	p := &Process{
		PID:     len(s.procs),
		Name:    name,
		PCB:     pcb,
		P0Table: pt,
		Base:    base,
		Pages:   totalPages,
	}
	s.procs = append(s.procs, p)
	return p, nil
}

// addNullProcess installs the VMS null process: branch-to-self in its own
// tiny address space.
func (s *System) addNullProcess() error {
	b := asm.NewBuilder(0x200)
	b.Label("self")
	b.Br("BRB", "self")
	im, err := b.Finish()
	if err != nil {
		return err
	}
	p, err := s.AddProcess("NULL", im)
	if err != nil {
		return err
	}
	p.Null = true
	s.nullPCB = p.PCB
	return nil
}

// QueueTerminalEvents schedules terminal interrupts at the given cycle
// numbers (must be sorted ascending). The RTE uses this to emulate users.
func (s *System) QueueTerminalEvents(cycles []uint64) {
	s.termEvents = append(s.termEvents, cycles...)
}

// Boot assembles the kernel, builds the system page table and SCB, and
// arranges for the first process to run.
func (s *System) Boot() error {
	if s.booted {
		return fmt.Errorf("vmos: already booted")
	}
	if s.cfg.IncludeNull {
		if err := s.addNullProcess(); err != nil {
			return err
		}
	}
	if len(s.procs) == 0 {
		return fmt.Errorf("vmos: no processes")
	}

	// System page table: identity-map S0 page i -> frame i, covering all
	// physical memory the allocator can hand out.
	slots := s.m.Mem.Size() / mmu.PageSize
	if slots > sysPTSlots {
		slots = sysPTSlots
	}
	for i := uint32(0); i < slots; i++ {
		s.m.Mem.WriteLong(sysPTPhys+4*i, mmu.MakePTE(i, mmu.ProtKW))
	}

	// Kernel.
	kern, err := assembleKernel(S0Base+kernPhys, s.kernelSource())
	if err != nil {
		return fmt.Errorf("vmos: kernel assembly: %w", err)
	}
	s.kern = kern
	s.m.Mem.Load(kernPhys, kern.Bytes)

	// Kernel data: process rotation table (the null process only joins
	// the rotation when explicitly requested).
	tab := kern.MustAddr("pcbtab") - kern.Org
	n := 0
	for _, p := range s.procs {
		if p.Null && !s.cfg.NullInRotation {
			continue
		}
		s.m.Mem.WriteLong(kernPhys+tab+uint32(4*n), p.PCB)
		n++
	}
	s.m.Mem.WriteLong(kernPhys+kern.MustAddr("nproc")-kern.Org, uint32(n))

	// SCB vectors.
	vec := func(off int, label string) {
		s.m.Mem.WriteLong(scbPhys+uint32(off), kern.MustAddr(label))
	}
	vec(cpu.SCBCHMK, "chmk")
	vec(cpu.SCBClock, "clock")
	vec(cpu.SCBTerminal, "term")
	vec(cpu.SCBDiskDevice, "disk")
	vec(cpu.SCBSoftBase+4*schedLevel, "sched")
	vec(cpu.SCBSoftBase+4*forkLevel, "fork")
	vec(cpu.SCBReservedOp, "rsvdop")
	vec(cpu.SCBReservedAddr, "fatal")
	vec(cpu.SCBAccessViol, "fatal")
	vec(cpu.SCBTransInval, "fatal")
	vec(cpu.SCBMachineChk, "mcheck")

	// MMU and processor registers.
	s.m.MMU = mmu.Registers{
		SBR: sysPTPhys, SLR: slots,
		Enabled: true,
	}
	s.m.SetIPR(cpu.IPRSlotSCBB, scbPhys)

	// Start the first non-null process as if LDPCTX+REI had run.
	first := s.procs[0]
	for _, p := range s.procs {
		if !p.Null {
			first = p
			break
		}
	}
	s.startProcess(first)

	s.nextClock = s.cfg.ClockInterval
	s.charged, s.cpuTime, s.cur = nil, nil, -1
	s.lastPCB = s.m.IPR(cpu.IPRSlotPCBB)
	s.diskReq = kernPhys + kern.MustAddr("diskreq") - kern.Org
	s.m.OnInstruction = s.onInstruction
	s.booted = true
	return nil
}

// startProcess loads a process context by console action (the boot path).
func (s *System) startProcess(p *Process) {
	m := s.m
	rd := func(slot int) uint32 { return m.Mem.PeekLong(p.PCB + cpu.PCBOffset(slot)) }
	m.SetIPR(cpu.IPRSlotPCBB, p.PCB)
	m.SetIPR(cpu.IPRSlotKSP, rd(0))
	m.MMU.P0BR = rd(18)
	m.MMU.P0LR = rd(19)
	m.MMU.P1BR = rd(20)
	m.MMU.P1LR = rd(21)
	m.R[vax.SP] = rd(1) // user stack
	m.PSL = rd(17)
	m.SetPC(rd(16))
}

// Software interrupt levels used by the kernel.
const (
	schedLevel = 3
	forkLevel  = 6
)

// onInstruction drives the devices, the null-process monitor gate, and
// per-process CPU accounting.
func (s *System) onInstruction(m *cpu.Machine) {
	now := m.Cycle()
	// Charge the elapsed cycles to the process that was resident.
	if s.cur < 0 {
		s.cur = s.slot(s.lastPCB)
	}
	s.cpuTime[s.cur] += now - s.lastCycle
	s.lastCycle = now
	pcb := m.IPR(cpu.IPRSlotPCBB)
	if pcb != s.lastPCB {
		s.lastPCB, s.cur = pcb, -1
	}
	if now >= s.nextClock {
		m.QueueIRQ(cpu.IRQ{At: now, IPL: cpu.IPLClock, Vector: cpu.SCBClock})
		for s.nextClock <= now {
			s.nextClock += s.cfg.ClockInterval
		}
	}
	for s.termNext < len(s.termEvents) && s.termEvents[s.termNext] <= now {
		m.QueueIRQ(cpu.IRQ{At: now, IPL: cpu.IPLTerminal, Vector: cpu.SCBTerminal})
		s.termNext++
	}
	// Disk: the kernel counts requests in its data area; each schedules a
	// completion interrupt DiskLatency cycles out. The device model reads
	// the counter as an observer (PeekLong): the CPU made no reference.
	if req := m.Mem.PeekLong(s.diskReq); req > s.diskSeen {
		for ; s.diskSeen < req; s.diskSeen++ {
			s.diskDue = append(s.diskDue, now+s.cfg.DiskLatency)
		}
	}
	for len(s.diskDue) > 0 && s.diskDue[0] <= now {
		m.QueueIRQ(cpu.IRQ{At: now, IPL: cpu.IPLDisk, Vector: cpu.SCBDiskDevice})
		s.diskDue = s.diskDue[1:]
	}
	if s.nullPCB != 0 {
		m.SetMonitorGate(pcb != s.nullPCB)
	}
}

// slot returns pcb's index in the CPU-time table, adding it on first use.
func (s *System) slot(pcb uint32) int {
	if i := slices.Index(s.charged, pcb); i >= 0 {
		return i
	}
	s.charged = append(s.charged, pcb)
	s.cpuTime = append(s.cpuTime, 0)
	return len(s.charged) - 1
}

// Run executes for a cycle budget.
func (s *System) Run(cycles uint64) cpu.RunResult {
	if !s.booted {
		return cpu.RunResult{Err: fmt.Errorf("vmos: not booted")}
	}
	return s.m.Run(cycles)
}

// Ticks returns the kernel's clock-tick counter.
func (s *System) Ticks() uint32 { return s.kernelCounter("ticks") }

// CtxSwitches returns the hardware context-switch count.
func (s *System) CtxSwitches() uint64 { return s.m.HW().CtxSwitches }

// ReadUser reads a longword from a process's P0 space by console access
// (the backing frames are contiguous).
func (s *System) ReadUser(p *Process, va uint32) uint32 {
	return s.m.Mem.PeekLong(p.Base + va)
}

// TermEvents returns the kernel's terminal interrupt count.
func (s *System) TermEvents() uint32 { return s.kernelCounter("termcnt") }

// DiskRequests returns the kernel's disk-request count.
func (s *System) DiskRequests() uint32 { return s.kernelCounter("diskreq") }

// DiskCompleted returns the kernel's disk-completion count.
func (s *System) DiskCompleted() uint32 { return s.kernelCounter("diskdone") }

// MachineChecks returns the kernel's machine-check log count (the checks
// the mcheck handler saw, retried, and survived).
func (s *System) MachineChecks() uint32 { return s.kernelCounter("mchkcnt") }

// MachineCheckCause returns the kernel's per-cause machine-check log slot.
func (s *System) MachineCheckCause(cause cpu.MCCause) uint32 {
	base := kernPhys + s.kern.MustAddr("mccause") - s.kern.Org
	return s.m.Mem.PeekLong(base + 4*uint32(cause))
}

// CPUTime returns the cycles charged to a process (including kernel time
// spent on its behalf; interrupt service is charged to whoever was
// resident, as with simple OS accounting).
func (s *System) CPUTime(p *Process) uint64 {
	if i := slices.Index(s.charged, p.PCB); i >= 0 {
		return s.cpuTime[i]
	}
	return 0
}

// kernelCounter reads a longword counter from the kernel's data area,
// as an observer: no RDS sample, no latched fault.
func (s *System) kernelCounter(label string) uint32 {
	return s.m.Mem.PeekLong(kernPhys + s.kern.MustAddr(label) - s.kern.Org)
}
