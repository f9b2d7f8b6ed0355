// Package cpu implements a cycle-level model of the VAX-11/780 processor:
// the microcoded EBOX, the I-Fetch unit with its 8-byte instruction buffer,
// the I-Decode dispatch, and their connection to the memory subsystem
// (translation buffer, cache, write buffer and SBI).
//
// Every cycle the machine executes is attributed to exactly one microcode
// control-store location (see internal/ucode) and reported to an attached
// µPC histogram probe, reproducing the measurement substrate of Emer &
// Clark's ISCA 1984 study. Stalled cycles (read stall, write stall) are
// reported separately per location, and IB stalls are counted as executions
// of dedicated "insufficient bytes" dispatch locations, exactly as on the
// authors' monitor board (§2.2, §4.3 of the paper).
package cpu

import (
	"context"
	"errors"
	"fmt"

	"vax780/internal/cache"
	"vax780/internal/mem"
	"vax780/internal/mmu"
	"vax780/internal/tb"
	"vax780/internal/vax"
)

// CycleNanoseconds is the EBOX microinstruction time: the paper's
// definition of a cycle (§2.1).
const CycleNanoseconds = 200

// Probe receives per-cycle µPC events. It is the attachment point for the
// µPC histogram monitor (internal/core). A nil probe means no monitor.
//
// The probe is passive: implementations must not mutate machine state.
type Probe interface {
	// Count records n executed (non-stalled) cycles at a control-store
	// location. n > 1 batches a microcode loop that revisits one location
	// and must count exactly as n calls with n = 1 would.
	Count(upc uint16, n uint64)
	// Stall records n read- or write-stalled cycles at the location of
	// the stalled microinstruction.
	Stall(upc uint16, n uint64)
}

// Config assembles a machine. Zero fields take 11/780 defaults.
type Config struct {
	MemBytes uint32        // physical memory size (default 8 MB, as measured)
	SBI      mem.SBIConfig // bus timing
	Cache    cache.Config  // cache geometry
	// DecodeOverlap removes the non-overlapped decode cycle on
	// non-PC-changing instructions (the 11/750 optimization discussed in
	// §5) — an ablation knob, off for the 11/780.
	DecodeOverlap bool
	// CharWriteSpacing enables the character-string microcode's
	// write-stall-avoidance spacing (§4.3); on for the real machine.
	// Disabling it is an ablation.
	NoCharWriteSpacing bool
	// PatchEvery inserts one Abort-row cycle every N instructions,
	// modelling the production machines' microcode patches ("one [abort
	// cycle] for each microcode patch", §5). Default 10; negative
	// disables.
	PatchEvery int
	// WriteBufferDepth sizes the write buffer in longwords (default 1,
	// the 11/780's; deeper buffers are an ablation).
	WriteBufferDepth int
	// NoTBFlushOnSwitch stops LDPCTX from flushing the process half of
	// the TB — the flush-policy ablation of §3.4 (which would require
	// address-space tags the 780 does not have).
	NoTBFlushOnSwitch bool
	// NoFPA removes the Floating Point Accelerator ("all of the VAXes had
	// Floating Point Accelerators", §2.2): floating execute phases take
	// FPASlowdown times as many microcycles.
	NoFPA bool
	// FPASlowdown is the microcode-only float cost multiplier when NoFPA
	// is set (default 3).
	FPASlowdown int
}

// IRQ is a pending interrupt request.
type IRQ struct {
	At     uint64 // cycle at which the request asserts
	IPL    uint8  // request priority level
	Vector uint16 // SCB vector offset (bytes)
}

// Machine is a complete VAX-11/780.
type Machine struct {
	cfg Config

	Mem   *mem.Memory
	SBI   *mem.SBI
	WB    *mem.WriteBuffer
	Cache *cache.Cache
	TLB   *tb.TB
	MMU   mmu.Registers

	xm xmemo  // functional-path translation memo (ebox.go)
	dm *dmemo // decode memo (dmemo.go); allocated by the first RunCtx

	// Architectural state.
	R   [16]uint32 // R15 (PC) is shadowed by the IB pointer; see PCVal
	PSL uint32
	ipr [iprCount]uint32 // internal processor registers

	// Microarchitectural state.
	ib         ibox
	ops        [6]operand  // decoded operands of the current instruction
	nops       int         // operands in use
	instr      *vax.OpInfo // the current instruction
	instPC     uint32      // its PC
	cycle      uint64
	instret    uint64
	upc        uint16 // control-store location of the last cycle
	halted     bool
	haltReason HaltReason
	runErr     error

	probe Probe // attached monitor
	gate  bool  // monitor count enable (vmos drops it for the null process)

	irqs    []IRQ // time-ordered external interrupt requests
	nextIRQ int

	lastPCChange bool // previous instruction changed the PC (DecodeOverlap ablation)
	inExc        bool // an exception is being delivered
	instAborted  bool // the current instruction faulted; skip its remaining phases
	patchCtr     int  // instructions until the next patched microword

	// Progress watchdog (see SetWatchdog): a machine that burns wdLimit
	// cycles without retiring an instruction is stopped with a structured
	// error instead of spinning forever.
	wdLimit      uint64
	wdLastRetire uint64 // cycle at which the last instruction retired

	// Machine-check state (see mcheck.go).
	csSample  func() bool // the fault plane's control-store parity sampler (nil = never)
	pendMC    pendingMC
	mcPending bool
	mcActive  bool // a machine check is being handled (cleared by REI)

	// Hardware event counters (not monitor-visible; used for cross-checks).
	// They travel as State.HW, captured through the HW() accessor.
	unaligned     uint64
	sirrRequests  uint64
	irqDelivered  uint64
	exceptions    uint64
	ctxSwitches   uint64
	machineChecks uint64
	mcLost        uint64
	mcByCause     [NumMCCauses]uint64

	// OnInstruction, if set, runs between instructions (used by the OS
	// layer for scheduling decisions and by the RTE for terminal events).
	OnInstruction func(m *Machine)
}

// New builds a machine.
func New(cfg Config) *Machine {
	if cfg.MemBytes == 0 {
		cfg.MemBytes = 8 << 20
	}
	if cfg.SBI.ReadLatency == 0 {
		cfg.SBI = mem.DefaultSBIConfig()
	}
	if cfg.Cache.SizeBytes == 0 {
		cfg.Cache = cache.DefaultConfig()
	}
	if cfg.PatchEvery == 0 {
		cfg.PatchEvery = 10
	}
	if cfg.FPASlowdown == 0 {
		cfg.FPASlowdown = 3
	}
	m := &Machine{}
	if cfg.WriteBufferDepth == 0 {
		cfg.WriteBufferDepth = 1
	}
	m.cfg = cfg
	m.Mem = mem.New(cfg.MemBytes)
	// A bad configuration does not abort construction: the machine is
	// built on defaults with a sticky error, so callers that ignore Err()
	// still hold a structurally sound (if halted) machine.
	sbi, err := mem.NewSBI(cfg.SBI)
	if err != nil {
		sbi, _ = mem.NewSBI(mem.DefaultSBIConfig())
		m.fail("bad configuration: %v", err)
	}
	m.SBI = sbi
	m.WB = mem.NewWriteBufferDepth(m.SBI, cfg.WriteBufferDepth)
	c, err := cache.New(cfg.Cache)
	if err != nil {
		c, _ = cache.New(cache.DefaultConfig())
		m.fail("bad configuration: %v", err)
	}
	m.Cache = c
	m.TLB = tb.New()
	m.ib.m = m
	m.gate = true
	return m
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// AttachProbe connects a µPC histogram probe. Passing nil detaches.
func (m *Machine) AttachProbe(p Probe) { m.probe = p }

// SetMonitorGate enables or disables monitor counting (the paper excluded
// the VMS null process from measurement, §2.2).
func (m *Machine) SetMonitorGate(on bool) { m.gate = on }

// MonitorGate reports whether monitor counting is enabled.
func (m *Machine) MonitorGate() bool { return m.gate }

// Cycle returns the current cycle number.
func (m *Machine) Cycle() uint64 { return m.cycle }

// Instructions returns the number of completed VAX instructions.
func (m *Machine) Instructions() uint64 { return m.instret }

// Halted reports whether the machine executed HALT in kernel mode.
func (m *Machine) Halted() bool { return m.halted }

// PCVal returns the architectural PC: the address of the next I-stream
// byte to be decoded.
func (m *Machine) PCVal() uint32 { return m.ib.cur() }

// SetPC redirects instruction fetch to va.
func (m *Machine) SetPC(va uint32) { m.ib.redirect(va) }

// QueueIRQ schedules an external interrupt request. Requests may arrive
// in any time order; each is inserted at its place in the pending queue
// (but never before a request that was already delivered).
func (m *Machine) QueueIRQ(q IRQ) {
	i := len(m.irqs)
	for i > m.nextIRQ && m.irqs[i-1].At > q.At {
		i--
	}
	m.irqs = append(m.irqs, IRQ{})
	copy(m.irqs[i+1:], m.irqs[i:])
	m.irqs[i] = q
}

// tick executes one non-stalled cycle at control-store location w.
func (m *Machine) tick(w uint16) {
	m.upc = w
	if m.probe != nil && m.gate {
		m.probe.Count(w, 1)
	}
	m.cycle++
	if m.wdLimit != 0 && m.cycle-m.wdLastRetire > m.wdLimit {
		m.watchdogExpire()
	}
}

// ticks executes n cycles at w (a microcode loop revisiting one location)
// as one probe call. When the watchdog can expire inside the batch it runs
// them one at a time, so the failure's cycle and dump stay exact.
func (m *Machine) ticks(w uint16, n int) {
	if n <= 0 {
		return
	}
	if m.wdLimit != 0 && m.cycle+uint64(n)-m.wdLastRetire > m.wdLimit {
		for i := 0; i < n; i++ {
			m.tick(w)
		}
		return
	}
	m.upc = w
	if m.probe != nil && m.gate {
		m.probe.Count(w, uint64(n))
	}
	m.cycle += uint64(n)
}

// stall accounts n read-/write-stalled cycles at w.
func (m *Machine) stall(w uint16, n uint64) {
	if n == 0 {
		return
	}
	m.upc = w
	if m.probe != nil && m.gate {
		m.probe.Stall(w, n)
	}
	m.cycle += n
	if m.wdLimit != 0 && m.cycle-m.wdLastRetire > m.wdLimit {
		m.watchdogExpire()
	}
}

// SetWatchdog arms the progress watchdog: if the machine executes cycles
// cycles without retiring a single instruction — a wedged µPC loop, an
// interrupt storm, a microcode spin — it stops with a *MachineError
// recording the stuck µPC and a full diagnostic state dump. Zero disarms.
// The budget must comfortably exceed the longest legitimate instruction
// (a maximum-length character-string instruction runs for tens of
// thousands of cycles).
func (m *Machine) SetWatchdog(cycles uint64) {
	m.wdLimit = cycles
	m.wdLastRetire = m.cycle
}

// watchdogExpire stops the machine with a livelock diagnosis. The failure
// µPC is the location the machine was stuck at; the error carries a state
// dump taken at expiry.
func (m *Machine) watchdogExpire() {
	if m.runErr != nil {
		return
	}
	dump := m.StateDump()
	m.fail("watchdog: no instruction retired in %d cycles (stuck at µpc %#04x)", m.wdLimit, m.upc)
	var me *MachineError
	if errors.As(m.runErr, &me) {
		me.Dump = dump
	}
}

// HaltReason classifies why the machine stopped.
type HaltReason int

const (
	// HaltNone: the machine has not halted (e.g. the cycle budget ran out).
	HaltNone HaltReason = iota
	// HaltInstruction: a kernel-mode HALT instruction — the orderly stop.
	HaltInstruction
	// HaltError: an unrecoverable model error; Err carries a *MachineError.
	HaltError
	// NumHaltReasons counts the reasons above; it is not one itself.
	NumHaltReasons
)

func (r HaltReason) String() string {
	switch r {
	case HaltNone:
		return "running"
	case HaltInstruction:
		return "HALT instruction"
	case HaltError:
		return "unrecoverable error"
	}
	return "unknown halt reason"
}

// MachineError is the sticky error of a machine that stopped on an
// unrecoverable condition. UPC and Cycle locate the failure: the
// control-store location of the last cycle executed and the cycle count
// at the stop.
type MachineError struct {
	UPC   uint16
	Cycle uint64
	Msg   string
	// Dump, when non-empty, is a diagnostic state snapshot taken at the
	// failure (the watchdog fills it in; see StateDump). It is not part
	// of Error() — callers that want the post-mortem print it explicitly.
	Dump string
}

func (e *MachineError) Error() string {
	return fmt.Sprintf("cpu: %s (µpc %#04x, cycle %d)", e.Msg, e.UPC, e.Cycle)
}

// RunResult describes why Run returned.
type RunResult struct {
	Cycles       uint64
	Instructions uint64
	Halted       bool
	Reason       HaltReason
	Err          error
}

// Run executes instructions until a kernel-mode HALT, an unrecoverable
// error, or the cycle budget is exhausted.
func (m *Machine) Run(maxCycles uint64) RunResult {
	return m.RunCtx(context.Background(), maxCycles)
}

// RunCtx is Run with cooperative cancellation: the context is polled at
// every instruction boundary, so a cancelled or expired context stops the
// machine cleanly between instructions — the state remains checkpointable.
// On cancellation the result's Err is the context's error (the machine
// itself carries no sticky error and can keep running).
func (m *Machine) RunCtx(ctx context.Context, maxCycles uint64) RunResult {
	if m.dm == nil {
		// Once per machine, at its first RunCtx: single-stepping
		// harnesses never allocate the memo.
		m.dm = new(dmemo)
	}
	start := m.cycle
	startInst := m.instret
	// Poll the done channel, not ctx.Err, which takes the context's lock;
	// it is nil, and never ready, for a context that cannot be cancelled.
	done := ctx.Done()
	var ctxErr error
run:
	for !m.halted && m.runErr == nil && m.cycle-start < maxCycles {
		select {
		case <-done:
			ctxErr = ctx.Err()
			break run
		default:
		}
		m.StepInstruction()
		if m.OnInstruction != nil {
			m.OnInstruction(m)
		}
	}
	err := m.runErr
	if err == nil {
		err = ctxErr
	}
	return RunResult{
		Cycles:       m.cycle - start,
		Instructions: m.instret - startInst,
		Halted:       m.halted,
		Reason:       m.haltReason,
		Err:          err,
	}
}

// Err returns the sticky machine error, if any.
func (m *Machine) Err() error { return m.runErr }

// Reason returns why the machine halted (HaltNone while running).
func (m *Machine) Reason() HaltReason { return m.haltReason }

// fail stops the machine with a structured *MachineError recording the
// failing µPC and cycle. Once failed, further Steps are inert and the
// first error sticks.
func (m *Machine) fail(format string, args ...any) {
	if m.runErr == nil {
		m.runErr = &MachineError{
			UPC:   m.upc,
			Cycle: m.cycle,
			Msg:   fmt.Sprintf(format, args...),
		}
		m.haltReason = HaltError
	}
	m.halted = true
}

// CurrentMode returns the PSL current-mode field (0 kernel .. 3 user).
func (m *Machine) CurrentMode() uint32 { return m.PSL >> 24 & 3 }

// HWCounters are hardware event counts kept outside the monitor, used to
// cross-check the histogram-derived frequencies.
type HWCounters struct {
	Unaligned    uint64 // unaligned D-stream references (§3.3.1: ~0.016/instr)
	SIRRRequests uint64 // software interrupt requests (Table 7)
	Interrupts   uint64 // hardware+software interrupts delivered (Table 7)
	Exceptions   uint64
	CtxSwitches  uint64 // LDPCTX executions (Table 7)
	// MachineChecks counts delivered machine checks; MachineChecksLost
	// counts syndromes absorbed while a check was already outstanding
	// (the single-error latch, see mcheck.go).
	MachineChecks        uint64
	MachineChecksLost    uint64
	MachineChecksByCause [NumMCCauses]uint64
}

// HW returns the hardware event counters.
func (m *Machine) HW() HWCounters {
	return HWCounters{
		Unaligned:            m.unaligned,
		SIRRRequests:         m.sirrRequests,
		Interrupts:           m.irqDelivered,
		Exceptions:           m.exceptions,
		CtxSwitches:          m.ctxSwitches,
		MachineChecks:        m.machineChecks,
		MachineChecksLost:    m.mcLost,
		MachineChecksByCause: m.mcByCause,
	}
}

// setMode switches the current mode, banking the stack pointer.
func (m *Machine) setMode(mode uint32) {
	cur := m.CurrentMode()
	if cur == mode {
		return
	}
	// Save outgoing SP, load incoming.
	m.ipr[IPRSlotKSP+int(cur)] = m.R[vax.SP]
	m.R[vax.SP] = m.ipr[IPRSlotKSP+int(mode)]
	m.PSL = m.PSL&^(3<<24) | mode<<24
}
