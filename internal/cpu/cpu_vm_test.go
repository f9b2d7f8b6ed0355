package cpu

import (
	"testing"

	"vax780/internal/asm"
	"vax780/internal/mmu"
	"vax780/internal/vax"
)

// vmFixture is a minimal virtual-memory machine: system space identity-
// mapped, a user process in P0, an SCB, kernel/user stacks, a CHMK handler
// and a clock interrupt handler.
type vmFixture struct {
	m       *Machine
	probe   *testProbe
	counter uint32 // S0 VA of a counter the kernel handlers increment
}

const (
	fxSCBPhys   = 0x0200 // physical SCB
	fxSysPT     = 0x1000 // physical system page table
	fxKernCode  = 0x80004000
	fxKernStack = 0x80008000 // grows down
	fxUserPT    = 0x80010000 // S0 VA of the P0 page table (phys 0x10000)
	fxUserCode  = 0x00000200 // P0 VA
	fxUserStack = 0x00007000 // P0 VA, grows down
	fxCounter   = 0x80009000
)

func newVMFixture(t *testing.T, userSrc, kernSrc string) *vmFixture {
	t.Helper()
	m := New(Config{MemBytes: 1 << 20})
	p := newTestProbe()
	m.AttachProbe(p)

	// System page table: identity-map the first 256 S0 pages.
	for i := uint32(0); i < 256; i++ {
		m.Mem.WriteLong(fxSysPT+4*i, mmu.MakePTE(i, mmu.ProtKW))
	}
	// P0 page table lives at S0 0x80010000 -> phys 0x10000 (page 128),
	// which the identity map covers. P0 page j -> phys frame 64+j.
	for j := uint32(0); j < 64; j++ {
		m.Mem.WriteLong(0x10000+4*j, mmu.MakePTE(64+j, mmu.ProtUW))
	}
	m.MMU = mmu.Registers{
		SBR: fxSysPT, SLR: 256,
		P0BR: fxUserPT, P0LR: 64,
		P1BR: fxUserPT, P1LR: 0,
		Enabled: true,
	}
	m.SetIPR(IPRSlotSCBB, fxSCBPhys)

	// Kernel code (system space).
	kim, err := asm.Assemble(fxKernCode, kernSrc)
	if err != nil {
		t.Fatalf("kernel assemble: %v", err)
	}
	m.Mem.Load(fxKernCode&0x3FFFFFFF, kim.Bytes)

	// User code (P0): phys = 64*512 + va.
	uim, err := asm.Assemble(fxUserCode, userSrc)
	if err != nil {
		t.Fatalf("user assemble: %v", err)
	}
	m.Mem.Load(64*mmu.PageSize+fxUserCode, uim.Bytes)

	// SCB vectors.
	chmk, ok := kim.Addr("chmk")
	if ok {
		m.Mem.WriteLong(fxSCBPhys+SCBCHMK, chmk)
	}
	clock, ok := kim.Addr("clock")
	if ok {
		m.Mem.WriteLong(fxSCBPhys+SCBClock, clock)
	}
	soft, ok := kim.Addr("soft")
	if ok {
		for lvl := 1; lvl <= 15; lvl++ {
			m.Mem.WriteLong(fxSCBPhys+uint32(SCBSoftBase+4*lvl), soft)
		}
	}

	// Start in user mode with banked stacks.
	m.SetIPR(IPRSlotKSP, fxKernStack)
	m.PSL = 3<<24 | 3<<22 // current mode user, previous user
	m.R[vax.SP] = fxUserStack
	m.SetPC(fxUserCode)
	return &vmFixture{m: m, probe: p, counter: fxCounter}
}

const kernelHandlers = `
chmk:	MOVL	(SP)+, R0	; service code
	TSTL	R0
	BEQL	stop
	INCL	@#0x80009000	; counter
	REI
stop:	HALT
clock:	INCL	@#0x80009004	; clock tick counter
	REI
soft:	INCL	@#0x80009008
	REI
`

func TestVMUserKernelRoundTrip(t *testing.T) {
	fx := newVMFixture(t, `
	MOVL	#10, R6
loop:	CHMK	#1
	SOBGTR	R6, loop
	CHMK	#0		; ask the kernel to halt
	HALT			; not reached
`, kernelHandlers)
	res := fx.m.Run(5_000_000)
	if res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	if !res.Halted {
		t.Fatal("machine did not halt")
	}
	// The counter lives at phys 0x9000 (identity map).
	if got := fx.m.Mem.ReadLong(0x9000); got != 10 {
		t.Errorf("CHMK counter = %d, want 10", got)
	}
	// User-mode execution must have triggered TB activity.
	st := fx.m.TLB.Stats()
	if st.Misses[0]+st.Misses[1] == 0 {
		t.Error("expected TB misses")
	}
	// TB miss service must be visible to the monitor (the paper's key
	// property: the TB is microcode-controlled).
	entryD := CS.MustLookup("mm.tbmiss.d.entry")
	entryI := CS.MustLookup("mm.tbmiss.i.entry")
	if fx.probe.counts[entryD]+fx.probe.counts[entryI] == 0 {
		t.Error("TB miss routine not observed by the monitor")
	}
	// Cycle conservation still holds with VM enabled.
	if fx.probe.total() != fx.m.Cycle() {
		t.Errorf("histogram %d != cycles %d", fx.probe.total(), fx.m.Cycle())
	}
}

func TestVMClockInterrupt(t *testing.T) {
	fx := newVMFixture(t, `
	MOVL	#4000, R6
loop:	SOBGTR	R6, loop
	CHMK	#0
`, kernelHandlers)
	// A clock interrupt every 997 cycles for a while.
	for c := uint64(1000); c < 20000; c += 997 {
		fx.m.QueueIRQ(IRQ{At: c, IPL: IPLClock, Vector: SCBClock})
	}
	res := fx.m.Run(5_000_000)
	if res.Err != nil || !res.Halted {
		t.Fatalf("run: halted=%v err=%v", res.Halted, res.Err)
	}
	ticks := fx.m.Mem.ReadLong(0x9004)
	if ticks == 0 {
		t.Fatal("no clock interrupts delivered")
	}
	if fx.m.HW().Interrupts != uint64(ticks) {
		t.Errorf("HW interrupts %d != handler count %d", fx.m.HW().Interrupts, ticks)
	}
	// Interrupt microcode must appear in the IntExcept row.
	if fx.probe.counts[CS.MustLookup("int.irq.entry")] == 0 {
		t.Error("interrupt entry not counted")
	}
}

func TestVMSoftwareInterrupt(t *testing.T) {
	// Kernel requests a software interrupt at IPL 3 via MTPR SIRR while at
	// high IPL; it must be delivered only after IPL drops (the REI).
	fx := newVMFixture(t, `
	CHMK	#1		; kernel handler requests the soft interrupt
	MOVL	#100, R6
l:	SOBGTR	R6, l
	CHMK	#0
`, `
chmk:	MOVL	(SP)+, R0
	TSTL	R0
	BEQL	stop
	MTPR	#21, #18	; IPL = 21: block the soft interrupt
	MTPR	#3, #20		; SIRR <- level 3
	MTPR	#0, #18		; IPL back to 0
	REI
stop:	HALT
soft:	INCL	@#0x80009008
	REI
`)
	res := fx.m.Run(5_000_000)
	if res.Err != nil || !res.Halted {
		t.Fatalf("run: halted=%v err=%v", res.Halted, res.Err)
	}
	if got := fx.m.Mem.ReadLong(0x9008); got != 1 {
		t.Errorf("soft interrupt count = %d, want 1", got)
	}
	if fx.m.HW().SIRRRequests != 1 {
		t.Errorf("SIRR requests = %d, want 1", fx.m.HW().SIRRRequests)
	}
	if fx.probe.counts[CS.MustLookup("exec.sys.mtpr.sirr")] != 1 {
		t.Error("SIRR microword not counted exactly once")
	}
}

func TestVMTBMissServiceCost(t *testing.T) {
	// Touch many distinct pages: each first touch costs a TB miss of
	// roughly the paper's 21.6 cycles (§4.2).
	fx := newVMFixture(t, `
	MOVL	#0x1000, R2	; page-aligned base within P0
	MOVL	#24, R6
l:	MOVL	(R2), R3
	ADDL2	#512, R2	; next page
	SOBGTR	R6, l
	CHMK	#0
`, kernelHandlers)
	res := fx.m.Run(5_000_000)
	if res.Err != nil || !res.Halted {
		t.Fatalf("run: halted=%v err=%v", res.Halted, res.Err)
	}
	entries := fx.probe.counts[CS.MustLookup("mm.tbmiss.d.entry")] +
		fx.probe.counts[CS.MustLookup("mm.tbmiss.i.entry")]
	if entries < 24 {
		t.Fatalf("TB miss entries = %d, want >= 24", entries)
	}
	var mmCycles uint64
	for _, name := range []string{"mm.tbmiss.d.entry", "mm.tbmiss.i.entry", "mm.tbmiss.work", "mm.tbmiss.read", "mm.tbmiss.done", "abort.utrap"} {
		w := CS.MustLookup(name)
		mmCycles += fx.probe.counts[w] + fx.probe.stalls[w]
	}
	perMiss := float64(mmCycles) / float64(entries)
	if perMiss < 12 || perMiss > 35 {
		t.Errorf("TB miss service = %.1f cycles, want in the vicinity of 21.6", perMiss)
	}
}

func TestVMUserHaltFaults(t *testing.T) {
	// HALT in user mode is a privileged-instruction fault, delivered
	// through the SCB.
	fx := newVMFixture(t, `
	HALT
`, `
chmk:	HALT
`)
	fx.m.Mem.WriteLong(fxSCBPhys+SCBReservedOp, fxKernCode) // chmk: HALT
	res := fx.m.Run(100_000)
	if !res.Halted {
		t.Fatal("expected halt via fault handler")
	}
	if fx.m.HW().Exceptions != 1 {
		t.Errorf("exceptions = %d, want 1", fx.m.HW().Exceptions)
	}
}

// TestIStreamFaultDuringDecode: an I-stream page fault taken while
// decode waits for bytes aborts the instruction. Each program starts a
// few bytes before an invalid page, so one of decode's waits services the
// I-stream TB miss and faults. Decode must not go on to read the
// handler's bytes as its own or spend the faulted instruction's remaining
// cycles; the handler runs as its own instruction and the saved PC is the
// faulting instruction's.
func TestIStreamFaultDuringDecode(t *testing.T) {
	for _, c := range []struct {
		name string
		pc   uint32
		src  string
		idle string // a microword the faulted instruction must not reach ("" = none)
	}{
		{"opcode", 0x400, "NOP", ""},
		{"specifier", 0x3FD, "MOVL #0x12345678, R0", "spec1.imm.extra"},
		{"quadword immediate", 0x3FD, "MOVQ #0x1122334455667788, R0", "spec1.imm.extra"},
		{"branch displacement", 0x3FE, "BRW l\nl: HALT", "exec.br.cond.taken"},
		{"subroutine displacement", 0x3FE, "BSBW l\nl: HALT", "exec.br.bsb.taken"},
	} {
		t.Run(c.name, func(t *testing.T) {
			fx := newVMFixture(t, "\tHALT\n", `
tnv:	INCL	@#0x80009000
	HALT
`)
			im, err := asm.Assemble(c.pc, c.src+"\n")
			if err != nil {
				t.Fatal(err)
			}
			fx.m.Mem.Load(64*mmu.PageSize+c.pc, im.Bytes)
			fx.m.Mem.WriteLong(0x10000+4*2, 0)                      // P0 page 2 invalid
			fx.m.Mem.WriteLong(fxSCBPhys+SCBTransInval, fxKernCode) // tnv
			fx.m.SetPC(c.pc)
			res := fx.m.Run(100_000)
			if res.Err != nil || !res.Halted {
				t.Fatalf("run: halted=%v err=%v", res.Halted, res.Err)
			}
			if got := fx.m.Mem.ReadLong(fxCounter &^ 0x80000000); got != 1 {
				t.Errorf("TransInval handler ran %d times, want 1", got)
			}
			// Kernel stack after delivery: faulting VA, saved PC, saved PSL.
			sp := fx.m.R[vax.SP] &^ 0x80000000
			if got := fx.m.Mem.ReadLong(sp + 4); got != c.pc {
				t.Errorf("saved PC = %#x, want %#x", got, c.pc)
			}
			if got := fx.m.Mem.ReadLong(sp); got != 2*mmu.PageSize {
				t.Errorf("faulting VA = %#x, want %#x", got, 2*mmu.PageSize)
			}
			if c.idle == "" {
				return
			}
			if n := fx.probe.counts[CS.MustLookup(c.idle)]; n != 0 {
				t.Errorf("%s counted %d times after the fault", c.idle, n)
			}
		})
	}
}

func TestArithmeticOverflowTrap(t *testing.T) {
	// With the PSW IV bit set, integer overflow traps through the SCB.
	im, err := asm.Assemble(0x1000, `
	BISPSW	#0x20		; enable integer overflow traps
	MOVL	#0x7FFFFFFF, R1
	ADDL2	#1, R1		; overflows -> trap
	MOVL	#7, R9		; resumed here after the handler
	HALT
ovf:	INCL	@#0x3000
	MOVL	(SP)+, R8	; pop the trap type code
	REI
`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{MemBytes: 1 << 20})
	m.Mem.Load(im.Org, im.Bytes)
	m.R[vax.SP] = 0x8000
	m.SetIPR(IPRSlotSCBB, 0x200)
	m.Mem.WriteLong(0x200+SCBArithTrap, im.MustAddr("ovf"))
	m.SetPC(im.Org)
	res := m.Run(100_000)
	if res.Err != nil || !res.Halted {
		t.Fatalf("halted=%v err=%v", res.Halted, res.Err)
	}
	if m.Mem.ReadLong(0x3000) != 1 {
		t.Errorf("trap handler ran %d times, want 1", m.Mem.ReadLong(0x3000))
	}
	if m.R[8] != 1 {
		t.Errorf("trap type code = %d, want 1 (integer overflow)", m.R[8])
	}
	if m.R[9] != 7 {
		t.Error("execution did not resume after the trap")
	}
}

func TestNoTrapWithoutIV(t *testing.T) {
	m, _ := run(t, `
	MOVL	#0x7FFFFFFF, R1
	ADDL2	#1, R1		; overflow, but IV disabled
	MOVL	#7, R9
	HALT
`)
	if m.HW().Exceptions != 0 {
		t.Errorf("exceptions = %d with IV disabled", m.HW().Exceptions)
	}
	if m.R[9] != 7 {
		t.Error("program did not complete")
	}
}

func TestUnmappedFetchIsFatalWithoutHandler(t *testing.T) {
	m := New(Config{MemBytes: 1 << 20})
	m.MMU = mmu.Registers{SBR: 0x4000, SLR: 4, Enabled: true}
	// Map nothing valid; no SCB either: the length violation cannot be
	// delivered and must surface as a machine error, not a hang.
	m.SetPC(0x80000000 + 100*mmu.PageSize) // beyond SLR
	res := m.Run(100_000)
	if res.Err == nil {
		t.Fatal("expected a machine error for an unmapped fetch")
	}
}

func TestFaultWithEmptyVectorFails(t *testing.T) {
	fx := newVMFixture(t, `
	HALT
`, `
chmk:	HALT
`)
	// Leave SCBReservedOp empty: the user-mode HALT fault has nowhere to
	// go and the machine must stop with an error.
	res := fx.m.Run(100_000)
	if res.Err == nil {
		t.Fatal("expected an unhandled-exception error")
	}
}
