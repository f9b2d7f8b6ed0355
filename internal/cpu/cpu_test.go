package cpu

import (
	"testing"

	"vax780/internal/asm"
	"vax780/internal/cache"
	"vax780/internal/ucode"
	"vax780/internal/vax"
)

// testProbe is a minimal histogram used to validate cycle conservation.
type testProbe struct {
	counts map[uint16]uint64
	stalls map[uint16]uint64
}

func newTestProbe() *testProbe {
	return &testProbe{counts: map[uint16]uint64{}, stalls: map[uint16]uint64{}}
}

func (p *testProbe) Count(upc uint16, n uint64) { p.counts[upc] += n }
func (p *testProbe) Stall(upc uint16, n uint64) { p.stalls[upc] += n }

func (p *testProbe) total() uint64 {
	var t uint64
	for _, v := range p.counts {
		t += v
	}
	for _, v := range p.stalls {
		t += v
	}
	return t
}

// run assembles src at 0x1000, loads it into a physically-addressed
// machine, and runs it to HALT.
func run(t *testing.T, src string) (*Machine, *testProbe) {
	t.Helper()
	m, p, _ := runImage(t, src)
	return m, p
}

func runImage(t *testing.T, src string) (*Machine, *testProbe, *asm.Image) {
	t.Helper()
	im, err := asm.Assemble(0x1000, src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := New(Config{MemBytes: 1 << 20})
	p := newTestProbe()
	m.AttachProbe(p)
	m.Mem.Load(im.Org, im.Bytes)
	m.R[vax.SP] = 0x8000
	m.SetPC(im.Org)
	res := m.Run(2_000_000)
	if res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	if !res.Halted {
		t.Fatal("program did not halt")
	}
	return m, p, im
}

func TestMovlAndHalt(t *testing.T) {
	m, _ := run(t, `
	MOVL	#42, R0
	MOVL	R0, R1
	HALT
`)
	if m.R[0] != 42 || m.R[1] != 42 {
		t.Errorf("R0=%d R1=%d, want 42", m.R[0], m.R[1])
	}
	if m.Instructions() != 3 {
		t.Errorf("instret = %d, want 3", m.Instructions())
	}
}

func TestFibonacciLoop(t *testing.T) {
	m, _ := run(t, `
	MOVL	#0, R0		; fib(0)
	MOVL	#1, R1		; fib(1)
	MOVL	#10, R2		; iterations
loop:	ADDL3	R0, R1, R3
	MOVL	R1, R0
	MOVL	R3, R1
	SOBGTR	R2, loop
	HALT
`)
	// After 10 iterations: R1 = fib(11) = 89.
	if m.R[1] != 89 {
		t.Errorf("R1 = %d, want 89", m.R[1])
	}
}

func TestMemoryOperandsAndAddressing(t *testing.T) {
	m, _ := run(t, `
	MOVL	#0x2000, R2
	MOVL	#7, (R2)
	MOVL	(R2), R3
	ADDL2	#3, (R2)
	MOVL	(R2)+, R4
	MOVL	#0x11, -(R2)
	MOVL	4(R2), R5	; reads 0x2004? no: R2 back at 0x2000, disp 4 -> 0x2004
	MOVL	#0x2100, R6
	MOVL	#0x2200, (R6)
	MOVL	@(R6)+, R7	; pointer at 0x2100 -> reads 0x2200
	MOVL	#99, @#0x2200
	MOVL	@#0x2200, R8
	HALT
`)
	if m.R[3] != 7 {
		t.Errorf("R3 = %d, want 7", m.R[3])
	}
	if m.R[4] != 10 {
		t.Errorf("R4 = %d, want 10", m.R[4])
	}
	if m.R[8] != 99 {
		t.Errorf("R8 = %d, want 99", m.R[8])
	}
	if m.Mem.ReadLong(0x2000) != 0x11 {
		t.Errorf("mem[0x2000] = %#x, want 0x11", m.Mem.ReadLong(0x2000))
	}
}

func TestIndexedAddressing(t *testing.T) {
	m, _ := run(t, `
	MOVL	#0x3000, R1
	MOVL	#2, R2
	MOVL	#55, 0(R1)[R2]	; writes 0x3000 + 4*2
	MOVL	0(R1)[R2], R3
	HALT
`)
	if m.Mem.ReadLong(0x3008) != 55 {
		t.Errorf("mem[0x3008] = %d, want 55", m.Mem.ReadLong(0x3008))
	}
	if m.R[3] != 55 {
		t.Errorf("R3 = %d, want 55", m.R[3])
	}
}

func TestConditionalBranches(t *testing.T) {
	m, _ := run(t, `
	MOVL	#5, R0
	CMPL	R0, #5
	BEQL	eq
	MOVL	#1, R9
eq:	CMPL	R0, #9
	BGEQ	no
	MOVL	#2, R8		; taken path: 5 < 9
no:	TSTL	R0
	BNEQ	done
	MOVL	#3, R7
done:	HALT
`)
	if m.R[9] != 0 {
		t.Error("BEQL should have skipped R9 store")
	}
	if m.R[8] != 2 {
		t.Error("BGEQ should not have branched (5 < 9)")
	}
	if m.R[7] != 0 {
		t.Error("BNEQ should have branched")
	}
}

func TestSubroutineLinkage(t *testing.T) {
	m, _ := run(t, `
	MOVL	#3, R0
	BSBW	double
	BSBW	double
	HALT
double:	ADDL2	R0, R0
	RSB
`)
	if m.R[0] != 12 {
		t.Errorf("R0 = %d, want 12", m.R[0])
	}
}

func TestCallsRet(t *testing.T) {
	m, _ := run(t, `
	MOVL	#100, R2	; clobbered by callee, restored by RET
	MOVL	#5, R3		; not saved
	PUSHL	#7		; argument
	CALLS	#1, func
	HALT
	; procedure with entry mask saving R2
func:	.word	0x0004
	MOVL	4(AP), R0	; first argument
	MOVL	#0, R2		; clobber saved register
	ADDL2	#1, R3		; clobber unsaved register
	RET
`)
	if m.R[0] != 7 {
		t.Errorf("R0 = %d, want 7 (argument)", m.R[0])
	}
	if m.R[2] != 100 {
		t.Errorf("R2 = %d, want 100 (restored by RET)", m.R[2])
	}
	if m.R[3] != 6 {
		t.Errorf("R3 = %d, want 6 (not in mask)", m.R[3])
	}
	// CALLS must remove the argument from the stack.
	if m.R[vax.SP] != 0x8000 {
		t.Errorf("SP = %#x, want 0x8000", m.R[vax.SP])
	}
}

func TestPushrPopr(t *testing.T) {
	m, _ := run(t, `
	MOVL	#1, R1
	MOVL	#2, R2
	MOVL	#3, R3
	PUSHR	#0x0E		; push R1,R2,R3
	CLRL	R1
	CLRL	R2
	CLRL	R3
	POPR	#0x0E
	HALT
`)
	if m.R[1] != 1 || m.R[2] != 2 || m.R[3] != 3 {
		t.Errorf("R1,R2,R3 = %d,%d,%d want 1,2,3", m.R[1], m.R[2], m.R[3])
	}
}

func TestCaseBranch(t *testing.T) {
	m, _ := run(t, `
	MOVL	#1, R0
	CASEL	R0, #0, #2, c0, c1, c2
	MOVL	#111, R5	; out-of-range fallthrough
	BRB	done
c0:	MOVL	#10, R5
	BRB	done
c1:	MOVL	#11, R5
	BRB	done
c2:	MOVL	#12, R5
done:	HALT
`)
	if m.R[5] != 11 {
		t.Errorf("R5 = %d, want 11", m.R[5])
	}
}

func TestCaseOutOfRange(t *testing.T) {
	m, _ := run(t, `
	MOVL	#9, R0
	CASEL	R0, #0, #1, c0, c1
	MOVL	#77, R5
	BRB	done
c0:	MOVL	#10, R5
	BRB	done
c1:	MOVL	#11, R5
done:	HALT
`)
	if m.R[5] != 77 {
		t.Errorf("R5 = %d, want 77 (fallthrough)", m.R[5])
	}
}

func TestLoopBranches(t *testing.T) {
	m, _ := run(t, `
	CLRL	R0
	MOVL	#4, R1
l1:	INCL	R0
	SOBGTR	R1, l1
	CLRL	R2
	MOVL	#0, R3
l2:	INCL	R2
	AOBLSS	#3, R3, l2
	HALT
`)
	if m.R[0] != 4 {
		t.Errorf("SOBGTR count R0 = %d, want 4", m.R[0])
	}
	if m.R[2] != 3 {
		t.Errorf("AOBLSS count R2 = %d, want 3", m.R[2])
	}
}

func TestMovc3(t *testing.T) {
	m, _, im := runImage(t, `
	MOVC3	#13, src, dst
	HALT
src:	.ascii	"hello, world!"
dst:	.space	16
`)
	want := "hello, world!"
	got := string(m.Mem.Read(im.MustAddr("dst"), 13))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dst = %q, want %q", got, want)
		}
	}
	if m.R[0] != 0 {
		t.Errorf("R0 = %d, want 0 after MOVC3", m.R[0])
	}
}

func TestBitFieldOps(t *testing.T) {
	m, _ := run(t, `
	MOVL	#0x3000, R1
	MOVL	#0xABCD1234, (R1)
	EXTZV	#4, #8, (R1), R2	; bits 4..11 of 0x...1234 = 0x23
	MOVL	#0xF, R3
	INSV	R3, #0, #4, (R1)	; low nibble becomes F
	MOVL	(R1), R4
	HALT
`)
	if m.R[2] != 0x23 {
		t.Errorf("EXTZV = %#x, want 0x23", m.R[2])
	}
	if m.R[4] != 0xABCD123F {
		t.Errorf("INSV result = %#x, want 0xABCD123F", m.R[4])
	}
}

func TestBitBranches(t *testing.T) {
	m, _ := run(t, `
	MOVL	#4, R0		; bit 2 set
	BBS	#2, R0, yes
	MOVL	#1, R5
yes:	BBSS	#3, R0, was	; bit 3 clear: no branch, but set it
	MOVL	#1, R6
was:	BBS	#3, R0, done	; now set
	MOVL	#1, R7
done:	HALT
`)
	if m.R[5] != 0 {
		t.Error("BBS #2 should have branched")
	}
	if m.R[6] != 1 {
		t.Error("BBSS on clear bit should not branch")
	}
	if m.R[0]&8 == 0 {
		t.Error("BBSS should have set bit 3")
	}
	if m.R[7] != 0 {
		t.Error("BBS #3 should have branched after BBSS set it")
	}
}

func TestFloatOps(t *testing.T) {
	m, _ := run(t, `
	CVTLF	#7, R0
	CVTLF	#3, R1
	ADDF2	R1, R0		; R0 = 10.0
	MULF2	R0, R0		; R0 = 100.0
	CVTFL	R0, R2
	MULL3	#6, #7, R3
	DIVL3	#5, #100, R4
	HALT
`)
	if m.R[2] != 100 {
		t.Errorf("float chain R2 = %d, want 100", m.R[2])
	}
	if m.R[3] != 42 {
		t.Errorf("MULL3 = %d, want 42", m.R[3])
	}
	if m.R[4] != 20 {
		t.Errorf("DIVL3 = %d, want 20", m.R[4])
	}
}

func TestDecimalOps(t *testing.T) {
	m, _, im := runImage(t, `
	CVTLP	#1234, #5, pk1
	CVTLP	#766, #5, pk2
	ADDP4	#5, pk2, #5, pk1	; pk1 += pk2 -> 2000
	CVTPL	#5, pk1, R0
	MOVP	#5, pk1, pk3
	CVTPL	#5, pk3, R1
	HALT
pk1:	.space	4
pk2:	.space	4
pk3:	.space	4
`)
	_ = im
	if m.R[0] != 2000 {
		t.Errorf("ADDP4 result = %d, want 2000", m.R[0])
	}
	if m.R[1] != 2000 {
		t.Errorf("MOVP round trip = %d, want 2000", m.R[1])
	}
}

func TestQueueInstructions(t *testing.T) {
	m, _, im := runImage(t, `
	; header is a self-linked queue head
	MOVAL	head, R0
	MOVL	R0, (R0)	; head.flink = head
	MOVL	R0, 4(R0)	; head.blink = head
	INSQUE	e1, head
	INSQUE	e2, head	; e2 inserted at head: head -> e2 -> e1
	MOVL	(R0), R4	; first entry address (e2)
	REMQUE	(R4), R3	; removes e2
	HALT
head:	.space	8
e1:	.space	8
e2:	.space	8
`)
	if m.R[3] != im.MustAddr("e2") {
		t.Errorf("REMQUE removed %#x, want e2 %#x", m.R[3], im.MustAddr("e2"))
	}
	if m.Mem.ReadLong(im.MustAddr("head")) != im.MustAddr("e1") {
		t.Errorf("head.flink = %#x, want e1", m.Mem.ReadLong(im.MustAddr("head")))
	}
}

func TestCharacterSearch(t *testing.T) {
	m, _ := run(t, `
	LOCC	#0x58, #10, str		; find 'X'
	MOVL	R0, R6
	HALT
str:	.ascii	"abcdXfghij"
`)
	// 'X' at index 4: R0 = remaining = 10-4 = 6.
	if m.R[6] != 6 {
		t.Errorf("LOCC remaining = %d, want 6", m.R[6])
	}
}

func TestCycleConservation(t *testing.T) {
	// Every cycle the machine spends must appear in the histogram: the
	// paper's technique classifies EVERY processor cycle (§5).
	// MOVC3 clobbers R0-R5 (architectural), so the loop counter lives in R7.
	m, p := run(t, `
	MOVL	#50, R7
loop:	MOVL	#0x4000, R8
	MOVL	(R8), R9
	ADDL2	#1, (R8)
	MOVC3	#13, src, dst
	SOBGTR	R7, loop
	HALT
src:	.ascii	"0123456789abc"
dst:	.space	16
`)
	if got, want := p.total(), m.Cycle(); got != want {
		t.Errorf("histogram total %d != machine cycles %d", got, want)
	}
}

func TestInstructionCountViaIRD(t *testing.T) {
	m, p := run(t, `
	MOVL	#3, R0
l:	SOBGTR	R0, l
	HALT
`)
	ird := CS.MustLookup("decode.ird")
	if p.counts[ird] != m.Instructions() {
		t.Errorf("IRD count %d != instret %d", p.counts[ird], m.Instructions())
	}
}

func TestBranchTakenCounting(t *testing.T) {
	_, p := run(t, `
	MOVL	#5, R0
l:	SOBGTR	R0, l	; taken 4x, untaken 1x
	HALT
`)
	entry := CS.MustLookup("exec.br.loop.entry")
	taken := CS.MustLookup("exec.br.loop.taken")
	if p.counts[entry] != 5 {
		t.Errorf("loop entries = %d, want 5", p.counts[entry])
	}
	if p.counts[taken] != 4 {
		t.Errorf("loop taken = %d, want 4", p.counts[taken])
	}
}

func TestWriteStallsObserved(t *testing.T) {
	// Back-to-back memory writes must produce write stalls with the
	// one-longword write buffer: CLRQ writes two longwords on consecutive
	// microcycles, so its second write always stalls.
	_, p := run(t, `
	MOVL	#0x5000, R1
	MOVL	#20, R2
l:	CLRQ	(R1)
	CLRQ	8(R1)
	SOBGTR	R2, l
	HALT
`)
	var wstall uint64
	for upc, n := range p.stalls {
		if w := CS.Word(upc).Name; w == "spec1.write.data" || w == "spec1.write.data2" ||
			w == "spec26.write.data" || w == "spec26.write.data2" {
			wstall += n
		}
	}
	if wstall == 0 {
		t.Error("expected write stalls from back-to-back writes")
	}
}

func TestColdCacheReadStalls(t *testing.T) {
	_, p := run(t, `
	MOVL	#0x9000, R1
	MOVL	#64, R2
l:	MOVL	(R1)+, R3	; sequential cold reads
	SOBGTR	R2, l
	HALT
`)
	var rstall uint64
	for _, n := range p.stalls {
		rstall += n
	}
	if rstall == 0 {
		t.Error("expected read stalls on cold cache")
	}
}

// TestMonitorReadsMatchCacheHardware cross-validates the two measurement
// paths: the monitor's read-class execution counts (microcode view) must
// equal the cache's D-stream reference count (hardware view), since every
// D-stream longword reference is one cycle at a read-class microword.
func TestMonitorReadsMatchCacheHardware(t *testing.T) {
	m, p := run(t, `
	MOVL	#100, R7
l:	MOVL	(R7), R9
	ADDL2	#4, R7
	MOVQ	(R7), R2
	CMPL	R7, #500
	BLSS	l
	HALT
`)
	var monReads, monWrites uint64
	for upc, n := range p.counts {
		switch CS.Word(upc).Class {
		case ucode.ClassRead:
			monReads += n
		case ucode.ClassWrite:
			monWrites += n
		}
	}
	hwReads := m.Cache.Stats().Reads(cache.DStream)
	if monReads != hwReads {
		t.Errorf("monitor reads %d != cache D-stream reads %d", monReads, hwReads)
	}
	hwWrites := m.Cache.Stats().WriteHits + m.Cache.Stats().WriteMisses
	if monWrites != hwWrites {
		t.Errorf("monitor writes %d != cache writes %d", monWrites, hwWrites)
	}
}

// TestUnalignedReferenceAccounting: an unaligned longword read crosses a
// longword boundary: two physical references plus alignment microcode in
// the Mem Mgmt row (§3.3.1).
func TestUnalignedReferenceAccounting(t *testing.T) {
	m, p := run(t, `
	MOVL	#0x2002, R1	; unaligned by 2
	MOVL	(R1), R2
	HALT
`)
	if m.HW().Unaligned != 1 {
		t.Errorf("unaligned count = %d, want 1", m.HW().Unaligned)
	}
	align := CS.MustLookup("mm.align.entry")
	if p.counts[align] != 1 {
		t.Errorf("alignment microcode entries = %d, want 1", p.counts[align])
	}
	// The read-class word at spec1.read.data ticked twice (two refs).
	rd := CS.MustLookup("spec1.read.data")
	if p.counts[rd] != 2 {
		t.Errorf("read word executions = %d, want 2 (split reference)", p.counts[rd])
	}
}

// TestInterruptPriorityNesting: a higher-IPL interrupt preempts a lower
// one; an equal or lower request waits for REI.
func TestInterruptPriorityNesting(t *testing.T) {
	im, err := asm.Assemble(0x1000, `
	MOVL	#1000, R7
l:	SOBGTR	R7, l
	HALT
	; low-priority handler: spins a while, so the clock interrupt nests
low:	INCL	@#0x3000
	MOVL	#200, R6
lw:	SOBGTR	R6, lw
	MOVL	@#0x3004, R5	; observe high count while still in low
	MOVL	R5, @#0x3008
	REI
high:	INCL	@#0x3004
	REI
`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{MemBytes: 1 << 20})
	m.Mem.Load(im.Org, im.Bytes)
	m.R[vax.SP] = 0x8000
	m.SetIPR(IPRSlotSCBB, 0x200)
	m.Mem.WriteLong(0x200+SCBTerminal, im.MustAddr("low")) // IPL 20
	m.Mem.WriteLong(0x200+SCBClock, im.MustAddr("high"))   // IPL 24
	m.SetPC(im.Org)
	m.QueueIRQ(IRQ{At: 100, IPL: IPLTerminal, Vector: SCBTerminal})
	m.QueueIRQ(IRQ{At: 120, IPL: IPLClock, Vector: SCBClock})
	res := m.Run(1_000_000)
	if res.Err != nil || !res.Halted {
		t.Fatalf("halted=%v err=%v", res.Halted, res.Err)
	}
	if m.Mem.ReadLong(0x3000) != 1 || m.Mem.ReadLong(0x3004) != 1 {
		t.Fatalf("handlers ran %d/%d times", m.Mem.ReadLong(0x3000), m.Mem.ReadLong(0x3004))
	}
	// The high handler must have nested inside the low one.
	if m.Mem.ReadLong(0x3008) != 1 {
		t.Errorf("high-IPL interrupt did not preempt the low handler")
	}
}

// TestEqualIPLDoesNotPreempt: a request at the current IPL waits.
func TestEqualIPLDoesNotPreempt(t *testing.T) {
	im, err := asm.Assemble(0x1000, `
	MOVL	#2000, R7
l:	SOBGTR	R7, l
	HALT
h:	INCL	@#0x3000
	MOVL	@#0x3000, R5
	MOVL	R5, @#0x3004	; record depth at entry: must always be 1-at-a-time
	REI
`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{MemBytes: 1 << 20})
	m.Mem.Load(im.Org, im.Bytes)
	m.R[vax.SP] = 0x8000
	m.SetIPR(IPRSlotSCBB, 0x200)
	m.Mem.WriteLong(0x200+SCBTerminal, im.MustAddr("h"))
	m.SetPC(im.Org)
	m.QueueIRQ(IRQ{At: 100, IPL: IPLTerminal, Vector: SCBTerminal})
	m.QueueIRQ(IRQ{At: 101, IPL: IPLTerminal, Vector: SCBTerminal})
	res := m.Run(1_000_000)
	if res.Err != nil || !res.Halted {
		t.Fatalf("halted=%v err=%v", res.Halted, res.Err)
	}
	if m.Mem.ReadLong(0x3000) != 2 {
		t.Errorf("handler ran %d times, want 2 (second deferred to REI)", m.Mem.ReadLong(0x3000))
	}
}

func TestStatsReport(t *testing.T) {
	m, _ := run(t, `
	MOVL	#50, R7
l:	MOVL	#0x4000, R8
	INCL	(R8)
	SOBGTR	R7, l
	HALT
`)
	s := m.StatsReport()
	for _, want := range []string{"machine:", "cache:", "tb:", "sbi:", "wbuf:", "ib:", "events:", "CPI"} {
		if !containsSub(s, want) {
			t.Errorf("stats report missing %q:\n%s", want, s)
		}
	}
}

func containsSub(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestEnumNames: every machine-check cause below NumMCCauses, and every
// halt reason below NumHaltReasons, has a name of its own. A constant
// added without its String arm falls back to the out-of-range text and
// fails here.
func TestEnumNames(t *testing.T) {
	seen := map[string]bool{}
	name := func(s, fallback string) {
		t.Helper()
		if s == fallback || seen[s] {
			t.Errorf("name %q is the fallback or already taken", s)
		}
		seen[s] = true
	}
	for c := MCCause(0); c < NumMCCauses; c++ {
		name(c.String(), NumMCCauses.String())
	}
	for r := HaltReason(0); r < NumHaltReasons; r++ {
		name(r.String(), NumHaltReasons.String())
	}
}
