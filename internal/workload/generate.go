// Package workload synthesizes the five measurement workloads of the
// paper (§2.2): two "live timesharing" loads and three Remote Terminal
// Emulator loads (educational, scientific, commercial). Since the original
// user populations and canned RTE scripts are unavailable, each workload
// is a set of generated VAX programs whose block mix is tuned so that the
// *composite* of all five lands near the paper's Table 1 instruction mix,
// plus an RTE terminal-event schedule pacing the interrupt load.
//
// Program shape: real programs spend most of their time inside loops, so
// the generator emits a sequence of counted loops (trip count ~10, per the
// paper's loop-branch statistics) whose bodies are composed from the
// weighted block mix; conditional branches, calls and operand traffic all
// live inside loop bodies, making the *dynamic* mix track the weights. A
// short straight-line tail carries the rare block types and the system
// service calls, and the whole program repeats forever.
package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"

	"vax780/internal/asm"
	"vax780/internal/vax"
)

// ErrBadMix reports a workload configuration whose block mix selects
// nothing. It crosses the workload boundary typed so cmd/* callers can
// distinguish a configuration mistake from a run failure with errors.Is.
var ErrBadMix = errors.New("unusable workload mix")

// Mix weights the body-block types. Weights need not sum to 1.
type Mix struct {
	ALU     float64 // register/memory moves, adds, compares, booleans
	MemScan float64 // array stepping through the 64 KB data window
	Branchy float64 // compare/branch chains, low-bit tests, case dispatch
	Call    float64 // CALLS procedure calls with entry masks
	Subr    float64 // BSB/JSB/RSB subroutine linkage
	Field   float64 // bit-field extracts/inserts and bit branches
	Float   float64 // F/D floating point and integer multiply/divide
	String  float64 // MOVC3/CMPC3/LOCC character work
	Decimal float64 // packed-decimal arithmetic
	Queue   float64 // INSQUE/REMQUE
	Syscall float64 // CHMK service blocks (terminal I/O, yield)
}

func (m Mix) weights() []float64 {
	return []float64{m.ALU, m.MemScan, m.Branchy, m.Call, m.Subr, m.Field,
		m.Float, m.String, m.Decimal, m.Queue, m.Syscall}
}

// Data-region geometry: the roving pointer R6 stays inside the first
// 64 KB window; displacement operands reach up to ~32 KB beyond it, always
// below the fixed structures at strOff. The window is several times the
// 8 KB cache and wider than the 32 KB the 64-entry process half of the TB
// can map, so cache and TB misses occur at realistic rates.
const (
	dataWindow = 64 * 1024
	dataSize   = 128 * 1024
	strOff     = 100 * 1024 // strings live inside the data region (R7 base)
	strDstOff  = strOff + 4096
	ioBufOff   = strOff + 8192
)

// GenConfig controls program generation.
type GenConfig struct {
	Mix       Mix
	Blocks    int // body blocks across all loops (code footprint)
	LoopIter  int // average inner-loop trip count (the paper sees ~10)
	StringLen int // average character-string length (paper: 36-44)
	Seed      int64
}

// generator carries state while emitting one program.
type generator struct {
	b      *asm.Builder
	r      *rand.Rand
	cfg    GenConfig
	nLabel int
	nProcs int
	nSubs  int
}

func (g *generator) label(prefix string) string {
	g.nLabel++
	return numbered(prefix, g.nLabel)
}

// numbered returns prefix followed by n in decimal, in one allocation.
func numbered(prefix string, n int) string {
	var buf [16]byte
	return string(strconv.AppendInt(append(buf[:0], prefix...), int64(n), 10))
}

func (g *generator) iters() int32 {
	n := g.cfg.LoopIter/2 + g.r.Intn(g.cfg.LoopIter)
	if n < 2 {
		n = 2
	}
	return int32(n)
}

// Generate builds one synthetic user program.
func Generate(cfg GenConfig) (*asm.Image, error) {
	if cfg.Blocks == 0 {
		cfg.Blocks = 48
	}
	if cfg.LoopIter == 0 {
		cfg.LoopIter = 10
	}
	if cfg.StringLen == 0 {
		cfg.StringLen = 40
	}
	g := &generator{
		b:   asm.NewBuilder(0x200),
		r:   rand.New(rand.NewSource(cfg.Seed)),
		cfg: cfg,
	}
	b := g.b

	w := cfg.Mix.weights()
	var total float64
	for _, x := range w {
		total += x
	}
	if total <= 0 {
		return nil, fmt.Errorf("workload: %w: every mix weight is zero", ErrBadMix)
	}
	emitters := []func(){
		g.emitALU, g.emitMemScan, g.emitBranchy, g.emitCall, g.emitSubr,
		g.emitField, g.emitFloat, g.emitString, g.emitDecimal, g.emitQueue,
		g.emitSyscall,
	}
	pick := func() int {
		p := g.r.Float64() * total
		for j, x := range w {
			p -= x
			if p < 0 {
				return j
			}
		}
		return 0
	}

	// Prologue: R6 = roving data pointer, R7 = data base, R11 = flags.
	b.Op("MOVAL", asm.LblAddr("data"), asm.R(vax.R6))
	b.Op("MOVL", asm.R(vax.R6), asm.R(vax.R7))
	b.Op("MOVL", asm.Imm(0x5A5A1234), asm.R(vax.R11))
	b.Label("top")

	const bodyPerLoop = 7
	nLoops := cfg.Blocks / bodyPerLoop
	if nLoops < 1 {
		nLoops = 1
	}
	picked := make([]int, len(w))
	for l := 0; l < nLoops; l++ {
		loop := g.label("lp")
		b.Op("MOVL", asm.Lit(g.iters()), asm.R(vax.R8))
		b.Label(loop)
		start := b.PC()
		for k := 0; k < bodyPerLoop; k++ {
			j := pick()
			if j == 10 {
				j = 0 // system services do not belong inside hot loops
			}
			picked[j]++
			emitters[j]()
		}
		// Close the loop: SOBGTR reaches back a byte displacement; larger
		// bodies use ACBL's word displacement (adding the ACB flavor the
		// paper groups with loop branches).
		if b.PC()-start > 100 {
			b.Br("ACBL", loop, asm.Lit(1), asm.Imm(0xFFFFFFFF), asm.R(vax.R8))
		} else {
			b.Br("SOBGTR", loop, asm.R(vax.R8))
		}
		g.wrapR6()
	}

	// Straight-line tail: system services paced once per pass, plus any
	// block type the loop bodies never picked (the rare groups must exist
	// in the dynamic mix: the paper's decimal group is only 0.03%).
	scTarget := int(float64(cfg.Blocks) * cfg.Mix.Syscall / total * 4)
	if cfg.Mix.Syscall > 0 && scTarget == 0 {
		scTarget = 1
	}
	for k := 0; k < scTarget; k++ {
		g.emitSyscall()
	}
	for j, x := range w {
		if x > 0 && picked[j] == 0 && j != 10 {
			emitters[j]()
		}
	}
	b.Op("JMP", asm.LblAddr("top"))

	g.emitProcedures()
	g.emitData()
	return b.Finish()
}

// ---------------------------------------------------------------------------
// Block emitters. Register conventions: R0-R5 scratch (clobbered by string
// instructions and CHMK services), R6 roving data pointer, R7 data base,
// R8 loop counter, R9/R10 temporaries, R11 flags word.

// dataOff samples a displacement into the data region: mostly byte-range
// displacements, some word-range — matching the paper's observation that
// displacements are most often a byte.
func (g *generator) dataOff() int32 {
	if g.r.Float64() < 0.72 {
		return int32(4 * g.r.Intn(31))
	}
	return int32(128 + 4*g.r.Intn(8100))
}

func (g *generator) emitALU() { g.aluBlock() }

func (g *generator) aluBlock() {
	b := g.b
	off := g.dataOff()
	switch p := g.r.Float64(); {
	case p < 0.22: // load pair (memory-first operands dominate real code)
		b.Op("MOVL", asm.D(off, vax.R6), asm.R(vax.R9))
		b.Op("MOVL", asm.D(off+12, vax.R6), asm.R(vax.R10))
	case p < 0.34: // memory-to-memory compare
		b.Op("CMPL", asm.D(off, vax.R6), asm.D(off+4, vax.R6))
	case p < 0.48: // indexed element read-modify-write
		b.Op("MOVL", asm.Idx(asm.D(off, vax.R6), vax.R8), asm.R(vax.R10))
		b.Op("ADDL2", asm.Lit(1), asm.R(vax.R10))
		b.Op("MOVL", asm.R(vax.R10), asm.Idx(asm.D(off, vax.R6), vax.R8))
	case p < 0.58: // pure tests of memory (often indexed table probes)
		if g.r.Intn(2) == 0 {
			b.Op("TSTL", asm.Idx(asm.D(off, vax.R6), vax.R8))
		} else {
			b.Op("TSTL", asm.D(off, vax.R6))
		}
		b.Op("BITL", asm.Lit(7), asm.Idx(asm.D(off+8, vax.R6), vax.R8))
	case p < 0.66: // load-modify-store
		b.Op("MOVL", asm.D(off, vax.R6), asm.R(vax.R10))
		b.Op("ADDL2", asm.Lit(int32(g.r.Intn(60))), asm.R(vax.R10))
		b.Op("MOVL", asm.R(vax.R10), asm.D(off, vax.R6))
	case p < 0.72: // three-operand: second operand and destination in memory
		b.Op("ADDL3", asm.R(vax.R10), asm.D(off, vax.R6), asm.D(off+4, vax.R6))
	case p < 0.78: // memory modify
		b.Op("ADDL2", asm.R(vax.R10), asm.D(off, vax.R6))
	case p < 0.84: // byte/word traffic
		b.Op("MOVZBL", asm.D(off, vax.R6), asm.R(vax.R10))
		b.Op("INCL", asm.R(vax.R10))
		b.Op("MOVB", asm.R(vax.R10), asm.D(off, vax.R6))
	case p < 0.89: // register-only plus a memory-second compare
		b.Op("ADDL3", asm.R(vax.R10), asm.R(vax.R11), asm.R(vax.R9))
		b.Op("CMPL", asm.R(vax.R9), asm.D(off, vax.R6))
	case p < 0.93: // memory-to-memory move
		b.Op("MOVL", asm.D(off, vax.R6), asm.D(off+8, vax.R6))
	case p < 0.96: // quadword load (register pair destination)
		b.Op("MOVQ", asm.D(off, vax.R6), asm.R(vax.R9))
	default: // stack push/pop and shift
		b.Op("PUSHL", asm.R(vax.R11))
		b.Op("MOVL", asm.Inc(vax.SP), asm.R(vax.R10))
		b.Op("ASHL", asm.Lit(int32(g.r.Intn(7))), asm.R(vax.R10), asm.R(vax.R10))
	}
}

func (g *generator) emitMemScan() {
	b := g.b
	// One stepping reference through the data window per body execution;
	// the wrap after the loop keeps R6 in bounds.
	switch g.r.Intn(6) {
	case 0:
		b.Op("ADDL2", asm.Inc(vax.R6), asm.R(vax.R10))
	case 1:
		b.Op("MOVL", asm.Inc(vax.R6), asm.R(vax.R10))
		b.Op("CMPL", asm.R(vax.R10), asm.R(vax.R11))
	case 2: // read-modify-write, then hop a cache block
		b.Op("INCL", asm.Def(vax.R6))
		b.Op("MOVAL", asm.D(68, vax.R6), asm.R(vax.R6))
	case 3: // indexed element touch
		b.Op("ADDL2", asm.Idx(asm.Def(vax.R6), vax.R8), asm.R(vax.R10))
		b.Op("MOVAL", asm.D(60, vax.R6), asm.R(vax.R6))
	default: // page-stride hops (TB traffic): two cases' weight
		b.Op("ADDL2", asm.D(4, vax.R6), asm.R(vax.R10))
		b.Op("MOVAL", asm.D(1028, vax.R6), asm.R(vax.R6))
	}
}

// wrapR6 folds the roving pointer back into the 64 KB window, aligned.
func (g *generator) wrapR6() {
	b := g.b
	b.Op("SUBL3", asm.R(vax.R7), asm.R(vax.R6), asm.R(vax.R10))
	b.Op("BICL2", asm.Imm(uint64(^uint32(dataWindow-1))|3), asm.R(vax.R10))
	b.Op("ADDL3", asm.R(vax.R7), asm.R(vax.R10), asm.R(vax.R6))
}

func (g *generator) emitBranchy() {
	b := g.b
	switch p := g.r.Float64(); {
	case p < 0.28: // compare-and-skip chain, two conditional branches
		d1 := g.label("bd")
		d2 := g.label("bd")
		b.Op("CMPL", asm.R(vax.R10), asm.Lit(int32(g.r.Intn(40))))
		b.Br("BLSS", d1)
		b.Op("SUBL2", asm.Lit(7), asm.R(vax.R10))
		b.Label(d1)
		b.Op("BITL", asm.Lit(7), asm.R(vax.R10))
		b.Br("BEQL", d2) // untaken 7 of 8 times
		b.Op("INCL", asm.R(vax.R9))
		b.Label(d2)
	case p < 0.55: // test-and-branch chain, two conditional branches
		d1 := g.label("bd")
		d2 := g.label("bd")
		if g.r.Intn(2) == 0 {
			b.Op("TSTL", asm.D(g.dataOff(), vax.R6))
		} else {
			b.Op("TSTL", asm.R(vax.R10))
		}
		b.Br("BLSS", d1) // rarely taken (values are mostly non-negative)
		b.Op("MCOML", asm.R(vax.R10), asm.R(vax.R9))
		b.Label(d1)
		b.Op("CMPL", asm.R(vax.R9), asm.R(vax.R11))
		b.Br("BNEQ", d2) // almost always taken
		b.Op("CLRL", asm.R(vax.R9))
		b.Label(d2)
	case p < 0.72: // low-bit test (BLBS/BLBC: Table 2's 2.0%, 41% taken)
		skip := g.label("lb")
		switch g.r.Intn(4) {
		case 0, 1:
			b.Br("BLBS", skip, asm.R(vax.R11)) // ~40% of flag bits set
		case 2:
			b.Br("BLBS", skip, asm.R(vax.R9))
		default:
			b.Br("BLBS", skip, asm.R(vax.R10)) // data values: mostly even
		}
		if g.r.Intn(2) == 0 {
			b.Op("INCL", asm.D(g.dataOff(), vax.R6))
		} else {
			b.Op("INCL", asm.R(vax.R10))
		}
		b.Label(skip)
		b.Op("ROTL", asm.Lit(1), asm.R(vax.R11), asm.R(vax.R11))
	case p < 0.86: // memory compare feeding a branch
		done := g.label("bd")
		if g.r.Intn(3) != 0 { // often indexed by the loop counter
			b.Op("CMPL", asm.Idx(asm.D(g.dataOff(), vax.R6), vax.R8), asm.R(vax.R11))
		} else {
			b.Op("CMPL", asm.D(g.dataOff(), vax.R6), asm.R(vax.R11))
		}
		b.Br("BNEQ", done)
		b.Op("MOVL", asm.R(vax.R11), asm.R(vax.R10))
		b.Label(done)
	case p < 0.945: // case dispatch
		c0, c1, c2, done := g.label("c"), g.label("c"), g.label("c"), g.label("cd")
		b.Op("BICL3", asm.Imm(0xFFFFFFFC), asm.R(vax.R10), asm.R(vax.R5))
		b.Case("CASEL", asm.R(vax.R5), asm.Lit(0), asm.Lit(2), c0, c1, c2)
		b.Br("BRB", done)
		b.Label(c0)
		b.Op("INCL", asm.R(vax.R9))
		b.Br("BRB", done)
		b.Label(c1)
		b.Op("DECL", asm.R(vax.R9))
		b.Br("BRB", done)
		b.Label(c2)
		b.Op("ADDL2", asm.Lit(2), asm.R(vax.R9))
		b.Label(done)
	case p < 0.975: // unconditional JMP over dead code
		over := g.label("ov")
		b.Op("JMP", asm.LblAddr(over))
		b.Op("CLRL", asm.R(vax.R9)) // skipped
		b.Label(over)
	default: // BRB skip
		over := g.label("ov")
		b.Br("BRB", over)
		b.Op("CLRL", asm.R(vax.R9)) // skipped
		b.Op("CLRL", asm.R(vax.R10))
		b.Label(over)
	}
}

func (g *generator) emitCall() {
	b := g.b
	proc := numbered("proc", g.r.Intn(3))
	g.needProc(3)
	nargs := int32(g.r.Intn(3))
	for i := int32(0); i < nargs; i++ {
		b.Op("PUSHL", asm.R(vax.R10))
	}
	b.Op("CALLS", asm.Lit(nargs), asm.LblAddr(proc))
}

func (g *generator) emitSubr() {
	b := g.b
	sub := numbered("sub", g.r.Intn(2))
	g.needSub(2)
	if g.r.Intn(2) == 0 {
		b.Br("BSBW", sub)
	} else {
		b.Op("JSB", asm.LblAddr(sub))
	}
}

func (g *generator) emitField() {
	b := g.b
	switch p := g.r.Float64(); {
	case p < 0.16:
		b.Op("EXTZV", asm.Lit(int32(g.r.Intn(20))), asm.Lit(int32(1+g.r.Intn(12))), asm.R(vax.R11), asm.R(vax.R10))
	case p < 0.28:
		b.Op("INSV", asm.R(vax.R10), asm.Lit(int32(g.r.Intn(20))), asm.Lit(int32(1+g.r.Intn(8))), asm.Def(vax.R6))
	case p < 0.36:
		b.Op("FFS", asm.Lit(0), asm.Lit(32), asm.R(vax.R11), asm.R(vax.R10))
	default: // bit branches are the bulk of FIELD (Table 2: 4.3%, 44% taken)
		skip := g.label("bb")
		pos := asm.Lit(int32(g.r.Intn(28)))
		switch g.r.Intn(5) {
		case 0:
			b.Br("BBS", skip, pos, asm.R(vax.R11)) // rotating flags: ~34%
		case 1:
			b.Br("BBS", skip, pos, asm.Def(vax.R6)) // data mostly small: rarely set
		case 2:
			b.Br("BBC", skip, pos, asm.R(vax.R11)) // ~66%
		case 3:
			b.Br("BBSS", skip, pos, asm.R(vax.R11)) // set...
		default:
			b.Br("BBCC", skip, pos, asm.R(vax.R11)) // ...and clear, balancing
		}
		if g.r.Intn(2) == 0 {
			b.Op("INCL", asm.D(g.dataOff(), vax.R6))
		} else {
			b.Op("INCL", asm.R(vax.R10))
		}
		b.Label(skip)
	}
}

func (g *generator) emitFloat() {
	b := g.b
	fc := asm.D(int32(strOff-32), vax.R7)
	dc := asm.D(int32(strOff-24), vax.R7)
	switch g.r.Intn(5) {
	case 0:
		b.Op("CVTLF", asm.R(vax.R8), asm.R(vax.R4))
		b.Op("ADDF2", fc, asm.R(vax.R4))
		b.Op("MULF2", asm.Lit(4<<3), asm.R(vax.R4))
		b.Op("CVTFL", asm.R(vax.R4), asm.R(vax.R9))
	case 1:
		b.Op("MOVF", fc, asm.R(vax.R4))
		b.Op("ADDF2", asm.Lit(2<<3), asm.R(vax.R4))
		b.Op("MULF2", asm.Lit(1<<3|4), asm.R(vax.R4))
		b.Op("SUBF2", asm.Lit(3<<3), asm.R(vax.R4))
	case 2:
		b.Op("MULL3", asm.R(vax.R10), asm.Lit(13), asm.R(vax.R5))
		b.Op("DIVL2", asm.Lit(7), asm.R(vax.R5))
	case 3:
		b.Op("MOVD", dc, asm.R(vax.R4))
		b.Op("ADDD2", asm.Lit(3<<3), asm.R(vax.R4))
		b.Op("CMPD", asm.R(vax.R4), dc)
	default:
		b.Op("EMUL", asm.R(vax.R10), asm.Lit(21), asm.R(vax.R10), asm.D(int32(strOff-16), vax.R7))
	}
}

func (g *generator) emitString() {
	b := g.b
	n := int32(g.cfg.StringLen/2 + g.r.Intn(g.cfg.StringLen))
	if n > 120 {
		n = 120
	}
	lenArg := func(v int32) asm.Arg {
		if v <= 63 {
			return asm.Lit(v)
		}
		return asm.Imm(uint64(uint16(v)))
	}
	src := asm.D(int32(strOff), vax.R7)
	dst := asm.D(int32(strDstOff), vax.R7)
	switch g.r.Intn(4) {
	case 0:
		b.Op("MOVC3", lenArg(n), src, dst)
	case 1:
		b.Op("CMPC3", lenArg(n), src, dst)
	case 2:
		b.Op("LOCC", asm.Imm(uint64('e')), lenArg(n), src)
	default:
		b.Op("MOVC5", lenArg(n/2), src, asm.Lit(int32(' ')), lenArg(n), dst)
	}
}

func (g *generator) emitDecimal() {
	b := g.b
	pk1 := asm.D(int32(strOff-64), vax.R7)
	pk2 := asm.D(int32(strOff-56), vax.R7)
	pk3 := asm.D(int32(strOff-48), vax.R7)
	switch g.r.Intn(4) {
	case 0:
		b.Op("ADDP4", asm.Lit(9), pk1, asm.Lit(9), pk2)
	case 1:
		b.Op("MOVP", asm.Lit(9), pk2, pk3)
	case 2:
		b.Op("CMPP3", asm.Lit(9), pk1, pk3)
	default:
		b.Op("CVTLP", asm.R(vax.R10), asm.Lit(9), pk1)
	}
}

func (g *generator) emitQueue() {
	b := g.b
	b.Op("MOVAL", asm.D(int32(strOff-88), vax.R7), asm.R(vax.R5))
	b.Op("INSQUE", asm.Def(vax.R5), asm.D(int32(strOff-96), vax.R7))
	b.Op("REMQUE", asm.Def(vax.R5), asm.R(vax.R4))
}

func (g *generator) emitSyscall() {
	b := g.b
	switch g.r.Intn(4) {
	case 0:
		b.Op("MOVAL", asm.D(int32(ioBufOff), vax.R7), asm.R(vax.R2))
		b.Op("MOVL", asm.Lit(48), asm.R(vax.R3))
		b.Op("CHMK", asm.Lit(1)) // terminal read
	case 1:
		b.Op("MOVAL", asm.D(int32(ioBufOff), vax.R7), asm.R(vax.R2))
		b.Op("MOVL", asm.Lit(48), asm.R(vax.R3))
		b.Op("CHMK", asm.Lit(2)) // terminal write
	case 2:
		b.Op("CHMK", asm.Lit(3)) // get time
	default:
		switch g.r.Intn(4) {
		case 0:
			b.Op("CHMK", asm.Lit(4)) // asynchronous disk transfer
		case 1:
			b.Op("CHMK", asm.Lit(0)) // yield (requests a reschedule)
		default:
			b.Op("CHMK", asm.Lit(3))
		}
	}
}

func (g *generator) needProc(n int) {
	if g.nProcs < n {
		g.nProcs = n
	}
}

func (g *generator) needSub(n int) {
	if g.nSubs < n {
		g.nSubs = n
	}
}

// emitProcedures generates the CALLS procedures and JSB subroutines.
// Entry masks save 3-6 registers, matching the paper's "about 8 registers
// pushed and popped" per CALL/RET (mask registers plus PC, FP, AP and the
// mask word).
func (g *generator) emitProcedures() {
	b := g.b
	for i := 0; i < g.nProcs; i++ {
		b.Label(numbered("proc", i))
		masks := []uint16{0x01C0, 0x03C0, 0x0FC0} // R6-R8, R6-R9, R6-R11
		b.Word(masks[i%len(masks)])
		// The callee re-derives its data base (R6/R7 are in the mask).
		b.Op("MOVAL", asm.LblAddr("data"), asm.R(vax.R6))
		b.Op("MOVL", asm.R(vax.R6), asm.R(vax.R7))
		body := 2 + g.r.Intn(3)
		for j := 0; j < body; j++ {
			g.aluBlock()
		}
		if i == 0 {
			b.Op("MOVC3", asm.Lit(24), asm.D(int32(strOff), vax.R7), asm.D(int32(strDstOff), vax.R7))
		}
		b.Op("RET")
	}
	for i := 0; i < g.nSubs; i++ {
		b.Label(numbered("sub", i))
		b.Op("PUSHL", asm.R(vax.R10))
		g.aluBlock()
		b.Op("MOVL", asm.Inc(vax.SP), asm.R(vax.R10))
		b.Op("RSB")
	}
}

// emitData lays out the 128 KB data region; queue nodes, packed decimals,
// float constants, strings and the I/O buffer live at fixed offsets from
// the base held in R7.
func (g *generator) emitData() {
	b := g.b
	b.Align(4)
	b.Grow(dataSize)
	b.Label("data")
	for i := 0; i < 256; i++ {
		b.Long(uint32(g.r.Intn(1 << 16)))
	}
	b.Space(strOff - 96 - 4*256)
	// Layout below the strings area:
	//   strOff-96: queue head   strOff-88: queue node
	//   strOff-64: pk1          strOff-56: pk2        strOff-48: pk3
	//   strOff-32: F constant   strOff-24: D constant strOff-16: EMUL dst
	b.Label("qhead")
	b.LongLabel("qhead")
	b.LongLabel("qhead")
	b.Long(0, 0) // queue node at strOff-88
	b.Space(16)
	b.Byte(0x12, 0x34, 0x56, 0x78, 0x9C) // pk1
	b.Space(3)
	b.Byte(0x00, 0x12, 0x34, 0x56, 0x7C) // pk2
	b.Space(3)
	b.Space(8) // pk3
	b.Space(8)
	b.Long(0x40490FDB) // F constant (model F_floating bits)
	b.Space(4)
	b.Quad(0x400921FB54442D18) // D constant
	b.Quad(0)                  // EMUL destination
	b.Space(8)
	text := "now is the time for all good users to share the processor; "
	for len(text) < 256 {
		text += "edit compile link run debug print mail "
	}
	b.Byte([]byte(text[:256])...)
	b.Space(4096 - 256)
	b.Space(4096) // string destination
	b.Space(64)   // I/O buffer
	b.Space(dataSize - (ioBufOff + 64))
}
