package asm

import (
	"bytes"
	"maps"
	"strings"
	"testing"

	"vax780/internal/vax"
)

func TestBuilderSimpleProgram(t *testing.T) {
	b := NewBuilder(0x1000)
	b.Label("start")
	b.Op("MOVL", Lit(5), R(vax.R0))
	b.Label("loop")
	b.Br("SOBGTR", "loop", R(vax.R0))
	b.Op("HALT")
	im, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if im.MustAddr("start") != 0x1000 {
		t.Errorf("start = %#x, want 0x1000", im.MustAddr("start"))
	}
	// MOVL S^#5, R0 = D0 05 50 (3 bytes); loop at 0x1003.
	if im.MustAddr("loop") != 0x1003 {
		t.Errorf("loop = %#x, want 0x1003", im.MustAddr("loop"))
	}
	// SOBGTR R0, loop = F5 50 <disp>; disp relative to 0x1006 -> -3.
	want := []byte{0xD0, 0x05, 0x50, 0xF5, 0x50, 0xFD, 0x00}
	if len(im.Bytes) != len(want) {
		t.Fatalf("image = % x, want % x", im.Bytes, want)
	}
	for i := range want {
		if im.Bytes[i] != want[i] {
			t.Fatalf("image[%d] = %#02x, want %#02x (image % x)", i, im.Bytes[i], want[i], im.Bytes)
		}
	}
}

func TestBuilderForwardReference(t *testing.T) {
	b := NewBuilder(0)
	b.Br("BRB", "fwd")
	b.Op("NOP")
	b.Op("NOP")
	b.Label("fwd")
	b.Op("HALT")
	im, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// BRB disp relative to address 2; fwd at 4 -> disp 2.
	if im.Bytes[1] != 2 {
		t.Errorf("BRB displacement = %d, want 2", int8(im.Bytes[1]))
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder(0)
	b.Br("BRB", "nowhere")
	if _, err := b.Finish(); err == nil {
		t.Error("undefined label should fail")
	}
}

func TestBuilderByteRangeError(t *testing.T) {
	b := NewBuilder(0)
	b.Br("BRB", "far")
	b.Space(200)
	b.Label("far")
	if _, err := b.Finish(); err == nil {
		t.Error("byte displacement of +198 should fail")
	}
}

func TestBuilderCaseTable(t *testing.T) {
	b := NewBuilder(0x100)
	b.Case("CASEL", R(vax.R0), Lit(0), Lit(2), "c0", "c1", "c2")
	b.Label("c0")
	b.Op("NOP")
	b.Label("c1")
	b.Op("NOP")
	b.Label("c2")
	b.Op("HALT")
	im, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// CASEL R0,S^#0,S^#2 = CF 50 00 02 then 3 word displacements from table
	// base 0x104; c0 = 0x10A -> 6, c1 -> 7, c2 -> 8.
	tab := im.Bytes[4:]
	wants := []int16{6, 7, 8}
	for i, w := range wants {
		got := int16(uint16(tab[2*i]) | uint16(tab[2*i+1])<<8)
		if got != w {
			t.Errorf("case entry %d = %d, want %d", i, got, w)
		}
	}
}

func TestTextAssembler(t *testing.T) {
	src := `
; a tiny program
start:	MOVL	#10, R0
	CLRL	R1
loop:	ADDL2	R0, R1
	SOBGTR	R0, loop
	MOVL	R1, @#0x2000
	HALT
data:	.long	0xdeadbeef, start
	.word	7
	.byte	1, 2, 3
	.ascii	"ok"
	.align	4
end:
`
	im, err := Assemble(0x400, src)
	if err != nil {
		t.Fatal(err)
	}
	if im.MustAddr("start") != 0x400 {
		t.Errorf("start = %#x", im.MustAddr("start"))
	}
	if im.MustAddr("end")%4 != 0 {
		t.Errorf("end %#x not aligned", im.MustAddr("end"))
	}
	// .long start must hold 0x400.
	d := im.MustAddr("data") - im.Org
	got := uint32(im.Bytes[d+4]) | uint32(im.Bytes[d+5])<<8 | uint32(im.Bytes[d+6])<<16 | uint32(im.Bytes[d+7])<<24
	if got != 0x400 {
		t.Errorf(".long start = %#x, want 0x400", got)
	}
	// Round trip: the code region must disassemble.
	text, n, err := DisasmOne(im.Bytes, im.Org, 0)
	if err != nil || n == 0 {
		t.Fatalf("disasm: %v", err)
	}
	if !strings.HasPrefix(text, "MOVL") {
		t.Errorf("disasm = %q", text)
	}
}

func TestTextOperandForms(t *testing.T) {
	src := `
top:	MOVL	(R1), R2
	MOVL	(R1)+, R2
	MOVL	-(R1), R2
	MOVL	@(R1)+, R2
	MOVL	8(R3), R2
	MOVL	B^8(R3), R2
	MOVL	W^300(R3), R2
	MOVL	L^70000(R3), R2
	MOVL	@12(FP), R2
	MOVL	4(R5)[R6], R2
	MOVL	I^#100, R2
	MOVL	S^#3, R2
	MOVL	#200, R2
	MOVL	@#0x8000, R2
	JSB	top
	HALT
`
	im, err := Assemble(0x1000, src)
	if err != nil {
		t.Fatal(err)
	}
	// Every statement must disassemble cleanly until HALT.
	off := uint32(0)
	count := 0
	for off < uint32(len(im.Bytes)) {
		_, n, err := DisasmOne(im.Bytes, im.Org, off)
		if err != nil {
			t.Fatalf("disasm at +%#x: %v", off, err)
		}
		off += uint32(n)
		count++
	}
	if count != 16 {
		t.Errorf("decoded %d instructions, want 16", count)
	}
}

func TestTextErrors(t *testing.T) {
	bad := []string{
		"FROB R1",            // unknown mnemonic
		"MOVL R1",            // operand count
		"MOVL R1, R2, R3",    // operand count
		"MOVL #zork, R1",     // bad integer
		"MOVL (R99), R1",     // bad register
		".weird 1",           // unknown directive
		"BRB",                // missing target
		"MOVL label[R1], R0", // indexed label
	}
	for _, src := range bad {
		if _, err := Assemble(0, src); err == nil {
			t.Errorf("Assemble(%q) should fail", src)
		}
	}
}

func TestListingContainsLabels(t *testing.T) {
	im, err := Assemble(0, "a: NOP\nb: HALT\n")
	if err != nil {
		t.Fatal(err)
	}
	l := Listing(im)
	if !strings.Contains(l, "a:") || !strings.Contains(l, "b:") || !strings.Contains(l, "NOP") {
		t.Errorf("listing missing pieces:\n%s", l)
	}
}

func TestImmediateVsLiteralSelection(t *testing.T) {
	// #n with a write-access operand must not become a short literal.
	im, err := Assemble(0, "MOVL #5, R0\nCLRL R1\n")
	if err != nil {
		t.Fatal(err)
	}
	if im.Bytes[1] != 0x05 {
		t.Errorf("read access #5 should be short literal, got %#02x", im.Bytes[1])
	}
	in, err := vax.Decode(im.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	if in.Specs[0].Mode != vax.ModeLiteral {
		t.Errorf("mode = %v, want literal", in.Specs[0].Mode)
	}
}

func TestSymbolExpressions(t *testing.T) {
	im, err := Assemble(0x1000, `
	MOVAL	tbl+8, R1	; PC-relative label+offset
	MOVL	@#tbl+4, R2	; absolute label+offset
	HALT
tbl:	.long	10, 20, 30
ptr:	.long	tbl+8, tbl-4
`)
	if err != nil {
		t.Fatal(err)
	}
	m := mustRunAsm(t, im)
	tbl := im.MustAddr("tbl")
	if m.regs[1] != tbl+8 {
		t.Errorf("R1 = %#x, want tbl+8 = %#x", m.regs[1], tbl+8)
	}
	if m.regs[2] != 20 {
		t.Errorf("R2 = %d, want 20 (tbl[1])", m.regs[2])
	}
	p := im.MustAddr("ptr") - im.Org
	got := uint32(im.Bytes[p]) | uint32(im.Bytes[p+1])<<8 | uint32(im.Bytes[p+2])<<16 | uint32(im.Bytes[p+3])<<24
	if got != tbl+8 {
		t.Errorf(".long tbl+8 = %#x, want %#x", got, tbl+8)
	}
	got2 := uint32(im.Bytes[p+4]) | uint32(im.Bytes[p+5])<<8 | uint32(im.Bytes[p+6])<<16 | uint32(im.Bytes[p+7])<<24
	if got2 != tbl-4 {
		t.Errorf(".long tbl-4 = %#x, want %#x", got2, tbl-4)
	}
}

// mustRunAsm is a tiny interpreter-free check: the asm package cannot
// import cpu (the dependency points the other way), so we decode the two
// MOVALs/MOVLs ourselves via the disassembler to validate the fixups, and
// return the addresses the operands resolve to.
type asmProbe struct{ regs [16]uint32 }

func mustRunAsm(t *testing.T, im *Image) *asmProbe {
	t.Helper()
	p := &asmProbe{}
	// Instruction 1: MOVAL L^disp(PC), R1 -> effective = pc-after + disp.
	in, err := vax.Decode(im.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	if in.Specs[0].Mode != vax.ModeLongDisp || in.Specs[0].Base != vax.PC {
		t.Fatalf("first operand not PC-relative: %+v", in.Specs[0])
	}
	// The displacement is relative to the address after the specifier,
	// which is the last byte of the instruction minus the R1 specifier.
	pcAfter := im.Org + uint32(in.Size) - 1 // one byte for the R1 specifier
	p.regs[1] = pcAfter + uint32(in.Specs[0].Disp)
	// Instruction 2: MOVL @#addr, R2.
	in2, err := vax.Decode(im.Bytes[in.Size:])
	if err != nil {
		t.Fatal(err)
	}
	if in2.Specs[0].Mode != vax.ModeAbsolute {
		t.Fatalf("second operand not absolute: %+v", in2.Specs[0])
	}
	addr := uint32(in2.Specs[0].Imm)
	off := addr - im.Org
	p.regs[2] = uint32(im.Bytes[off]) | uint32(im.Bytes[off+1])<<8 |
		uint32(im.Bytes[off+2])<<16 | uint32(im.Bytes[off+3])<<24
	return p
}

func TestOrgBackwardFails(t *testing.T) {
	if _, err := Assemble(0x1000, ".space 64\n.org 0x1010\n"); err == nil {
		t.Error(".org behind the current address should fail")
	}
}

// TestBadSpaceAndAlignFail: a negative .space, or an .align that is not
// a power of two from 1 to 2^31, is an error naming the directive. Each
// used to panic (.space -1 in make, .align 0 dividing by zero) or, for a
// negative .align, append zero bytes until memory ran out.
func TestBadSpaceAndAlignFail(t *testing.T) {
	for _, src := range []string{
		".space -1", ".space -4096",
		".align 0", ".align -4", ".align 3", ".align 12", ".align 0x100000000",
	} {
		_, err := Assemble(0x1000, ".byte 1\n"+src+"\n")
		directive, _, _ := strings.Cut(src, " ")
		if err == nil || !strings.Contains(err.Error(), directive) {
			t.Errorf("%q: err = %v, want an error naming %s", src, err, directive)
		}
	}
	for _, src := range []string{".space 0", ".align 1", ".align 0x80000000"} {
		if _, err := Assemble(0, src+"\n"); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
}

// flat returns an image as it lies in memory from Org, with its reserved
// runs as zeros.
func flat(im *Image) []byte {
	b := make([]byte, im.Size())
	im.Segments(func(addr uint32, s []byte) { copy(b[addr-im.Org:], s) })
	return b
}

// TestReserveMatchesSpace assembles one program with its zero runs
// reserved and with them stored. Labels after a run, .long and @# label
// cells, a PC-relative operand and branch displacements reach across the
// runs; the two versions must be the same program byte for byte.
func TestReserveMatchesSpace(t *testing.T) {
	for _, n := range []int{1, 511, 512, 4096, 101280} {
		build := func(zero func(b *Builder, n int)) *Image {
			t.Helper()
			b := NewBuilder(0x200)
			b.Label("start")
			if n <= 4096 {
				b.Br("BRW", "after")
			}
			b.Op("MOVAL", LblAddr("after"), R(vax.R0))
			b.Op("MOVL", LblAbsOff("after", 4), R(vax.R1))
			b.LongLabelOff("after", 8)
			b.Label("run")
			zero(b, n)
			b.Label("after")
			b.LongLabel("start")
			if n <= 4096 {
				b.Br("BRW", "start")
			}
			b.Op("JMP", LblAddr("run"))
			zero(b, n) // a trailing run
			im, err := b.Finish()
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			return im
		}
		stored := build((*Builder).Space)
		reserved := build((*Builder).Reserve)
		split := build(func(b *Builder, n int) { b.Reserve(n / 2); b.Reserve(n - n/2) })
		for _, c := range []struct {
			name string
			im   *Image
		}{{"Reserve", reserved}, {"two Reserves", split}} {
			im := c.im
			if im.Size() != stored.Size() || !bytes.Equal(flat(im), stored.Bytes) {
				t.Errorf("n=%d %s: %d bytes differ from Space's %d", n, c.name, im.Size(), stored.Size())
			}
			if !maps.Equal(im.Labels, stored.Labels) {
				t.Errorf("n=%d %s: labels %v, Space gives %v", n, c.name, im.Labels, stored.Labels)
			}
			if len(im.Bytes) != len(stored.Bytes)-2*n || len(im.holes) != 2 {
				t.Errorf("n=%d %s: stores %d bytes with %d holes, want %d bytes with 2 (adjacent runs merge)",
					n, c.name, len(im.Bytes), len(im.holes), len(stored.Bytes)-2*n)
			}
			// Each stored byte once, in address order: one run before
			// the first hole, one between the holes, none after.
			var runs int
			var got []byte
			next := im.Org
			im.Segments(func(addr uint32, b []byte) {
				if addr < next || len(b) == 0 {
					t.Errorf("n=%d %s: run of %d bytes at %#x, after %#x", n, c.name, len(b), addr, next)
				}
				runs++
				got = append(got, b...)
				next = addr + uint32(len(b))
			})
			if runs != 2 || !bytes.Equal(got, im.Bytes) {
				t.Errorf("n=%d %s: Segments visits %d runs of %d bytes, want 2 runs of the %d stored", n, c.name, runs, len(got), len(im.Bytes))
			}
		}
	}
}
