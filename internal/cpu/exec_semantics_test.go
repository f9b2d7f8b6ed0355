package cpu

import (
	"testing"

	"vax780/internal/vax"
)

// semCase runs a program and checks register/memory results — one
// behavioural check per implemented opcode (or family member).
type semCase struct {
	name string
	src  string
	regs map[vax.Reg]uint32 // expected register values after HALT
	mem  map[uint32]uint32  // expected longwords after HALT
	cc   string             // expected condition codes, e.g. "Z", "NC", "" (unchecked)
}

func ccString(psl uint32) string {
	s := ""
	if psl&vax.PSLN != 0 {
		s += "N"
	}
	if psl&vax.PSLZ != 0 {
		s += "Z"
	}
	if psl&vax.PSLV != 0 {
		s += "V"
	}
	if psl&vax.PSLC != 0 {
		s += "C"
	}
	return s
}

func runSemCases(t *testing.T, cases []semCase) {
	t.Helper()
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			m, _ := run(t, c.src)
			for r, want := range c.regs {
				if got := m.R[r]; got != want {
					t.Errorf("%s = %#x, want %#x", r, got, want)
				}
			}
			for addr, want := range c.mem {
				if got := m.Mem.ReadLong(addr); got != want {
					t.Errorf("mem[%#x] = %#x, want %#x", addr, got, want)
				}
			}
			if c.cc != "" {
				if got := ccString(m.PSL); got != c.cc {
					t.Errorf("cc = %q, want %q", got, c.cc)
				}
			}
		})
	}
}

func TestSemanticsMoves(t *testing.T) {
	runSemCases(t, []semCase{
		{"MOVB", "MOVL #0xAABBCCDD, R1\nMOVB #0x7F, R1\nHALT", map[vax.Reg]uint32{vax.R1: 0xAABBCC7F}, nil, ""},
		{"MOVW", "MOVL #0xAABBCCDD, R1\nMOVW #0x1234, R1\nHALT", map[vax.Reg]uint32{vax.R1: 0xAABB1234}, nil, ""},
		{"MOVL", "MOVL #0x12345678, R1\nHALT", map[vax.Reg]uint32{vax.R1: 0x12345678}, nil, ""},
		{"MOVQ", "MOVL #0x2000, R0\nMOVL #17, (R0)\nMOVL #42, 4(R0)\nMOVQ (R0), R2\nHALT",
			map[vax.Reg]uint32{vax.R2: 17, vax.R3: 42}, nil, ""},
		{"MOVZBL", "MOVL #0xFFFFFFFF, R1\nMOVB #0x80, R2\nMOVZBL R2, R1\nHALT",
			map[vax.Reg]uint32{vax.R1: 0x80}, nil, ""},
		{"MOVZBW", "MOVL #0xFFFFFFFF, R1\nMOVB #0xFF, R2\nMOVZBW R2, R1\nHALT",
			map[vax.Reg]uint32{vax.R1: 0xFFFF00FF}, nil, ""},
		{"MOVZWL", "MOVL #0xFFFFFFFF, R1\nMOVW #0x8000, R2\nMOVZWL R2, R1\nHALT",
			map[vax.Reg]uint32{vax.R1: 0x8000}, nil, ""},
		{"MCOML", "MOVL #0x0F0F0F0F, R1\nMCOML R1, R2\nHALT", map[vax.Reg]uint32{vax.R2: 0xF0F0F0F0}, nil, ""},
		{"MCOMB", "MOVL #0, R2\nMCOMB #0x0F, R2\nHALT", map[vax.Reg]uint32{vax.R2: 0xF0}, nil, ""},
		{"MNEGL", "MOVL #5, R1\nMNEGL R1, R2\nHALT", map[vax.Reg]uint32{vax.R2: 0xFFFFFFFB}, nil, ""},
		{"MNEGB", "CLRL R2\nMNEGB #1, R2\nHALT", map[vax.Reg]uint32{vax.R2: 0xFF}, nil, ""},
		{"MNEGW", "CLRL R2\nMNEGW #2, R2\nHALT", map[vax.Reg]uint32{vax.R2: 0xFFFE}, nil, ""},
		{"CLRL", "MOVL #7, R1\nCLRL R1\nHALT", map[vax.Reg]uint32{vax.R1: 0}, nil, "Z"},
		{"CLRQ", "MOVL #7, R2\nMOVL #8, R3\nCLRQ R2\nHALT", map[vax.Reg]uint32{vax.R2: 0, vax.R3: 0}, nil, ""},
		{"CLRB-partial", "MOVL #0xAABBCCDD, R1\nCLRB R1\nHALT", map[vax.Reg]uint32{vax.R1: 0xAABBCC00}, nil, ""},
		{"MOVAL", "MOVAL @#0x3000, R1\nHALT", map[vax.Reg]uint32{vax.R1: 0x3000}, nil, ""},
		{"MOVAW", "MOVL #0x2000, R2\nMOVAW 6(R2), R1\nHALT", map[vax.Reg]uint32{vax.R1: 0x2006}, nil, ""},
		{"MOVAQ", "MOVL #0x2000, R2\nMOVAQ 8(R2), R1\nHALT", map[vax.Reg]uint32{vax.R1: 0x2008}, nil, ""},
	})
}

func TestSemanticsArithmetic(t *testing.T) {
	runSemCases(t, []semCase{
		{"ADDL2", "MOVL #3, R1\nADDL2 #4, R1\nHALT", map[vax.Reg]uint32{vax.R1: 7}, nil, ""},
		{"ADDL3", "ADDL3 #3, #4, R1\nHALT", map[vax.Reg]uint32{vax.R1: 7}, nil, ""},
		{"ADDB2-wrap", "MOVL #0xFF, R1\nADDB2 #1, R1\nHALT", map[vax.Reg]uint32{vax.R1: 0}, nil, ""},
		{"ADDW3", "ADDW3 #0x7000, #0x1000, R1\nHALT", map[vax.Reg]uint32{vax.R1: 0x8000}, nil, ""},
		{"SUBL2", "MOVL #10, R1\nSUBL2 #3, R1\nHALT", map[vax.Reg]uint32{vax.R1: 7}, nil, ""},
		{"SUBL3", "SUBL3 #3, #10, R1\nHALT", map[vax.Reg]uint32{vax.R1: 7}, nil, ""},
		{"SUBB3", "SUBB3 #1, #0, R1\nHALT", map[vax.Reg]uint32{vax.R1: 0xFF}, nil, ""},
		{"SUBW2", "MOVW #5, R1\nSUBW2 #6, R1\nHALT", map[vax.Reg]uint32{vax.R1: 0xFFFF}, nil, ""},
		{"INCL", "MOVL #41, R1\nINCL R1\nHALT", map[vax.Reg]uint32{vax.R1: 42}, nil, ""},
		{"DECL-tozero", "MOVL #1, R1\nDECL R1\nHALT", map[vax.Reg]uint32{vax.R1: 0}, nil, "Z"},
		{"INCB-wrap", "MOVL #0xFF, R1\nINCB R1\nHALT", map[vax.Reg]uint32{vax.R1: 0}, nil, ""},
		{"ADWC", "MOVL #0xFFFFFFFF, R1\nADDL2 #1, R1\nMOVL #5, R2\nADWC #0, R2\nHALT",
			map[vax.Reg]uint32{vax.R2: 6}, nil, ""}, // carry from the ADDL2 flows in
		{"SBWC", "MOVL #0, R1\nSUBL2 #1, R1\nMOVL #5, R2\nSBWC #0, R2\nHALT",
			map[vax.Reg]uint32{vax.R2: 4}, nil, ""}, // borrow flows in
		{"ADAWI", "MOVW #100, R1\nADAWI #3, R1\nHALT", map[vax.Reg]uint32{vax.R1: 103}, nil, ""},
		{"MULL3", "MULL3 #7, #6, R1\nHALT", map[vax.Reg]uint32{vax.R1: 42}, nil, ""},
		{"MULL2-neg", "MOVL #3, R1\nMNEGL R1, R1\nMULL2 #5, R1\nHALT",
			map[vax.Reg]uint32{vax.R1: 0xFFFFFFF1}, nil, ""}, // -15
		{"DIVL3", "DIVL3 #4, #22, R1\nHALT", map[vax.Reg]uint32{vax.R1: 5}, nil, ""},
		{"DIVL2-by-zero-sets-V", "MOVL #9, R1\nDIVL2 #0, R1\nHALT", nil, nil, "V"},
		{"EMUL", "EMUL #100000, #100000, #7, R2\nHALT",
			map[vax.Reg]uint32{vax.R2: 0x540BE407, vax.R3: 0x2}, nil, ""}, // 10^10+7
		{"EDIV", "MOVL #0, R3\nMOVL #100, R2\nEDIV #7, R2, R4, R5\nHALT",
			map[vax.Reg]uint32{vax.R4: 14, vax.R5: 2}, nil, ""},
	})
}

func TestSemanticsConverts(t *testing.T) {
	runSemCases(t, []semCase{
		{"CVTBL-sext", "CLRL R1\nMOVB #0x80, R2\nCVTBL R2, R1\nHALT",
			map[vax.Reg]uint32{vax.R1: 0xFFFFFF80}, nil, ""},
		{"CVTBW-sext", "CLRL R1\nMOVB #0xFF, R2\nCVTBW R2, R1\nHALT",
			map[vax.Reg]uint32{vax.R1: 0xFFFF}, nil, ""},
		{"CVTWL-sext", "CLRL R1\nMOVW #0x8000, R2\nCVTWL R2, R1\nHALT",
			map[vax.Reg]uint32{vax.R1: 0xFFFF8000}, nil, ""},
		{"CVTLB-narrow", "CLRL R1\nMOVL #0x17F, R2\nCVTLB R2, R1\nHALT",
			map[vax.Reg]uint32{vax.R1: 0x7F}, nil, "V"}, // 383 overflows a byte
		{"CVTLW-fits", "CLRL R1\nMOVL #0x1234, R2\nCVTLW R2, R1\nHALT",
			map[vax.Reg]uint32{vax.R1: 0x1234}, nil, ""},
		{"CVTWB-fits", "CLRL R1\nMOVW #0x44, R2\nCVTWB R2, R1\nHALT",
			map[vax.Reg]uint32{vax.R1: 0x44}, nil, ""},
	})
}

func TestSemanticsBooleansAndShifts(t *testing.T) {
	runSemCases(t, []semCase{
		{"BISL2", "MOVL #0x0F, R1\nBISL2 #0xF0, R1\nHALT", map[vax.Reg]uint32{vax.R1: 0xFF}, nil, ""},
		{"BISL3", "BISL3 #0x0F, #0x30, R1\nHALT", map[vax.Reg]uint32{vax.R1: 0x3F}, nil, ""},
		{"BICL2", "MOVL #0xFF, R1\nBICL2 #0x0F, R1\nHALT", map[vax.Reg]uint32{vax.R1: 0xF0}, nil, ""},
		{"BICL3", "BICL3 #0x3C, #0xFF, R1\nHALT", map[vax.Reg]uint32{vax.R1: 0xC3}, nil, ""},
		{"XORL2", "MOVL #0xFF, R1\nXORL2 #0x0F, R1\nHALT", map[vax.Reg]uint32{vax.R1: 0xF0}, nil, ""},
		{"XORL3", "XORL3 #0x3C, #0xFF, R1\nHALT", map[vax.Reg]uint32{vax.R1: 0xC3}, nil, ""},
		{"BISB2-partial", "MOVL #0xAABB0000, R1\nBISB2 #0x0F, R1\nHALT",
			map[vax.Reg]uint32{vax.R1: 0xAABB000F}, nil, ""},
		{"BICW3", "CLRL R1\nBICW3 #0x0FF0, #0xFFFF, R1\nHALT", map[vax.Reg]uint32{vax.R1: 0xF00F}, nil, ""},
		{"XORW2", "MOVW #0xAAAA, R1\nXORW2 #0xFFFF, R1\nHALT", map[vax.Reg]uint32{vax.R1: 0x5555}, nil, ""},
		{"ASHL-left", "ASHL #4, #3, R1\nHALT", map[vax.Reg]uint32{vax.R1: 48}, nil, ""},
		{"ASHL-right", "MOVL #0x80, R2\nMNEGL #0, R3\nASHL I^#-3, R2, R1\nHALT",
			map[vax.Reg]uint32{vax.R1: 0x10}, nil, ""},
		{"ROTL", "ROTL #8, #0x11, R1\nHALT", map[vax.Reg]uint32{vax.R1: 0x1100}, nil, ""},
		{"ASHQ", "MOVL #1, R2\nCLRL R3\nASHQ #33, R2, R4\nHALT",
			map[vax.Reg]uint32{vax.R4: 0, vax.R5: 2}, nil, ""},
	})
}

func TestSemanticsCompares(t *testing.T) {
	runSemCases(t, []semCase{
		{"CMPL-less", "MOVL #3, R1\nCMPL R1, #5\nHALT", nil, nil, "NC"},
		{"CMPL-equal", "MOVL #5, R1\nCMPL R1, #5\nHALT", nil, nil, "Z"},
		{"CMPL-signed-vs-unsigned", "MNEGL #1, R1\nCMPL R1, #1\nHALT", nil, nil, "N"}, // -1 < 1 signed, > unsigned
		{"TSTL-neg", "MNEGL #7, R1\nTSTL R1\nHALT", nil, nil, "N"},
		{"TSTL-zero", "CLRL R1\nTSTL R1\nHALT", nil, nil, "Z"},
		{"BITL-hit", "MOVL #0x0F, R1\nBITL #0x08, R1\nHALT", nil, nil, ""},
		{"BITL-miss", "MOVL #0x0F, R1\nBITL #0x10, R1\nHALT", nil, nil, "Z"},
		{"CMPB", "MOVB #0x80, R1\nCMPB R1, #1\nHALT", nil, nil, "N"}, // signed byte -128 < 1
		{"CMPW", "MOVW #2, R1\nCMPW R1, #2\nHALT", nil, nil, "Z"},
	})
}

func TestSemanticsFloat(t *testing.T) {
	runSemCases(t, []semCase{
		{"ADDF-chain", "CVTLF #10, R1\nCVTLF #32, R2\nADDF2 R1, R2\nCVTFL R2, R3\nHALT",
			map[vax.Reg]uint32{vax.R3: 42}, nil, ""},
		{"SUBF3", "CVTLF #50, R1\nCVTLF #8, R2\nSUBF3 R2, R1, R4\nCVTFL R4, R3\nHALT",
			map[vax.Reg]uint32{vax.R3: 42}, nil, ""},
		{"MULF-literal", "CVTLF #21, R1\nMULF2 S^#16, R1\nCVTFL R1, R3\nHALT",
			map[vax.Reg]uint32{vax.R3: 42}, nil, ""}, // short literal 16 = 2.0
		{"DIVF", "CVTLF #84, R1\nDIVF2 S^#16, R1\nCVTFL R1, R3\nHALT",
			map[vax.Reg]uint32{vax.R3: 42}, nil, ""},
		{"MNEGF", "CVTLF #42, R1\nMNEGF R1, R2\nCVTFL R2, R3\nHALT",
			map[vax.Reg]uint32{vax.R3: 0xFFFFFFD6}, nil, ""},
		{"CMPF", "CVTLF #1, R1\nCVTLF #2, R2\nCMPF R1, R2\nHALT", nil, nil, "N"},
		{"TSTF-zero", "CVTLF #0, R1\nTSTF R1\nHALT", nil, nil, "Z"},
		{"MOVD-pair", "MOVL #0x2000, R0\nMOVL #0x11111111, (R0)\nMOVL #0x22222222, 4(R0)\nMOVD (R0), R2\nHALT",
			map[vax.Reg]uint32{vax.R2: 0x11111111, vax.R3: 0x22222222}, nil, ""},
		{"ADDD", "MOVL #0x2000, R0\nCLRQ (R0)\nMOVD (R0), R2\nADDD2 S^#8, R2\nADDD2 S^#8, R2\nCMPD R2, S^#16\nHALT",
			nil, nil, "Z"}, // 0 + 1.0 + 1.0 == 2.0
	})
}

func TestSemanticsControlFlow(t *testing.T) {
	runSemCases(t, []semCase{
		{"BRW-far", "BRW far\nMOVL #1, R1\nfar: MOVL #2, R2\nHALT",
			map[vax.Reg]uint32{vax.R1: 0, vax.R2: 2}, nil, ""},
		{"BGTRU-unsigned", "MNEGL #1, R1\nCMPL R1, #1\nBGTRU big\nMOVL #1, R3\nbig: HALT",
			map[vax.Reg]uint32{vax.R3: 0}, nil, ""}, // 0xFFFFFFFF > 1 unsigned
		{"BVS-overflow", "MOVL #0x7FFFFFFF, R1\nADDL2 #1, R1\nBVS ov\nMOVL #1, R3\nov: HALT",
			map[vax.Reg]uint32{vax.R3: 0}, nil, ""},
		{"BCC-carry-clear", "MOVL #1, R1\nADDL2 #1, R1\nBCC ok\nMOVL #1, R3\nok: HALT",
			map[vax.Reg]uint32{vax.R3: 0}, nil, ""},
		{"SOBGEQ-runs-n-plus-1", "CLRL R2\nMOVL #3, R1\nl: INCL R2\nSOBGEQ R1, l\nHALT",
			map[vax.Reg]uint32{vax.R2: 4}, nil, ""},
		{"AOBLEQ", "CLRL R2\nCLRL R1\nl: INCL R2\nAOBLEQ #3, R1, l\nHALT",
			map[vax.Reg]uint32{vax.R2: 4}, nil, ""},
		{"ACBL-step2", "CLRL R2\nMOVL #1, R1\nl: INCL R2\nACBL #10, #2, R1, l\nHALT",
			map[vax.Reg]uint32{vax.R2: 5, vax.R1: 11}, nil, ""},
		{"BLBC", "MOVL #2, R1\nBLBC R1, even\nMOVL #1, R3\neven: HALT",
			map[vax.Reg]uint32{vax.R3: 0}, nil, ""},
		{"JSB-RSB-nested", `
	MOVL #1, R1
	JSB s1
	HALT
s1:	ADDL2 #10, R1
	JSB s2
	ADDL2 #100, R1
	RSB
s2:	ADDL2 #1000, R1
	RSB`, map[vax.Reg]uint32{vax.R1: 1111}, nil, ""},
		{"CASEB", "MOVB #2, R0\nCASEB R0, #1, #2, c1, c2\nMOVL #9, R5\nBRB d\nc1: MOVL #1, R5\nBRB d\nc2: MOVL #2, R5\nd: HALT",
			map[vax.Reg]uint32{vax.R5: 2}, nil, ""},
	})
}

func TestSemanticsFieldOps(t *testing.T) {
	runSemCases(t, []semCase{
		{"EXTV-signed", "MOVL #0xF0, R1\nEXTV #4, #4, R1, R2\nHALT",
			map[vax.Reg]uint32{vax.R2: 0xFFFFFFFF}, nil, ""}, // field 1111 sign-extends
		{"EXTZV-crossing", "MOVL #0x2000, R0\nMOVL #0x80000000, (R0)\nMOVL #1, 4(R0)\nEXTZV #31, #2, (R0), R2\nHALT",
			map[vax.Reg]uint32{vax.R2: 3}, nil, ""}, // bits 31..32 across longwords
		{"INSV-register-field", "CLRL R1\nINSV #5, #8, #4, R1\nHALT",
			map[vax.Reg]uint32{vax.R1: 0x500}, nil, ""},
		{"FFS-found", "MOVL #0x10, R1\nFFS #0, #32, R1, R2\nHALT",
			map[vax.Reg]uint32{vax.R2: 4}, nil, ""},
		{"FFS-empty-sets-Z", "CLRL R1\nFFS #0, #32, R1, R2\nHALT",
			map[vax.Reg]uint32{vax.R2: 32}, nil, "Z"},
		{"FFC", "MOVL #0x03, R1\nFFC #0, #32, R1, R2\nHALT",
			map[vax.Reg]uint32{vax.R2: 2}, nil, ""},
		{"CMPV", "MOVL #0x70, R1\nCMPV #4, #4, R1, #7\nHALT", nil, nil, "Z"},
		{"CMPZV", "MOVL #0xF0, R1\nCMPZV #4, #4, R1, #15\nHALT", nil, nil, "Z"},
		{"BBSSI", "CLRL R1\nBBSSI #3, R1, was\nMOVL #1, R2\nwas: HALT",
			map[vax.Reg]uint32{vax.R1: 8, vax.R2: 1}, nil, ""},
		{"BBCCI", "MOVL #8, R1\nBBCCI #3, R1, was\nMOVL #1, R2\nwas: HALT",
			// Bit 3 was set: no branch (BBCC branches on clear), but the
			// interlocked clear still happens.
			map[vax.Reg]uint32{vax.R1: 0, vax.R2: 1}, nil, ""},
	})
}

func TestSemanticsStrings(t *testing.T) {
	runSemCases(t, []semCase{
		{"MOVC5-fill", `
	MOVC5 #3, src, #0x2A, #6, dst
	HALT
src:	.ascii "abcxxx"
dst:	.space 8`, map[vax.Reg]uint32{vax.R0: 0}, nil, ""},
		{"CMPC3-equal-sets-Z", `
	MOVC3 #8, a, b
	CMPC3 #8, a, b
	HALT
a:	.ascii "samesame"
b:	.space 8`, nil, nil, "Z"},
		{"SKPC", `
	SKPC #0x20, #6, s	; skip leading spaces
	HALT
s:	.ascii "   abc"`, map[vax.Reg]uint32{vax.R0: 3}, nil, ""},
		{"SCANC", `
	SCANC #6, s, tbl, #1
	HALT
s:	.ascii "abc!de"
tbl:	.space 33
	.byte 1		; table['!'] = 1
	.space 94`, map[vax.Reg]uint32{vax.R0: 3}, nil, ""},
		{"SPANC", `
	SPANC #6, s, tbl, #1
	HALT
s:	.ascii "!!?abc"
tbl:	.space 33
	.byte 1		; table['!'] = 1
	.space 94`, map[vax.Reg]uint32{vax.R0: 4}, nil, ""},
	})
}

func TestSemanticsDecimal(t *testing.T) {
	runSemCases(t, []semCase{
		{"SUBP4", `
	CVTLP #500, #5, pk1
	CVTLP #123, #5, pk2
	SUBP4 #5, pk2, #5, pk1	; pk1 -= pk2
	CVTPL #5, pk1, R7
	HALT
pk1:	.space 4
pk2:	.space 4`, map[vax.Reg]uint32{vax.R7: 377}, nil, ""},
		{"ADDP6", `
	CVTLP #111, #5, pk1
	CVTLP #222, #5, pk2
	ADDP6 #5, pk1, #5, pk2, #5, pk3
	CVTPL #5, pk3, R7
	HALT
pk1:	.space 4
pk2:	.space 4
pk3:	.space 4`, map[vax.Reg]uint32{vax.R7: 333}, nil, ""},
		{"MULP", `
	CVTLP #12, #5, pk1
	CVTLP #11, #5, pk2
	MULP #5, pk1, #5, pk2, #9, pk3
	CVTPL #9, pk3, R7
	HALT
pk1:	.space 4
pk2:	.space 4
pk3:	.space 8`, map[vax.Reg]uint32{vax.R7: 132}, nil, ""},
		{"DIVP", `
	CVTLP #7, #5, pk1
	CVTLP #100, #5, pk2
	DIVP #5, pk1, #5, pk2, #5, pk3
	CVTPL #5, pk3, R7
	HALT
pk1:	.space 4
pk2:	.space 4
pk3:	.space 4`, map[vax.Reg]uint32{vax.R7: 14}, nil, ""},
		{"CMPP3-less", `
	CVTLP #5, #5, pk1
	CVTLP #9, #5, pk2
	CMPP3 #5, pk1, pk2
	HALT
pk1:	.space 4
pk2:	.space 4`, nil, nil, "N"},
		{"ASHP-up", `
	CVTLP #42, #5, pk1
	ASHP #2, #5, pk1, #0, #7, pk2
	CVTPL #7, pk2, R7
	HALT
pk1:	.space 4
pk2:	.space 8`, map[vax.Reg]uint32{vax.R7: 4200}, nil, ""},
		{"negative-packed", `
	MNEGL #250, R1
	CVTLP R1, #5, pk1
	CVTPL #5, pk1, R7
	HALT
pk1:	.space 4`, map[vax.Reg]uint32{vax.R7: 0xFFFFFF06}, nil, "N"},
	})
}

func TestSemanticsAddressingEdge(t *testing.T) {
	runSemCases(t, []semCase{
		{"autodec-autoinc-pair", `
	MOVL #0x2010, R1
	MOVL #77, -(R1)		; writes 0x200C, R1 = 0x200C
	MOVL (R1)+, R2		; reads it back, R1 = 0x2010
	HALT`, map[vax.Reg]uint32{vax.R1: 0x2010, vax.R2: 77}, map[uint32]uint32{0x200C: 77}, ""},
		{"autoinc-byte-steps-1", `
	MOVL #0x2000, R1
	MOVB #1, (R1)+
	MOVB #2, (R1)+
	HALT`, map[vax.Reg]uint32{vax.R1: 0x2002}, nil, ""},
		{"deferred-displacement", `
	MOVL #0x2100, R1
	MOVL #0x2200, 8(R1)	; pointer stored at 0x2108
	MOVL #99, @8(R1)	; through it
	HALT`, nil, map[uint32]uint32{0x2200: 99}, ""},
		{"autoinc-deferred", `
	MOVL #0x2100, R1
	MOVL #0x2300, (R1)
	MOVL #55, @(R1)+
	HALT`, map[vax.Reg]uint32{vax.R1: 0x2104}, map[uint32]uint32{0x2300: 55}, ""},
		{"indexed-scales-by-size", `
	MOVL #0x2000, R1
	MOVL #3, R2
	MOVW #7, 0(R1)[R2]	; word indexing: 0x2000 + 2*3
	HALT`, nil, map[uint32]uint32{0x2004: 7 << 16}, ""},
		{"pc-relative-label", `
	MOVL val, R1
	HALT
val:	.long 123456`, map[vax.Reg]uint32{vax.R1: 123456}, nil, ""},
		{"quad-immediate", `
	MOVL #0x2000, R1
	MOVQ I^#7, (R1)
	HALT`, nil, map[uint32]uint32{0x2000: 7, 0x2004: 0}, ""},
	})
}

func TestSemanticsPSW(t *testing.T) {
	runSemCases(t, []semCase{
		{"BISPSW-sets-cc", "BISPSW #0x04\nHALT", nil, nil, "Z"},
		{"BICPSW-clears", "BISPSW #0x0F\nBICPSW #0x0A\nHALT", nil, nil, "ZC"},
	})
}

// TestSemanticsEveryRegisteredOpcodeHasExec holds the dispatch table and
// the architectural table to the same set of opcodes: every opcode in the
// table has a microroutine, and every registered microroutine has a table
// entry (one without would never run, since decode faults the opcode as
// reserved before dispatch).
func TestSemanticsEveryRegisteredOpcodeHasExec(t *testing.T) {
	for _, info := range vax.All() {
		if execTable[info.Code] == nil {
			t.Errorf("%s (%#02x) has no execute routine", info.Name, info.Code)
		}
	}
	for _, op := range RegisteredOpcodes() {
		if vax.Lookup(op) == nil {
			t.Errorf("opcode %#02x has an execute routine but no opcode-table entry", uint8(op))
		}
	}
}

func TestSemanticsIndexAndOrg(t *testing.T) {
	runSemCases(t, []semCase{
		{"INDEX-in-range", "INDEX #5, #1, #10, #4, #0, R1\nHALT",
			map[vax.Reg]uint32{vax.R1: 20}, nil, ""},
		{"INDEX-chained", "INDEX #3, #0, #9, #10, #2, R1\nHALT",
			map[vax.Reg]uint32{vax.R1: 50}, nil, ""}, // (2+3)*10
		{"INDEX-out-of-range-sets-V", "INDEX #12, #1, #10, #4, #0, R1\nHALT",
			nil, nil, "V"},
	})
}

func TestOrgDirectivePlacesCode(t *testing.T) {
	m, _, im := runImage(t, `
	MOVL	val, R1
	HALT
	.org	0x1200
val:	.long	777
`)
	if im.MustAddr("val") != 0x1200 {
		t.Fatalf("val at %#x, want 0x1200", im.MustAddr("val"))
	}
	if m.R[1] != 777 {
		t.Errorf("R1 = %d, want 777", m.R[1])
	}
}

func TestSemanticsMovtc(t *testing.T) {
	m, _, im := runImage(t, `
	MOVTC	#5, src, #0x2E, tbl, #8, dst
	HALT
src:	.ascii	"hello"
	; identity table except lowercase -> uppercase
tbl:	.space	97
	.byte	65, 66, 67, 68, 69, 70, 71, 72, 73, 74, 75, 76, 77
	.byte	78, 79, 80, 81, 82, 83, 84, 85, 86, 87, 88, 89, 90
	.space	133
dst:	.space	8
`)
	got := string(m.Mem.Read(im.MustAddr("dst"), 8))
	if got != "HELLO..." {
		t.Errorf("dst = %q, want HELLO...", got)
	}
}
