package vax

// Opcode values for the subset of the VAX instruction set implemented by
// this model. Values are the architectural one-byte opcodes.
const (
	HALT   Opcode = 0x00
	NOP    Opcode = 0x01
	REI    Opcode = 0x02
	BPT    Opcode = 0x03
	RET    Opcode = 0x04
	RSB    Opcode = 0x05
	LDPCTX Opcode = 0x06
	SVPCTX Opcode = 0x07

	INDEX  Opcode = 0x0A
	PROBER Opcode = 0x0C
	PROBEW Opcode = 0x0D
	INSQUE Opcode = 0x0E
	REMQUE Opcode = 0x0F

	BSBB Opcode = 0x10
	BRB  Opcode = 0x11
	BNEQ Opcode = 0x12
	BEQL Opcode = 0x13
	BGTR Opcode = 0x14
	BLEQ Opcode = 0x15
	JSB  Opcode = 0x16
	JMP  Opcode = 0x17
	BGEQ Opcode = 0x18
	BLSS Opcode = 0x19

	BGTRU Opcode = 0x1A
	BLEQU Opcode = 0x1B
	BVC   Opcode = 0x1C
	BVS   Opcode = 0x1D
	BCC   Opcode = 0x1E
	BCS   Opcode = 0x1F

	ADDP4 Opcode = 0x20
	ADDP6 Opcode = 0x21
	SUBP4 Opcode = 0x22
	SUBP6 Opcode = 0x23
	MULP  Opcode = 0x25
	DIVP  Opcode = 0x27

	MOVC3 Opcode = 0x28
	CMPC3 Opcode = 0x29
	SCANC Opcode = 0x2A
	SPANC Opcode = 0x2B
	MOVC5 Opcode = 0x2C
	CMPC5 Opcode = 0x2D
	MOVTC Opcode = 0x2E

	BSBW Opcode = 0x30
	BRW  Opcode = 0x31

	MOVP  Opcode = 0x34
	CMPP3 Opcode = 0x35
	CVTPL Opcode = 0x36

	LOCC Opcode = 0x3A
	SKPC Opcode = 0x3B

	CVTWL  Opcode = 0x32
	CVTWB  Opcode = 0x33
	MOVZWL Opcode = 0x3C
	ACBW   Opcode = 0x3D
	MOVAW  Opcode = 0x3E
	PUSHAW Opcode = 0x3F

	ADDF2 Opcode = 0x40
	ADDF3 Opcode = 0x41
	SUBF2 Opcode = 0x42
	SUBF3 Opcode = 0x43
	MULF2 Opcode = 0x44
	MULF3 Opcode = 0x45
	DIVF2 Opcode = 0x46
	DIVF3 Opcode = 0x47

	CVTFL Opcode = 0x4A
	CVTLF Opcode = 0x4E

	MOVF  Opcode = 0x50
	CMPF  Opcode = 0x51
	MNEGF Opcode = 0x52
	TSTF  Opcode = 0x53

	ADDD2 Opcode = 0x60
	ADDD3 Opcode = 0x61
	SUBD2 Opcode = 0x62
	SUBD3 Opcode = 0x63
	MULD2 Opcode = 0x64
	MULD3 Opcode = 0x65
	DIVD2 Opcode = 0x66
	DIVD3 Opcode = 0x67

	MOVD Opcode = 0x70
	CMPD Opcode = 0x71
	TSTD Opcode = 0x73

	ADAWI Opcode = 0x58

	ASHL   Opcode = 0x78
	ASHQ   Opcode = 0x79
	EMUL   Opcode = 0x7A
	EDIV   Opcode = 0x7B
	CLRQ   Opcode = 0x7C
	MOVQ   Opcode = 0x7D
	MOVAQ  Opcode = 0x7E
	PUSHAQ Opcode = 0x7F

	ADDB2 Opcode = 0x80
	ADDB3 Opcode = 0x81
	SUBB2 Opcode = 0x82
	SUBB3 Opcode = 0x83
	BISB2 Opcode = 0x88
	BISB3 Opcode = 0x89
	BICB2 Opcode = 0x8A
	BICB3 Opcode = 0x8B
	XORB2 Opcode = 0x8C
	XORB3 Opcode = 0x8D
	MNEGB Opcode = 0x8E

	CASEB Opcode = 0x8F
	MOVB  Opcode = 0x90
	CMPB  Opcode = 0x91
	MCOMB Opcode = 0x92
	BITB  Opcode = 0x93
	CLRB  Opcode = 0x94
	TSTB  Opcode = 0x95
	INCB  Opcode = 0x96
	DECB  Opcode = 0x97

	CVTBL  Opcode = 0x98
	CVTBW  Opcode = 0x99
	MOVZBL Opcode = 0x9A
	MOVZBW Opcode = 0x9B
	ROTL   Opcode = 0x9C
	ACBB   Opcode = 0x9D
	MOVAB  Opcode = 0x9E
	PUSHAB Opcode = 0x9F

	ADDW2 Opcode = 0xA0
	ADDW3 Opcode = 0xA1
	SUBW2 Opcode = 0xA2
	SUBW3 Opcode = 0xA3
	MULW2 Opcode = 0xA4
	BISW2 Opcode = 0xA8
	BISW3 Opcode = 0xA9
	BICW2 Opcode = 0xAA
	BICW3 Opcode = 0xAB
	XORW2 Opcode = 0xAC
	XORW3 Opcode = 0xAD
	MNEGW Opcode = 0xAE

	CASEW Opcode = 0xAF
	MOVW  Opcode = 0xB0
	CMPW  Opcode = 0xB1
	MCOMW Opcode = 0xB2
	BITW  Opcode = 0xB3
	CLRW  Opcode = 0xB4
	TSTW  Opcode = 0xB5
	INCW  Opcode = 0xB6
	DECW  Opcode = 0xB7

	BISPSW Opcode = 0xB8
	BICPSW Opcode = 0xB9
	POPR   Opcode = 0xBA
	PUSHR  Opcode = 0xBB
	CHMK   Opcode = 0xBC
	CHME   Opcode = 0xBD

	ADDL2 Opcode = 0xC0
	ADDL3 Opcode = 0xC1
	SUBL2 Opcode = 0xC2
	SUBL3 Opcode = 0xC3
	MULL2 Opcode = 0xC4
	MULL3 Opcode = 0xC5
	DIVL2 Opcode = 0xC6
	DIVL3 Opcode = 0xC7
	BISL2 Opcode = 0xC8
	BISL3 Opcode = 0xC9
	BICL2 Opcode = 0xCA
	BICL3 Opcode = 0xCB
	XORL2 Opcode = 0xCC
	XORL3 Opcode = 0xCD
	MNEGL Opcode = 0xCE
	CASEL Opcode = 0xCF

	MOVL  Opcode = 0xD0
	CMPL  Opcode = 0xD1
	MCOML Opcode = 0xD2
	BITL  Opcode = 0xD3
	CLRL  Opcode = 0xD4
	TSTL  Opcode = 0xD5
	INCL  Opcode = 0xD6
	DECL  Opcode = 0xD7
	ADWC  Opcode = 0xD8
	SBWC  Opcode = 0xD9
	MTPR  Opcode = 0xDA
	MFPR  Opcode = 0xDB

	PUSHL  Opcode = 0xDD
	MOVAL  Opcode = 0xDE
	PUSHAL Opcode = 0xDF

	BBS   Opcode = 0xE0
	BBC   Opcode = 0xE1
	BBSS  Opcode = 0xE2
	BBCS  Opcode = 0xE3
	BBSC  Opcode = 0xE4
	BBCC  Opcode = 0xE5
	BBSSI Opcode = 0xE6
	BBCCI Opcode = 0xE7
	BLBS  Opcode = 0xE8
	BLBC  Opcode = 0xE9
	FFS   Opcode = 0xEA
	FFC   Opcode = 0xEB
	CMPV  Opcode = 0xEC
	CMPZV Opcode = 0xED
	EXTV  Opcode = 0xEE
	EXTZV Opcode = 0xEF
	INSV  Opcode = 0xF0

	ACBL   Opcode = 0xF1
	AOBLSS Opcode = 0xF2
	AOBLEQ Opcode = 0xF3
	SOBGEQ Opcode = 0xF4
	SOBGTR Opcode = 0xF5

	CVTLB Opcode = 0xF6
	CVTLW Opcode = 0xF7
	ASHP  Opcode = 0xF8
	CVTLP Opcode = 0xF9
	CALLG Opcode = 0xFA
	CALLS Opcode = 0xFB
)

// opTable is the architectural description of every implemented opcode.
var opTable = []OpInfo{
	// ---- SYSTEM group -------------------------------------------------
	{HALT, "HALT", GroupSystem, nil, TypeNone, PCNone},
	{REI, "REI", GroupSystem, nil, TypeNone, PCSystem},
	{BPT, "BPT", GroupSystem, nil, TypeNone, PCSystem},
	{LDPCTX, "LDPCTX", GroupSystem, nil, TypeNone, PCNone},
	{SVPCTX, "SVPCTX", GroupSystem, nil, TypeNone, PCNone},
	{PROBER, "PROBER", GroupSystem, []OperandSpec{rb(), rw(), ab()}, TypeNone, PCNone},
	{PROBEW, "PROBEW", GroupSystem, []OperandSpec{rb(), rw(), ab()}, TypeNone, PCNone},
	{INSQUE, "INSQUE", GroupSystem, []OperandSpec{ab(), ab()}, TypeNone, PCNone},
	{REMQUE, "REMQUE", GroupSystem, []OperandSpec{ab(), wl()}, TypeNone, PCNone},
	{BISPSW, "BISPSW", GroupSystem, []OperandSpec{rw()}, TypeNone, PCNone},
	{BICPSW, "BICPSW", GroupSystem, []OperandSpec{rw()}, TypeNone, PCNone},
	{CHMK, "CHMK", GroupSystem, []OperandSpec{rw()}, TypeNone, PCSystem},
	{CHME, "CHME", GroupSystem, []OperandSpec{rw()}, TypeNone, PCSystem},
	{MTPR, "MTPR", GroupSystem, []OperandSpec{rl(), rl()}, TypeNone, PCNone},
	{MFPR, "MFPR", GroupSystem, []OperandSpec{rl(), wl()}, TypeNone, PCNone},

	// ---- SIMPLE group: subroutine linkage and control ------------------
	{NOP, "NOP", GroupSimple, nil, TypeNone, PCNone},
	{INDEX, "INDEX", GroupSimple, []OperandSpec{rl(), rl(), rl(), rl(), rl(), wl()}, TypeNone, PCNone},
	{RET, "RET", GroupCallRet, nil, TypeNone, PCProc},
	{RSB, "RSB", GroupSimple, nil, TypeNone, PCSubr},
	{BSBB, "BSBB", GroupSimple, nil, TypeByte, PCSubr},
	{BSBW, "BSBW", GroupSimple, nil, TypeWord, PCSubr},
	{JSB, "JSB", GroupSimple, []OperandSpec{ab()}, TypeNone, PCSubr},
	{JMP, "JMP", GroupSimple, []OperandSpec{ab()}, TypeNone, PCUncond},
	{BRB, "BRB", GroupSimple, nil, TypeByte, PCSimpleCond},
	{BRW, "BRW", GroupSimple, nil, TypeWord, PCSimpleCond},
	{BNEQ, "BNEQ", GroupSimple, nil, TypeByte, PCSimpleCond},
	{BEQL, "BEQL", GroupSimple, nil, TypeByte, PCSimpleCond},
	{BGTR, "BGTR", GroupSimple, nil, TypeByte, PCSimpleCond},
	{BLEQ, "BLEQ", GroupSimple, nil, TypeByte, PCSimpleCond},
	{BGEQ, "BGEQ", GroupSimple, nil, TypeByte, PCSimpleCond},
	{BLSS, "BLSS", GroupSimple, nil, TypeByte, PCSimpleCond},
	{BGTRU, "BGTRU", GroupSimple, nil, TypeByte, PCSimpleCond},
	{BLEQU, "BLEQU", GroupSimple, nil, TypeByte, PCSimpleCond},
	{BVC, "BVC", GroupSimple, nil, TypeByte, PCSimpleCond},
	{BVS, "BVS", GroupSimple, nil, TypeByte, PCSimpleCond},
	{BCC, "BCC", GroupSimple, nil, TypeByte, PCSimpleCond},
	{BCS, "BCS", GroupSimple, nil, TypeByte, PCSimpleCond},
	{CASEB, "CASEB", GroupSimple, []OperandSpec{rb(), rb(), rb()}, TypeNone, PCCase},
	{CASEW, "CASEW", GroupSimple, []OperandSpec{rw(), rw(), rw()}, TypeNone, PCCase},
	{CASEL, "CASEL", GroupSimple, []OperandSpec{rl(), rl(), rl()}, TypeNone, PCCase},
	{BLBS, "BLBS", GroupSimple, []OperandSpec{rl()}, TypeByte, PCLowBit},
	{BLBC, "BLBC", GroupSimple, []OperandSpec{rl()}, TypeByte, PCLowBit},
	{AOBLSS, "AOBLSS", GroupSimple, []OperandSpec{rl(), ml()}, TypeByte, PCLoop},
	{AOBLEQ, "AOBLEQ", GroupSimple, []OperandSpec{rl(), ml()}, TypeByte, PCLoop},
	{SOBGEQ, "SOBGEQ", GroupSimple, []OperandSpec{ml()}, TypeByte, PCLoop},
	{SOBGTR, "SOBGTR", GroupSimple, []OperandSpec{ml()}, TypeByte, PCLoop},
	{ACBB, "ACBB", GroupSimple, []OperandSpec{rb(), rb(), mb()}, TypeWord, PCLoop},
	{ACBW, "ACBW", GroupSimple, []OperandSpec{rw(), rw(), mw()}, TypeWord, PCLoop},
	{ACBL, "ACBL", GroupSimple, []OperandSpec{rl(), rl(), ml()}, TypeWord, PCLoop},

	// ---- SIMPLE group: moves ------------------------------------------
	{MOVB, "MOVB", GroupSimple, []OperandSpec{rb(), wb()}, TypeNone, PCNone},
	{MOVW, "MOVW", GroupSimple, []OperandSpec{rw(), ww()}, TypeNone, PCNone},
	{MOVL, "MOVL", GroupSimple, []OperandSpec{rl(), wl()}, TypeNone, PCNone},
	{MOVQ, "MOVQ", GroupSimple, []OperandSpec{rq(), wq()}, TypeNone, PCNone},
	{MOVZBL, "MOVZBL", GroupSimple, []OperandSpec{rb(), wl()}, TypeNone, PCNone},
	{CVTBL, "CVTBL", GroupSimple, []OperandSpec{rb(), wl()}, TypeNone, PCNone},
	{CVTBW, "CVTBW", GroupSimple, []OperandSpec{rb(), ww()}, TypeNone, PCNone},
	{CVTWL, "CVTWL", GroupSimple, []OperandSpec{rw(), wl()}, TypeNone, PCNone},
	{CVTWB, "CVTWB", GroupSimple, []OperandSpec{rw(), wb()}, TypeNone, PCNone},
	{CVTLB, "CVTLB", GroupSimple, []OperandSpec{rl(), wb()}, TypeNone, PCNone},
	{CVTLW, "CVTLW", GroupSimple, []OperandSpec{rl(), ww()}, TypeNone, PCNone},
	{MOVZBW, "MOVZBW", GroupSimple, []OperandSpec{rb(), ww()}, TypeNone, PCNone},
	{MOVZWL, "MOVZWL", GroupSimple, []OperandSpec{rw(), wl()}, TypeNone, PCNone},
	{MOVAB, "MOVAB", GroupSimple, []OperandSpec{ab(), wl()}, TypeNone, PCNone},
	{MOVAW, "MOVAW", GroupSimple, []OperandSpec{aw(), wl()}, TypeNone, PCNone},
	{MOVAQ, "MOVAQ", GroupSimple, []OperandSpec{aq(), wl()}, TypeNone, PCNone},
	{MOVAL, "MOVAL", GroupSimple, []OperandSpec{al(), wl()}, TypeNone, PCNone},
	{PUSHAB, "PUSHAB", GroupSimple, []OperandSpec{ab()}, TypeNone, PCNone},
	{PUSHAW, "PUSHAW", GroupSimple, []OperandSpec{aw()}, TypeNone, PCNone},
	{PUSHAQ, "PUSHAQ", GroupSimple, []OperandSpec{aq()}, TypeNone, PCNone},
	{PUSHAL, "PUSHAL", GroupSimple, []OperandSpec{al()}, TypeNone, PCNone},
	{PUSHL, "PUSHL", GroupSimple, []OperandSpec{rl()}, TypeNone, PCNone},
	{CLRB, "CLRB", GroupSimple, []OperandSpec{wb()}, TypeNone, PCNone},
	{CLRW, "CLRW", GroupSimple, []OperandSpec{ww()}, TypeNone, PCNone},
	{CLRL, "CLRL", GroupSimple, []OperandSpec{wl()}, TypeNone, PCNone},
	{CLRQ, "CLRQ", GroupSimple, []OperandSpec{wq()}, TypeNone, PCNone},
	{MCOMB, "MCOMB", GroupSimple, []OperandSpec{rb(), wb()}, TypeNone, PCNone},
	{MCOMW, "MCOMW", GroupSimple, []OperandSpec{rw(), ww()}, TypeNone, PCNone},
	{MCOML, "MCOML", GroupSimple, []OperandSpec{rl(), wl()}, TypeNone, PCNone},
	{MNEGL, "MNEGL", GroupSimple, []OperandSpec{rl(), wl()}, TypeNone, PCNone},
	{MNEGB, "MNEGB", GroupSimple, []OperandSpec{rb(), wb()}, TypeNone, PCNone},
	{MNEGW, "MNEGW", GroupSimple, []OperandSpec{rw(), ww()}, TypeNone, PCNone},

	// ---- SIMPLE group: integer arithmetic and booleans -----------------
	{ADDB2, "ADDB2", GroupSimple, []OperandSpec{rb(), mb()}, TypeNone, PCNone},
	{ADDB3, "ADDB3", GroupSimple, []OperandSpec{rb(), rb(), wb()}, TypeNone, PCNone},
	{SUBB2, "SUBB2", GroupSimple, []OperandSpec{rb(), mb()}, TypeNone, PCNone},
	{SUBB3, "SUBB3", GroupSimple, []OperandSpec{rb(), rb(), wb()}, TypeNone, PCNone},
	{ADDW2, "ADDW2", GroupSimple, []OperandSpec{rw(), mw()}, TypeNone, PCNone},
	{ADDW3, "ADDW3", GroupSimple, []OperandSpec{rw(), rw(), ww()}, TypeNone, PCNone},
	{SUBW2, "SUBW2", GroupSimple, []OperandSpec{rw(), mw()}, TypeNone, PCNone},
	{SUBW3, "SUBW3", GroupSimple, []OperandSpec{rw(), rw(), ww()}, TypeNone, PCNone},
	{ADDL2, "ADDL2", GroupSimple, []OperandSpec{rl(), ml()}, TypeNone, PCNone},
	{ADDL3, "ADDL3", GroupSimple, []OperandSpec{rl(), rl(), wl()}, TypeNone, PCNone},
	{SUBL2, "SUBL2", GroupSimple, []OperandSpec{rl(), ml()}, TypeNone, PCNone},
	{SUBL3, "SUBL3", GroupSimple, []OperandSpec{rl(), rl(), wl()}, TypeNone, PCNone},
	{ADWC, "ADWC", GroupSimple, []OperandSpec{rl(), ml()}, TypeNone, PCNone},
	{SBWC, "SBWC", GroupSimple, []OperandSpec{rl(), ml()}, TypeNone, PCNone},
	{INCB, "INCB", GroupSimple, []OperandSpec{mb()}, TypeNone, PCNone},
	{INCW, "INCW", GroupSimple, []OperandSpec{mw()}, TypeNone, PCNone},
	{INCL, "INCL", GroupSimple, []OperandSpec{ml()}, TypeNone, PCNone},
	{DECB, "DECB", GroupSimple, []OperandSpec{mb()}, TypeNone, PCNone},
	{DECW, "DECW", GroupSimple, []OperandSpec{mw()}, TypeNone, PCNone},
	{DECL, "DECL", GroupSimple, []OperandSpec{ml()}, TypeNone, PCNone},
	{CMPB, "CMPB", GroupSimple, []OperandSpec{rb(), rb()}, TypeNone, PCNone},
	{CMPW, "CMPW", GroupSimple, []OperandSpec{rw(), rw()}, TypeNone, PCNone},
	{CMPL, "CMPL", GroupSimple, []OperandSpec{rl(), rl()}, TypeNone, PCNone},
	{TSTB, "TSTB", GroupSimple, []OperandSpec{rb()}, TypeNone, PCNone},
	{TSTW, "TSTW", GroupSimple, []OperandSpec{rw()}, TypeNone, PCNone},
	{TSTL, "TSTL", GroupSimple, []OperandSpec{rl()}, TypeNone, PCNone},
	{BITB, "BITB", GroupSimple, []OperandSpec{rb(), rb()}, TypeNone, PCNone},
	{BITW, "BITW", GroupSimple, []OperandSpec{rw(), rw()}, TypeNone, PCNone},
	{BITL, "BITL", GroupSimple, []OperandSpec{rl(), rl()}, TypeNone, PCNone},
	{BISB2, "BISB2", GroupSimple, []OperandSpec{rb(), mb()}, TypeNone, PCNone},
	{BISB3, "BISB3", GroupSimple, []OperandSpec{rb(), rb(), wb()}, TypeNone, PCNone},
	{BICB2, "BICB2", GroupSimple, []OperandSpec{rb(), mb()}, TypeNone, PCNone},
	{BICB3, "BICB3", GroupSimple, []OperandSpec{rb(), rb(), wb()}, TypeNone, PCNone},
	{XORB2, "XORB2", GroupSimple, []OperandSpec{rb(), mb()}, TypeNone, PCNone},
	{XORB3, "XORB3", GroupSimple, []OperandSpec{rb(), rb(), wb()}, TypeNone, PCNone},
	{BISW2, "BISW2", GroupSimple, []OperandSpec{rw(), mw()}, TypeNone, PCNone},
	{BISW3, "BISW3", GroupSimple, []OperandSpec{rw(), rw(), ww()}, TypeNone, PCNone},
	{BICW2, "BICW2", GroupSimple, []OperandSpec{rw(), mw()}, TypeNone, PCNone},
	{BICW3, "BICW3", GroupSimple, []OperandSpec{rw(), rw(), ww()}, TypeNone, PCNone},
	{XORW2, "XORW2", GroupSimple, []OperandSpec{rw(), mw()}, TypeNone, PCNone},
	{XORW3, "XORW3", GroupSimple, []OperandSpec{rw(), rw(), ww()}, TypeNone, PCNone},
	{ADAWI, "ADAWI", GroupSimple, []OperandSpec{rw(), mw()}, TypeNone, PCNone},
	{BISL2, "BISL2", GroupSimple, []OperandSpec{rl(), ml()}, TypeNone, PCNone},
	{BISL3, "BISL3", GroupSimple, []OperandSpec{rl(), rl(), wl()}, TypeNone, PCNone},
	{BICL2, "BICL2", GroupSimple, []OperandSpec{rl(), ml()}, TypeNone, PCNone},
	{BICL3, "BICL3", GroupSimple, []OperandSpec{rl(), rl(), wl()}, TypeNone, PCNone},
	{XORL2, "XORL2", GroupSimple, []OperandSpec{rl(), ml()}, TypeNone, PCNone},
	{XORL3, "XORL3", GroupSimple, []OperandSpec{rl(), rl(), wl()}, TypeNone, PCNone},
	{ASHL, "ASHL", GroupSimple, []OperandSpec{rb(), rl(), wl()}, TypeNone, PCNone},
	{ROTL, "ROTL", GroupSimple, []OperandSpec{rb(), rl(), wl()}, TypeNone, PCNone},

	// ---- FIELD group ----------------------------------------------------
	{EXTV, "EXTV", GroupField, []OperandSpec{rl(), rb(), vb(), wl()}, TypeNone, PCNone},
	{EXTZV, "EXTZV", GroupField, []OperandSpec{rl(), rb(), vb(), wl()}, TypeNone, PCNone},
	{INSV, "INSV", GroupField, []OperandSpec{rl(), rl(), rb(), vb()}, TypeNone, PCNone},
	{FFS, "FFS", GroupField, []OperandSpec{rl(), rb(), vb(), wl()}, TypeNone, PCNone},
	{FFC, "FFC", GroupField, []OperandSpec{rl(), rb(), vb(), wl()}, TypeNone, PCNone},
	{CMPV, "CMPV", GroupField, []OperandSpec{rl(), rb(), vb(), rl()}, TypeNone, PCNone},
	{CMPZV, "CMPZV", GroupField, []OperandSpec{rl(), rb(), vb(), rl()}, TypeNone, PCNone},
	{BBS, "BBS", GroupField, []OperandSpec{rl(), vb()}, TypeByte, PCBitBranch},
	{BBC, "BBC", GroupField, []OperandSpec{rl(), vb()}, TypeByte, PCBitBranch},
	{BBSS, "BBSS", GroupField, []OperandSpec{rl(), vb()}, TypeByte, PCBitBranch},
	{BBCS, "BBCS", GroupField, []OperandSpec{rl(), vb()}, TypeByte, PCBitBranch},
	{BBSC, "BBSC", GroupField, []OperandSpec{rl(), vb()}, TypeByte, PCBitBranch},
	{BBCC, "BBCC", GroupField, []OperandSpec{rl(), vb()}, TypeByte, PCBitBranch},
	{BBSSI, "BBSSI", GroupField, []OperandSpec{rl(), vb()}, TypeByte, PCBitBranch},
	{BBCCI, "BBCCI", GroupField, []OperandSpec{rl(), vb()}, TypeByte, PCBitBranch},

	// ---- FLOAT group (incl. integer multiply/divide, per Table 1) -------
	{ADDF2, "ADDF2", GroupFloat, []OperandSpec{rf(), mf()}, TypeNone, PCNone},
	{ADDF3, "ADDF3", GroupFloat, []OperandSpec{rf(), rf(), wf()}, TypeNone, PCNone},
	{SUBF2, "SUBF2", GroupFloat, []OperandSpec{rf(), mf()}, TypeNone, PCNone},
	{SUBF3, "SUBF3", GroupFloat, []OperandSpec{rf(), rf(), wf()}, TypeNone, PCNone},
	{MULF2, "MULF2", GroupFloat, []OperandSpec{rf(), mf()}, TypeNone, PCNone},
	{MULF3, "MULF3", GroupFloat, []OperandSpec{rf(), rf(), wf()}, TypeNone, PCNone},
	{DIVF2, "DIVF2", GroupFloat, []OperandSpec{rf(), mf()}, TypeNone, PCNone},
	{DIVF3, "DIVF3", GroupFloat, []OperandSpec{rf(), rf(), wf()}, TypeNone, PCNone},
	{CVTFL, "CVTFL", GroupFloat, []OperandSpec{rf(), wl()}, TypeNone, PCNone},
	{CVTLF, "CVTLF", GroupFloat, []OperandSpec{rl(), wf()}, TypeNone, PCNone},
	{MOVF, "MOVF", GroupFloat, []OperandSpec{rf(), wf()}, TypeNone, PCNone},
	{CMPF, "CMPF", GroupFloat, []OperandSpec{rf(), rf()}, TypeNone, PCNone},
	{MNEGF, "MNEGF", GroupFloat, []OperandSpec{rf(), wf()}, TypeNone, PCNone},
	{TSTF, "TSTF", GroupFloat, []OperandSpec{rf()}, TypeNone, PCNone},
	{ADDD2, "ADDD2", GroupFloat, []OperandSpec{rd(), md()}, TypeNone, PCNone},
	{ADDD3, "ADDD3", GroupFloat, []OperandSpec{rd(), rd(), wd()}, TypeNone, PCNone},
	{SUBD2, "SUBD2", GroupFloat, []OperandSpec{rd(), md()}, TypeNone, PCNone},
	{SUBD3, "SUBD3", GroupFloat, []OperandSpec{rd(), rd(), wd()}, TypeNone, PCNone},
	{MULD2, "MULD2", GroupFloat, []OperandSpec{rd(), md()}, TypeNone, PCNone},
	{MULD3, "MULD3", GroupFloat, []OperandSpec{rd(), rd(), wd()}, TypeNone, PCNone},
	{DIVD2, "DIVD2", GroupFloat, []OperandSpec{rd(), md()}, TypeNone, PCNone},
	{DIVD3, "DIVD3", GroupFloat, []OperandSpec{rd(), rd(), wd()}, TypeNone, PCNone},
	{MOVD, "MOVD", GroupFloat, []OperandSpec{rd(), wd()}, TypeNone, PCNone},
	{CMPD, "CMPD", GroupFloat, []OperandSpec{rd(), rd()}, TypeNone, PCNone},
	{TSTD, "TSTD", GroupFloat, []OperandSpec{rd()}, TypeNone, PCNone},
	{MULL2, "MULL2", GroupFloat, []OperandSpec{rl(), ml()}, TypeNone, PCNone},
	{MULL3, "MULL3", GroupFloat, []OperandSpec{rl(), rl(), wl()}, TypeNone, PCNone},
	{MULW2, "MULW2", GroupFloat, []OperandSpec{rw(), mw()}, TypeNone, PCNone},
	{DIVL2, "DIVL2", GroupFloat, []OperandSpec{rl(), ml()}, TypeNone, PCNone},
	{DIVL3, "DIVL3", GroupFloat, []OperandSpec{rl(), rl(), wl()}, TypeNone, PCNone},
	{ASHQ, "ASHQ", GroupFloat, []OperandSpec{rb(), rq(), wq()}, TypeNone, PCNone},
	{EMUL, "EMUL", GroupFloat, []OperandSpec{rl(), rl(), rl(), wq()}, TypeNone, PCNone},
	{EDIV, "EDIV", GroupFloat, []OperandSpec{rl(), rq(), wl(), wl()}, TypeNone, PCNone},

	// ---- CALL/RET group --------------------------------------------------
	{CALLG, "CALLG", GroupCallRet, []OperandSpec{ab(), ab()}, TypeNone, PCProc},
	{CALLS, "CALLS", GroupCallRet, []OperandSpec{rl(), ab()}, TypeNone, PCProc},
	{PUSHR, "PUSHR", GroupCallRet, []OperandSpec{rw()}, TypeNone, PCNone},
	{POPR, "POPR", GroupCallRet, []OperandSpec{rw()}, TypeNone, PCNone},

	// ---- CHARACTER group -------------------------------------------------
	{MOVC3, "MOVC3", GroupCharacter, []OperandSpec{rw(), ab(), ab()}, TypeNone, PCNone},
	{MOVC5, "MOVC5", GroupCharacter, []OperandSpec{rw(), ab(), rb(), rw(), ab()}, TypeNone, PCNone},
	{CMPC3, "CMPC3", GroupCharacter, []OperandSpec{rw(), ab(), ab()}, TypeNone, PCNone},
	{CMPC5, "CMPC5", GroupCharacter, []OperandSpec{rw(), ab(), rb(), rw(), ab()}, TypeNone, PCNone},
	{MOVTC, "MOVTC", GroupCharacter, []OperandSpec{rw(), ab(), rb(), ab(), rw(), ab()}, TypeNone, PCNone},
	{LOCC, "LOCC", GroupCharacter, []OperandSpec{rb(), rw(), ab()}, TypeNone, PCNone},
	{SKPC, "SKPC", GroupCharacter, []OperandSpec{rb(), rw(), ab()}, TypeNone, PCNone},
	{SCANC, "SCANC", GroupCharacter, []OperandSpec{rw(), ab(), ab(), rb()}, TypeNone, PCNone},
	{SPANC, "SPANC", GroupCharacter, []OperandSpec{rw(), ab(), ab(), rb()}, TypeNone, PCNone},

	// ---- DECIMAL group -----------------------------------------------------
	{ADDP4, "ADDP4", GroupDecimal, []OperandSpec{rw(), ab(), rw(), ab()}, TypeNone, PCNone},
	{ADDP6, "ADDP6", GroupDecimal, []OperandSpec{rw(), ab(), rw(), ab(), rw(), ab()}, TypeNone, PCNone},
	{SUBP4, "SUBP4", GroupDecimal, []OperandSpec{rw(), ab(), rw(), ab()}, TypeNone, PCNone},
	{SUBP6, "SUBP6", GroupDecimal, []OperandSpec{rw(), ab(), rw(), ab(), rw(), ab()}, TypeNone, PCNone},
	{MULP, "MULP", GroupDecimal, []OperandSpec{rw(), ab(), rw(), ab(), rw(), ab()}, TypeNone, PCNone},
	{DIVP, "DIVP", GroupDecimal, []OperandSpec{rw(), ab(), rw(), ab(), rw(), ab()}, TypeNone, PCNone},
	{MOVP, "MOVP", GroupDecimal, []OperandSpec{rw(), ab(), ab()}, TypeNone, PCNone},
	{CMPP3, "CMPP3", GroupDecimal, []OperandSpec{rw(), ab(), ab()}, TypeNone, PCNone},
	{CVTPL, "CVTPL", GroupDecimal, []OperandSpec{rw(), ab(), wl()}, TypeNone, PCNone},
	{CVTLP, "CVTLP", GroupDecimal, []OperandSpec{rl(), rw(), ab()}, TypeNone, PCNone},
	{ASHP, "ASHP", GroupDecimal, []OperandSpec{rb(), rw(), ab(), rb(), rw(), ab()}, TypeNone, PCNone},
}

// opByCode and opByName index opTable by opcode and by mnemonic.
var (
	opByCode [256]*OpInfo
	opByName = make(map[string]*OpInfo, len(opTable))
)

func init() {
	for i := range opTable {
		info := &opTable[i]
		if opByCode[info.Code] != nil {
			panic("vax: duplicate opcode " + info.Name)
		}
		if opByName[info.Name] != nil {
			panic("vax: duplicate mnemonic " + info.Name)
		}
		if len(info.Specs) > 6 {
			panic("vax: too many operand specifiers for " + info.Name)
		}
		opByCode[info.Code] = info
		opByName[info.Name] = info
	}
}

// Lookup returns the description of an opcode, or nil if the opcode is not
// implemented by this model.
func Lookup(code Opcode) *OpInfo { return opByCode[code] }

// LookupName returns the description of an opcode by mnemonic, or nil.
func LookupName(name string) *OpInfo { return opByName[name] }

// All returns the descriptions of all implemented opcodes. The returned
// slice must not be modified.
func All() []OpInfo { return opTable }
