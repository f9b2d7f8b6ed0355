package vax

import "fmt"

// Opcode is a one-byte VAX opcode. This model implements the single-byte
// opcode space only (the FD-prefixed two-byte opcodes of later VAXes did
// not exist on the 11/780 as measured in the paper).
type Opcode uint8

// Group is the opcode group of Table 1 of the paper.
type Group uint8

const (
	GroupSimple    Group = iota // moves, simple arith, booleans, simple & loop branches, subroutine call/return
	GroupField                  // bit field operations (incl. bit branches)
	GroupFloat                  // floating point and integer multiply/divide
	GroupCallRet                // procedure call/return, multi-register push/pop
	GroupSystem                 // privileged ops, context switch, system services, queues, probes
	GroupCharacter              // character string instructions
	GroupDecimal                // decimal instructions
	NumGroups
)

func (g Group) String() string {
	switch g {
	case GroupSimple:
		return "SIMPLE"
	case GroupField:
		return "FIELD"
	case GroupFloat:
		return "FLOAT"
	case GroupCallRet:
		return "CALL/RET"
	case GroupSystem:
		return "SYSTEM"
	case GroupCharacter:
		return "CHARACTER"
	case GroupDecimal:
		return "DECIMAL"
	}
	return fmt.Sprintf("Group(%d)", uint8(g))
}

// PCClass classifies PC-changing instructions per Table 2 of the paper.
type PCClass uint8

const (
	PCNone       PCClass = iota
	PCSimpleCond         // simple conditional branches, plus BRB/BRW (microcode-shared)
	PCLoop               // loop branches: AOBxx, SOBxx, ACBx
	PCLowBit             // low-bit tests: BLBS, BLBC
	PCSubr               // subroutine call and return: BSBx, JSB, RSB
	PCUncond             // unconditional JMP
	PCCase               // case branches: CASEx
	PCBitBranch          // bit branches: BBx, BBxx (FIELD group)
	PCProc               // procedure call and return: CALLG, CALLS, RET (CALL/RET group)
	PCSystem             // system branches: REI, CHMx (SYSTEM group)
	NumPCClasses
)

func (c PCClass) String() string {
	switch c {
	case PCNone:
		return "-"
	case PCSimpleCond:
		return "Simple cond. plus BRB, BRW"
	case PCLoop:
		return "Loop branches"
	case PCLowBit:
		return "Low-bit tests"
	case PCSubr:
		return "Subroutine call and return"
	case PCUncond:
		return "Unconditional (JMP)"
	case PCCase:
		return "Case branch (CASEx)"
	case PCBitBranch:
		return "Bit branches"
	case PCProc:
		return "Procedure call and return"
	case PCSystem:
		return "System branches"
	}
	return fmt.Sprintf("PCClass(%d)", uint8(c))
}

// OpInfo is the architectural description of one opcode.
type OpInfo struct {
	Code       Opcode
	Name       string
	Group      Group
	Specs      []OperandSpec // operand specifiers, in I-stream order
	BranchDisp DataType      // TypeNone, TypeByte or TypeWord: trailing branch displacement
	PCClass    PCClass       // PC-changing classification (Table 2)
}

// shorthand constructors for operand specifier signatures.
func rb() OperandSpec { return OperandSpec{AccessRead, TypeByte} }
func rw() OperandSpec { return OperandSpec{AccessRead, TypeWord} }
func rl() OperandSpec { return OperandSpec{AccessRead, TypeLong} }
func rq() OperandSpec { return OperandSpec{AccessRead, TypeQuad} }
func rf() OperandSpec { return OperandSpec{AccessRead, TypeFloatF} }
func rd() OperandSpec { return OperandSpec{AccessRead, TypeFloatD} }
func wb() OperandSpec { return OperandSpec{AccessWrite, TypeByte} }
func ww() OperandSpec { return OperandSpec{AccessWrite, TypeWord} }
func wl() OperandSpec { return OperandSpec{AccessWrite, TypeLong} }
func wq() OperandSpec { return OperandSpec{AccessWrite, TypeQuad} }
func wf() OperandSpec { return OperandSpec{AccessWrite, TypeFloatF} }
func wd() OperandSpec { return OperandSpec{AccessWrite, TypeFloatD} }
func mb() OperandSpec { return OperandSpec{AccessModify, TypeByte} }
func mw() OperandSpec { return OperandSpec{AccessModify, TypeWord} }
func ml() OperandSpec { return OperandSpec{AccessModify, TypeLong} }
func mf() OperandSpec { return OperandSpec{AccessModify, TypeFloatF} }
func md() OperandSpec { return OperandSpec{AccessModify, TypeFloatD} }
func ab() OperandSpec { return OperandSpec{AccessAddr, TypeByte} }
func aw() OperandSpec { return OperandSpec{AccessAddr, TypeWord} }
func al() OperandSpec { return OperandSpec{AccessAddr, TypeLong} }
func aq() OperandSpec { return OperandSpec{AccessAddr, TypeQuad} }
func vb() OperandSpec { return OperandSpec{AccessField, TypeByte} }
