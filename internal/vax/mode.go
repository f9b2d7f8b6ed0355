package vax

import "fmt"

// AddrMode is a decoded operand specifier addressing mode. The VAX encodes
// the mode in the high nibble of the first specifier byte; modes 0-3 are
// short literals and mode 4 is an index prefix applied to a base mode.
type AddrMode uint8

const (
	ModeLiteral     AddrMode = iota // S^#lit6 (modes 0-3)
	ModeRegister                    // Rn
	ModeRegDeferred                 // (Rn)
	ModeAutoDec                     // -(Rn)
	ModeAutoInc                     // (Rn)+
	ModeAutoIncDef                  // @(Rn)+
	ModeImmediate                   // (PC)+  I^#const
	ModeAbsolute                    // @(PC)+ @#addr
	ModeByteDisp                    // B^d(Rn)
	ModeByteDispDef                 // @B^d(Rn)
	ModeWordDisp                    // W^d(Rn)
	ModeWordDispDef                 // @W^d(Rn)
	ModeLongDisp                    // L^d(Rn)
	ModeLongDispDef                 // @L^d(Rn)
	numAddrModes
)

// NumAddrModes is the number of distinct decoded addressing modes.
const NumAddrModes = int(numAddrModes)

func (m AddrMode) String() string {
	switch m {
	case ModeLiteral:
		return "S^#"
	case ModeRegister:
		return "Rn"
	case ModeRegDeferred:
		return "(Rn)"
	case ModeAutoDec:
		return "-(Rn)"
	case ModeAutoInc:
		return "(Rn)+"
	case ModeAutoIncDef:
		return "@(Rn)+"
	case ModeImmediate:
		return "(PC)+"
	case ModeAbsolute:
		return "@#"
	case ModeByteDisp:
		return "B^d(Rn)"
	case ModeByteDispDef:
		return "@B^d(Rn)"
	case ModeWordDisp:
		return "W^d(Rn)"
	case ModeWordDispDef:
		return "@W^d(Rn)"
	case ModeLongDisp:
		return "L^d(Rn)"
	case ModeLongDispDef:
		return "@L^d(Rn)"
	}
	return fmt.Sprintf("AddrMode(%d)", uint8(m))
}

// IsMemory reports whether the mode references memory for its operand data
// (register and literal/immediate modes do not; immediate data comes from
// the I-stream).
func (m AddrMode) IsMemory() bool {
	switch m {
	case ModeLiteral, ModeRegister, ModeImmediate:
		return false
	}
	return true
}

// Indexable reports whether the mode may carry an index prefix ([Rx]).
// Only memory-referencing base modes may be indexed.
func (m AddrMode) Indexable() bool { return m.IsMemory() }

// Specifier is a decoded operand specifier: an addressing mode, its base
// register, any displacement or literal constant, and an optional index
// register.
type Specifier struct {
	Mode    AddrMode
	Base    Reg    // base register (unused for literal/immediate/absolute)
	Disp    int32  // displacement (B^/W^/L^ modes) or 6-bit literal value
	Imm     uint64 // immediate constant (ModeImmediate) or absolute address (ModeAbsolute)
	Indexed bool
	Index   Reg // index register when Indexed
}

func (s Specifier) String() string {
	var body string
	switch s.Mode {
	case ModeLiteral:
		body = fmt.Sprintf("S^#%d", s.Disp)
	case ModeRegister:
		body = s.Base.String()
	case ModeRegDeferred:
		body = "(" + s.Base.String() + ")"
	case ModeAutoDec:
		body = "-(" + s.Base.String() + ")"
	case ModeAutoInc:
		body = "(" + s.Base.String() + ")+"
	case ModeAutoIncDef:
		body = "@(" + s.Base.String() + ")+"
	case ModeImmediate:
		body = fmt.Sprintf("I^#%d", s.Imm)
	case ModeAbsolute:
		body = fmt.Sprintf("@#%#x", uint32(s.Imm))
	case ModeByteDisp:
		body = fmt.Sprintf("B^%d(%s)", s.Disp, s.Base)
	case ModeByteDispDef:
		body = fmt.Sprintf("@B^%d(%s)", s.Disp, s.Base)
	case ModeWordDisp:
		body = fmt.Sprintf("W^%d(%s)", s.Disp, s.Base)
	case ModeWordDispDef:
		body = fmt.Sprintf("@W^%d(%s)", s.Disp, s.Base)
	case ModeLongDisp:
		body = fmt.Sprintf("L^%d(%s)", s.Disp, s.Base)
	case ModeLongDispDef:
		body = fmt.Sprintf("@L^%d(%s)", s.Disp, s.Base)
	}
	if s.Indexed {
		body += "[" + s.Index.String() + "]"
	}
	return body
}
