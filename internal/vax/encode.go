package vax

import (
	"errors"
	"fmt"
)

// Errors returned by the specifier encoder/decoder.
var (
	ErrBadLiteral   = errors.New("vax: short literal out of range (0..63)")
	ErrBadMode      = errors.New("vax: addressing mode cannot be encoded")
	ErrTruncated    = errors.New("vax: truncated instruction stream")
	ErrNotIndexable = errors.New("vax: addressing mode cannot be indexed")
	ErrBadIndex     = errors.New("vax: PC may not be used as an index register")
)

// EncodeSpecifier appends the I-stream encoding of a specifier to buf,
// given the data type of the operand (needed to size immediate constants).
func EncodeSpecifier(buf []byte, s Specifier, t DataType) ([]byte, error) {
	if s.Indexed {
		if !s.Mode.Indexable() {
			return nil, ErrNotIndexable
		}
		if s.Index == PC {
			return nil, ErrBadIndex
		}
		buf = append(buf, 0x40|byte(s.Index))
	}
	switch s.Mode {
	case ModeLiteral:
		if s.Disp < 0 || s.Disp > 63 {
			return nil, ErrBadLiteral
		}
		buf = append(buf, byte(s.Disp))
	case ModeRegister:
		buf = append(buf, 0x50|byte(s.Base))
	case ModeRegDeferred:
		buf = append(buf, 0x60|byte(s.Base))
	case ModeAutoDec:
		buf = append(buf, 0x70|byte(s.Base))
	case ModeAutoInc:
		buf = append(buf, 0x80|byte(s.Base))
	case ModeAutoIncDef:
		buf = append(buf, 0x90|byte(s.Base))
	case ModeImmediate:
		buf = append(buf, 0x80|byte(PC))
		buf = appendUint(buf, s.Imm, t.Size())
	case ModeAbsolute:
		buf = append(buf, 0x90|byte(PC))
		buf = appendUint(buf, s.Imm, 4)
	case ModeByteDisp:
		buf = append(buf, 0xA0|byte(s.Base), byte(int8(s.Disp)))
	case ModeByteDispDef:
		buf = append(buf, 0xB0|byte(s.Base), byte(int8(s.Disp)))
	case ModeWordDisp:
		buf = append(buf, 0xC0|byte(s.Base))
		buf = appendUint(buf, uint64(uint16(int16(s.Disp))), 2)
	case ModeWordDispDef:
		buf = append(buf, 0xD0|byte(s.Base))
		buf = appendUint(buf, uint64(uint16(int16(s.Disp))), 2)
	case ModeLongDisp:
		buf = append(buf, 0xE0|byte(s.Base))
		buf = appendUint(buf, uint64(uint32(s.Disp)), 4)
	case ModeLongDispDef:
		buf = append(buf, 0xF0|byte(s.Base))
		buf = appendUint(buf, uint64(uint32(s.Disp)), 4)
	default:
		return nil, ErrBadMode
	}
	return buf, nil
}

// DecodeSpecifier decodes one operand specifier from b, returning the
// specifier and the number of I-stream bytes it consumed.
func DecodeSpecifier(b []byte, t DataType) (Specifier, int, error) {
	var s Specifier
	n := 0
	if len(b) == 0 {
		return s, 0, ErrTruncated
	}
	if b[0]>>4 == 4 { // index prefix
		s.Indexed = true
		s.Index = Reg(b[0] & 0x0F)
		if s.Index == PC {
			return s, 0, ErrBadIndex
		}
		b = b[1:]
		n = 1
		if len(b) == 0 {
			return s, 0, ErrTruncated
		}
	}
	mb := b[0] // mode byte, kept for diagnostics: b advances past it below
	mode := mb >> 4
	reg := Reg(mb & 0x0F)
	b = b[1:]
	n++
	switch {
	case mode <= 3:
		s.Mode = ModeLiteral
		s.Disp = int32(mode)<<4 | int32(reg)
	case mode == 5:
		s.Mode = ModeRegister
		s.Base = reg
	case mode == 6:
		s.Mode = ModeRegDeferred
		s.Base = reg
	case mode == 7:
		s.Mode = ModeAutoDec
		s.Base = reg
	case mode == 8 && reg == PC:
		s.Mode = ModeImmediate
		sz := t.Size()
		if len(b) < sz {
			return s, 0, ErrTruncated
		}
		s.Imm = readUint(b, sz)
		n += sz
	case mode == 8:
		s.Mode = ModeAutoInc
		s.Base = reg
	case mode == 9 && reg == PC:
		s.Mode = ModeAbsolute
		if len(b) < 4 {
			return s, 0, ErrTruncated
		}
		s.Imm = readUint(b, 4)
		n += 4
	case mode == 9:
		s.Mode = ModeAutoIncDef
		s.Base = reg
	case mode == 0xA || mode == 0xB:
		if len(b) < 1 {
			return s, 0, ErrTruncated
		}
		s.Mode = ModeByteDisp
		if mode == 0xB {
			s.Mode = ModeByteDispDef
		}
		s.Base = reg
		s.Disp = int32(int8(b[0]))
		n++
	case mode == 0xC || mode == 0xD:
		if len(b) < 2 {
			return s, 0, ErrTruncated
		}
		s.Mode = ModeWordDisp
		if mode == 0xD {
			s.Mode = ModeWordDispDef
		}
		s.Base = reg
		s.Disp = int32(int16(readUint(b, 2)))
		n += 2
	case mode == 0xE || mode == 0xF:
		if len(b) < 4 {
			return s, 0, ErrTruncated
		}
		s.Mode = ModeLongDisp
		if mode == 0xF {
			s.Mode = ModeLongDispDef
		}
		s.Base = reg
		s.Disp = int32(uint32(readUint(b, 4)))
		n += 4
	default:
		// Reached for a doubled index prefix (4x 4x): mode 4 after the
		// first prefix has already been consumed.
		//vaxlint:allow hotpath -- cold: reserved-operand decode error; the machine delivers a fault and the instruction aborts
		return s, 0, fmt.Errorf("vax: unhandled specifier byte %#02x", mb)
	}
	if s.Indexed && !s.Mode.Indexable() {
		return s, 0, ErrNotIndexable
	}
	return s, n, nil
}

// Instruction is a decoded VAX instruction: opcode description, decoded
// operand specifiers and (if present) sign-extended branch displacement.
type Instruction struct {
	Info     *OpInfo
	Specs    []Specifier
	Disp     int32 // sign-extended branch displacement
	Size     int   // total encoded size in bytes
	CaseDisp []int16
}

// Encode appends the instruction's I-stream encoding to buf.
func (in *Instruction) Encode(buf []byte) ([]byte, error) {
	if in.Info == nil {
		return nil, errors.New("vax: encode of instruction with nil Info")
	}
	buf = append(buf, byte(in.Info.Code))
	if len(in.Specs) != len(in.Info.Specs) {
		return nil, fmt.Errorf("vax: %s needs %d specifiers, got %d",
			in.Info.Name, len(in.Info.Specs), len(in.Specs))
	}
	var err error
	for i, s := range in.Specs {
		buf, err = EncodeSpecifier(buf, s, in.Info.Specs[i].Type)
		if err != nil {
			return nil, fmt.Errorf("vax: %s specifier %d: %w", in.Info.Name, i+1, err)
		}
	}
	switch in.Info.BranchDisp {
	case TypeByte:
		buf = append(buf, byte(int8(in.Disp)))
	case TypeWord:
		buf = appendUint(buf, uint64(uint16(int16(in.Disp))), 2)
	}
	if in.Info.PCClass == PCCase {
		for _, d := range in.CaseDisp {
			buf = appendUint(buf, uint64(uint16(d)), 2)
		}
	}
	return buf, nil
}

// Decode decodes one instruction from the start of b. CASEx displacement
// tables are not consumed here (their length depends on a runtime operand);
// the caller sees them as I-stream data following the instruction.
func Decode(b []byte) (Instruction, error) {
	var in Instruction
	if len(b) == 0 {
		return in, ErrTruncated
	}
	in.Info = Lookup(Opcode(b[0]))
	if in.Info == nil {
		return in, fmt.Errorf("vax: unimplemented opcode %#02x", b[0])
	}
	n := 1
	for _, os := range in.Info.Specs {
		s, sn, err := DecodeSpecifier(b[n:], os.Type)
		if err != nil {
			return in, fmt.Errorf("vax: %s: %w", in.Info.Name, err)
		}
		in.Specs = append(in.Specs, s)
		n += sn
	}
	switch in.Info.BranchDisp {
	case TypeByte:
		if len(b) < n+1 {
			return in, ErrTruncated
		}
		in.Disp = int32(int8(b[n]))
		n++
	case TypeWord:
		if len(b) < n+2 {
			return in, ErrTruncated
		}
		in.Disp = int32(int16(readUint(b[n:], 2)))
		n += 2
	}
	in.Size = n
	return in, nil
}

func appendUint(buf []byte, v uint64, n int) []byte {
	for i := 0; i < n; i++ {
		buf = append(buf, byte(v>>(8*i)))
	}
	return buf
}

func readUint(b []byte, n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}
