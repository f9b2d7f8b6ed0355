package cpu

import (
	"math"

	"vax780/internal/vax"
)

// operand is a decoded, processed operand latch.
type operand struct {
	spec  vax.Specifier
	acc   vax.AccessType
	dt    vax.DataType
	bank  *specBank // bank whose store microwords write the result back
	isReg bool
	reg   vax.Reg
	addr  uint32 // effective address for memory operands
	val   uint64 // operand value for read/modify access
}

// size returns the operand's size in bytes.
func (o *operand) size() int { return o.dt.Size() }

// runSpecifier decodes and processes operand specifier i of the current
// instruction. First specifiers dispatch through the SPEC1 bank, all others
// through SPEC2-6; an indexed specifier always runs in the SPEC2-6 bank
// (the microcode-sharing artifact §5 of the paper describes).
func (m *Machine) runSpecifier(i int, os vax.OperandSpec) {
	bank := &uw.spec[0]
	if i > 0 {
		bank = &uw.spec[1]
	}
	op := &m.ops[i]
	*op = operand{acc: os.Access, dt: os.Type}

	// Determine the specifier's I-stream length by peeking at the mode
	// byte(s); the decode hardware needs the bytes present, so waiting
	// here is IB stall charged to this bank's stall location.
	if !m.ibWait(1, bank.stall) {
		return
	}
	prefix := 0
	b0 := m.ib.peek(1)[0]
	if b0>>4 == 4 { // index prefix
		prefix = 1
		if !m.ibWait(2, bank.stall) {
			return
		}
		b0 = m.ib.peek(2)[1]
	}
	total := prefix + 1 + specExtraBytes(b0, os.Type)
	if total > ibSize {
		// An 8-byte immediate (9 I-stream bytes) cannot fit the IB at
		// once: the hardware consumes it in two dispatch cycles.
		m.wideImmediate(bank, op, os)
		return
	}
	if !m.ibWait(total, bank.stall) {
		return
	}
	spec, n, err := vax.DecodeSpecifier(m.ib.peek(total), os.Type)
	if err != nil {
		// A malformed specifier is architecturally a reserved addressing
		// mode fault, not a simulator stop.
		m.deliverException(SCBReservedAddr, nil)
		return
	}
	if n != total {
		m.fail("specifier decode at pc %#x: consumed %d of %d bytes", m.ib.cur(), n, total)
		return
	}
	op.spec = spec
	if spec.Indexed {
		bank = &uw.spec[1]
	}
	op.bank = bank

	// Consume the specifier bytes: one dispatch cycle at the mode's entry
	// location (a second for immediates wider than the 4-byte data path).
	m.ib.consume(total)
	m.tick(bank.dispatch[spec.Mode])
	if spec.Mode == vax.ModeImmediate && os.Type.Size() > 4 {
		m.tick(bank.immExtra)
	}

	// Mode-specific operand processing.
	sz := os.Type.Size()
	switch spec.Mode {
	case vax.ModeLiteral:
		op.val = expandLiteral(uint8(spec.Disp), os.Type)
		return
	case vax.ModeImmediate:
		op.val = spec.Imm
		return
	case vax.ModeRegister:
		op.isReg = true
		op.reg = spec.Base
		if os.Access == vax.AccessRead || os.Access == vax.AccessModify {
			op.val = m.regRead(spec.Base, os.Type)
		}
		return
	case vax.ModeRegDeferred:
		op.addr = m.R[spec.Base]
	case vax.ModeAutoInc:
		op.addr = m.R[spec.Base]
		m.R[spec.Base] += uint32(sz)
		m.tick(bank.calc)
	case vax.ModeAutoDec:
		m.R[spec.Base] -= uint32(sz)
		op.addr = m.R[spec.Base]
		m.tick(bank.calc)
	case vax.ModeAutoIncDef:
		ptr := m.R[spec.Base]
		m.R[spec.Base] += 4
		m.tick(bank.calc)
		op.addr = uint32(m.dread(bank.readPtr, ptr, 4))
	case vax.ModeAbsolute:
		op.addr = uint32(spec.Imm)
	case vax.ModeByteDisp, vax.ModeWordDisp, vax.ModeLongDisp:
		op.addr = m.specBase(spec.Base) + uint32(spec.Disp)
		m.tick(bank.calc)
	case vax.ModeByteDispDef, vax.ModeWordDispDef, vax.ModeLongDispDef:
		ptr := m.specBase(spec.Base) + uint32(spec.Disp)
		m.tick(bank.calc)
		op.addr = uint32(m.dread(bank.readPtr, ptr, 4))
	}
	if spec.Indexed {
		op.addr += uint32(sz) * m.R[spec.Index]
		m.tick(bank.index)
	}

	// Access-type processing for memory operands.
	switch os.Access {
	case vax.AccessRead, vax.AccessModify:
		op.val = m.dread(bank.readData, op.addr, minInt(sz, 4))
		if sz == 8 {
			op.val |= m.dread(bank.readData2, op.addr+4, 4) << 32
		}
	case vax.AccessWrite, vax.AccessAddr, vax.AccessField:
		// Address only; data is written at result-store time (write) or
		// accessed by the execute phase (addr/field).
	}
}

// wideImmediate consumes a quadword immediate specifier: mode byte, then
// two longword helpings from the IB, each with a dispatch cycle.
func (m *Machine) wideImmediate(bank *specBank, op *operand, os vax.OperandSpec) {
	op.bank = bank
	op.spec = vax.Specifier{Mode: vax.ModeImmediate}
	m.ib.consume(1) // the (PC)+ mode byte
	m.tick(bank.dispatch[vax.ModeImmediate])
	// Fold each longword into the value before the next IB interaction:
	// takeExtra hands out the IB's scratch buffer, so the second helping
	// overwrites the first.
	lo := m.takeExtra(bank.stall, 4)
	if lo == nil {
		return
	}
	var v uint64
	for i := 0; i < 4; i++ {
		v |= uint64(lo[i]) << (8 * i)
	}
	m.tick(bank.immExtra)
	hi := m.takeExtra(bank.stall, 4)
	if hi == nil {
		return
	}
	for i := 0; i < 4; i++ {
		v |= uint64(hi[i]) << (32 + 8*i)
	}
	op.val = v
	op.spec.Imm = v
}

// specBase returns the value of a specifier base register; PC reads as the
// address of the byte following the specifier (the IB pointer, since the
// specifier bytes have been consumed).
func (m *Machine) specBase(r vax.Reg) uint32 {
	if r == vax.PC {
		return m.ib.cur()
	}
	return m.R[r]
}

// specExtraBytes returns the I-stream bytes that follow a specifier's mode
// byte.
func specExtraBytes(modeByte uint8, t vax.DataType) int {
	mode := modeByte >> 4
	reg := modeByte & 0x0F
	switch {
	case mode <= 3: // literal
		return 0
	case mode == 8 && reg == 0x0F: // immediate
		return t.Size()
	case mode == 9 && reg == 0x0F: // absolute
		return 4
	case mode == 0xA || mode == 0xB:
		return 1
	case mode == 0xC || mode == 0xD:
		return 2
	case mode == 0xE || mode == 0xF:
		return 4
	}
	return 0
}

// storeResult writes val back to operand i (a write- or modify-access
// destination). Register stores are the folded specifier/execute cycle the
// paper reports in the SPEC rows; memory stores are specifier-row writes.
func (m *Machine) storeResult(i int, val uint64) {
	op := &m.ops[i]
	sz := op.size()
	if op.isReg {
		m.tick(op.bank.storeReg)
		m.regWrite(op.reg, val, op.dt)
		return
	}
	m.dwrite(op.bank.writeData, op.addr, minInt(sz, 4), val)
	if sz == 8 {
		m.dwrite(op.bank.writeData2, op.addr+4, 4, val>>32)
	}
}

// regRead reads a register operand (quad operands pair Rn with Rn+1).
func (m *Machine) regRead(r vax.Reg, t vax.DataType) uint64 {
	switch t.Size() {
	case 8:
		return uint64(m.R[r]) | uint64(m.R[(r+1)&0xF])<<32
	default:
		return uint64(m.R[r]) & sizeMask(t.Size())
	}
}

// regWrite writes a register operand, preserving high-order bytes for
// sub-longword writes (VAX semantics).
func (m *Machine) regWrite(r vax.Reg, v uint64, t vax.DataType) {
	switch t.Size() {
	case 8:
		m.R[r] = uint32(v)
		m.R[(r+1)&0xF] = uint32(v >> 32)
	case 4:
		m.R[r] = uint32(v)
	case 2:
		m.R[r] = m.R[r]&0xFFFF0000 | uint32(v)&0xFFFF
	case 1:
		m.R[r] = m.R[r]&0xFFFFFF00 | uint32(v)&0xFF
	}
}

// opVal returns operand i's value (already fetched for read/modify access).
func (m *Machine) opVal(i int) uint64 { return m.ops[i].val }

// opAddr returns operand i's effective address.
func (m *Machine) opAddr(i int) uint32 { return m.ops[i].addr }

// expandLiteral expands a 6-bit short literal per the operand data type:
// integers zero-extend; floating literals encode (1 + f/8)·2^(e-1) with
// e = bits 5:3 and f = bits 2:0, spanning 0.5 .. 120.0.
func expandLiteral(lit uint8, t vax.DataType) uint64 {
	switch t {
	case vax.TypeFloatF:
		return uint64(math.Float32bits(float32(literalFloat(lit))))
	case vax.TypeFloatD:
		return math.Float64bits(literalFloat(lit))
	default:
		return uint64(lit)
	}
}

func literalFloat(lit uint8) float64 {
	e := int(lit>>3) & 7
	f := float64(lit & 7)
	return (1 + f/8) * math.Pow(2, float64(e-1))
}

func sizeMask(sz int) uint64 {
	if sz >= 8 {
		return ^uint64(0)
	}
	return 1<<(8*uint(sz)) - 1
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
