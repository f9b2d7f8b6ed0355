package cpu

import "vax780/internal/vax"

// Execute-phase microroutines for the FLOAT group: F/D floating point
// (assisted by the Floating Point Accelerator all measured machines had,
// §2.2) plus integer multiply/divide, which Table 1 groups with FLOAT.

// fpWorkCycles is the FPA-assisted execute-phase cost by operation kind.
// Costs are in addition to the one-cycle entry word.
const (
	fpCostMove = 2
	fpCostAdd  = 6
	fpCostMul  = 9
	fpCostDiv  = 14
	fpCostCvt  = 5
	fpCostAddD = 9
	fpCostMulD = 13
	fpCostDivD = 18
	fpCostMulI = 12 // integer multiply (microcode loop)
	fpCostDivI = 20 // integer divide
)

// fpCost applies the FPA ablation: without the accelerator the floating
// microcode loops take several times as long.
func (m *Machine) fpCost(cost int) int {
	if m.cfg.NoFPA {
		return cost * m.cfg.FPASlowdown
	}
	return cost
}

func fpBinary(cost int, f func(a, b float64) float64, dst int) execFn {
	return func(m *Machine) {
		m.tick(uw.fpEntry)
		m.ticks(uw.fpWork, m.fpCost(cost))
		t := m.ops[dst].dt
		a := fval(m.opVal(0), t)
		b := fval(m.opVal(1), t)
		r := f(b, a) // VAX order: op2 OP op1 for 2-operand, op1/op2 for 3-op
		m.ccFloat(r)
		m.fpStore(dst, fbits(r, t))
	}
}

// fpStore stores a floating result; D-floating register pairs store with
// the execute-phase write word covering the second longword of memory
// destinations (the small Float-row write traffic in Table 8).
func (m *Machine) fpStore(dst int, bits uint64) {
	op := &m.ops[dst]
	if !op.isReg && op.size() == 8 {
		// First longword through the destination specifier's bank write
		// word (Spec-row traffic), second here: only the second longword
		// is Float-row execute-phase writing.
		m.dwrite(op.bank.writeData, op.addr, 4, bits)
		m.dwrite(uw.fpWrite, op.addr+4, 4, bits>>32)
		return
	}
	m.storeResult(dst, bits)
}

func init() {
	add := func(a, b float64) float64 { return a + b }
	sub := func(a, b float64) float64 { return a - b }
	mul := func(a, b float64) float64 { return a * b }
	div := func(a, b float64) float64 { return a / b }

	register(vax.ADDF2, fpBinary(fpCostAdd, add, 1))
	register(vax.ADDF3, fpBinary(fpCostAdd, add, 2))
	register(vax.SUBF2, fpBinary(fpCostAdd, sub, 1))
	register(vax.SUBF3, fpBinary(fpCostAdd, sub, 2))
	register(vax.MULF2, fpBinary(fpCostMul, mul, 1))
	register(vax.MULF3, fpBinary(fpCostMul, mul, 2))
	register(vax.DIVF2, fpBinary(fpCostDiv, div, 1))
	register(vax.DIVF3, fpBinary(fpCostDiv, div, 2))
	register(vax.ADDD2, fpBinary(fpCostAddD, add, 1))
	register(vax.ADDD3, fpBinary(fpCostAddD, add, 2))
	register(vax.SUBD2, fpBinary(fpCostAddD, sub, 1))
	register(vax.SUBD3, fpBinary(fpCostAddD, sub, 2))
	register(vax.MULD2, fpBinary(fpCostMulD, mul, 1))
	register(vax.MULD3, fpBinary(fpCostMulD, mul, 2))
	register(vax.DIVD2, fpBinary(fpCostDivD, div, 1))
	register(vax.DIVD3, fpBinary(fpCostDivD, div, 2))

	register(vax.MOVF, func(m *Machine) {
		m.tick(uw.fpEntry)
		m.ticks(uw.fpWork, m.fpCost(fpCostMove))
		v := m.opVal(0)
		m.ccFloat(f32of(v))
		m.fpStore(1, v)
	})
	register(vax.MOVD, func(m *Machine) {
		m.tick(uw.fpEntry)
		m.ticks(uw.fpWork, m.fpCost(fpCostMove))
		v := m.opVal(0)
		m.ccFloat(f64of(v))
		m.fpStore(1, v)
	})
	register(vax.MNEGF, func(m *Machine) {
		m.tick(uw.fpEntry)
		m.ticks(uw.fpWork, m.fpCost(fpCostMove))
		r := -f32of(m.opVal(0))
		m.ccFloat(r)
		m.fpStore(1, f32bits(r))
	})
	register(vax.CMPF, func(m *Machine) {
		m.tick(uw.fpEntry)
		m.ticks(uw.fpWork, 2)
		a, b := f32of(m.opVal(0)), f32of(m.opVal(1))
		m.setCC(a < b, a == b, false, false)
	})
	register(vax.CMPD, func(m *Machine) {
		m.tick(uw.fpEntry)
		m.ticks(uw.fpWork, 2)
		a, b := f64of(m.opVal(0)), f64of(m.opVal(1))
		m.setCC(a < b, a == b, false, false)
	})
	register(vax.TSTF, func(m *Machine) {
		m.tick(uw.fpEntry)
		m.ccFloat(f32of(m.opVal(0)))
	})
	register(vax.TSTD, func(m *Machine) {
		m.tick(uw.fpEntry)
		m.ccFloat(f64of(m.opVal(0)))
	})
	register(vax.CVTFL, func(m *Machine) {
		m.tick(uw.fpEntry)
		m.ticks(uw.fpWork, m.fpCost(fpCostCvt))
		f := f32of(m.opVal(0))
		// Out-of-range conversions set V and truncate (architectural
		// integer overflow behaviour, kept deterministic here).
		if f > 2147483647 || f < -2147483648 || f != f {
			m.PSL |= vax.PSLV
			f = 0
		}
		r := int32(f)
		m.ccNZ(uint64(uint32(r)), 4)
		m.storeResult(1, uint64(uint32(r)))
	})
	register(vax.CVTLF, func(m *Machine) {
		m.tick(uw.fpEntry)
		m.ticks(uw.fpWork, m.fpCost(fpCostCvt))
		r := float64(int32(uint32(m.opVal(0))))
		m.ccFloat(r)
		m.fpStore(1, f32bits(r))
	})

	// Integer multiply and divide (FLOAT group per Table 1).
	imul2 := func(dst int) execFn {
		return func(m *Machine) {
			m.tick(uw.fpEntry)
			m.ticks(uw.fpWork, m.fpCost(fpCostMulI))
			r := int64(int32(uint32(m.opVal(0)))) * int64(int32(uint32(m.opVal(1))))
			m.ccNZ(uint64(uint32(r)), 4)
			m.storeResult(dst, uint64(uint32(r)))
		}
	}
	register(vax.MULL2, imul2(1))
	register(vax.MULL3, imul2(2))
	register(vax.MULW2, func(m *Machine) {
		m.tick(uw.fpEntry)
		m.ticks(uw.fpWork, m.fpCost(fpCostMulI))
		r := int32(int16(uint16(m.opVal(0)))) * int32(int16(uint16(m.opVal(1))))
		m.ccNZ(uint64(uint16(r)), 2)
		m.storeResult(1, uint64(uint16(r)))
	})
	idiv := func(dst int) execFn {
		return func(m *Machine) {
			m.tick(uw.fpEntry)
			m.ticks(uw.fpWork, m.fpCost(fpCostDivI))
			divisor := int32(uint32(m.opVal(0)))
			dividend := int32(uint32(m.opVal(1)))
			var r int32
			v := false
			if divisor == 0 {
				v = true
				r = dividend
			} else {
				r = dividend / divisor
			}
			m.ccNZ(uint64(uint32(r)), 4)
			if v {
				m.PSL |= vax.PSLV
			}
			m.storeResult(dst, uint64(uint32(r)))
		}
	}
	register(vax.DIVL2, idiv(1))
	register(vax.DIVL3, idiv(2))

	register(vax.EMUL, func(m *Machine) {
		m.tick(uw.fpEntry)
		m.ticks(uw.fpWork, m.fpCost(fpCostMulI+2))
		r := int64(int32(uint32(m.opVal(0))))*int64(int32(uint32(m.opVal(1)))) +
			int64(int32(uint32(m.opVal(2))))
		m.ccNZ(uint64(r), 8)
		m.storeResult(3, uint64(r))
	})
	register(vax.EDIV, func(m *Machine) {
		m.tick(uw.fpEntry)
		m.ticks(uw.fpWork, m.fpCost(fpCostDivI+4))
		divisor := int64(int32(uint32(m.opVal(0))))
		dividend := int64(m.opVal(1))
		var q, rem int64
		if divisor != 0 {
			q = dividend / divisor
			rem = dividend % divisor
		} else {
			m.PSL |= vax.PSLV
		}
		m.storeResult(2, uint64(uint32(q)))
		m.storeResult(3, uint64(uint32(rem)))
		m.ccNZ(uint64(uint32(q)), 4)
	})
	register(vax.ASHQ, func(m *Machine) {
		m.tick(uw.fpEntry)
		m.ticks(uw.fpWork, 4)
		cnt := int8(uint8(m.opVal(0)))
		src := m.opVal(1)
		var r uint64
		if cnt >= 0 {
			r = src << uint(cnt%64)
		} else {
			r = uint64(int64(src) >> uint(-cnt%64))
		}
		m.ccNZ(r, 8)
		m.storeResult(2, r)
	})
}
