package cpu

import "vax780/internal/vax"

// Execute-phase microroutines for the SIMPLE group: moves, simple
// arithmetic, booleans, simple and loop branches, subroutine call/return
// (Table 1). Most share the one-cycle ALU microword — the microcode
// sharing that prevents the monitor distinguishing, say, integer add from
// subtract (§3.1).

// movResult runs the shared one-cycle move/ALU microword, sets N/Z, and
// stores the result in the last operand.
func movResult(m *Machine, result uint64) {
	m.tick(uw.sAluEntry)
	sz := m.ops[m.nops-1].size()
	m.ccNZ(result, sz)
	m.storeResult(m.nops-1, result)
}

// aluNoStore runs the shared ALU microword for compare/test instructions.
func aluNoStore(m *Machine) { m.tick(uw.sAluEntry) }

func init() {
	// --- Moves --------------------------------------------------------
	mov := func(m *Machine) { movResult(m, m.opVal(0)) }
	register(vax.MOVB, mov)
	register(vax.MOVW, mov)
	register(vax.MOVL, mov)
	register(vax.MOVQ, mov)
	register(vax.MOVZBL, mov)
	register(vax.MOVZBW, mov)
	register(vax.MOVZWL, mov)
	mova := func(m *Machine) { movResult(m, uint64(m.opAddr(0))) }
	register(vax.MOVAB, mova)
	register(vax.MOVAW, mova)
	register(vax.MOVAL, mova)
	register(vax.MOVAQ, mova)
	clr := func(m *Machine) { movResult(m, 0) }
	register(vax.CLRB, clr)
	register(vax.CLRW, clr)
	register(vax.CLRL, clr)
	register(vax.CLRQ, clr)
	mcom := func(m *Machine) { movResult(m, ^m.opVal(0)) }
	register(vax.MCOMB, mcom)
	register(vax.MCOMW, mcom)
	register(vax.MCOML, mcom)
	register(vax.MNEGL, func(m *Machine) { movResult(m, uint64(-int64(int32(uint32(m.opVal(0)))))) })
	register(vax.MNEGB, func(m *Machine) { movResult(m, uint64(-int64(int8(uint8(m.opVal(0)))))) })
	register(vax.MNEGW, func(m *Machine) { movResult(m, uint64(-int64(int16(uint16(m.opVal(0)))))) })

	// Integer converts: sign-extend the source, store at the destination
	// width (shared convert microcode; V on narrowing overflow).
	cvt := func(m *Machine) {
		src := signExtend(m.opVal(0), m.ops[0].size())
		dstSz := m.ops[1].size()
		m.tick(uw.sAluEntry)
		m.ccNZ(uint64(src), dstSz)
		if src != signExtend(uint64(src), dstSz) {
			m.PSL |= vax.PSLV
		}
		m.storeResult(1, uint64(src))
	}
	for _, op := range []vax.Opcode{vax.CVTBL, vax.CVTBW, vax.CVTWL, vax.CVTWB, vax.CVTLB, vax.CVTLW} {
		register(op, cvt)
	}

	// --- Pushes (execute-phase writes in the Simple row) ---------------
	push := func(val func(m *Machine) uint64) execFn {
		return func(m *Machine) {
			m.tick(uw.sAluEntry)
			v := val(m)
			m.ccNZ(v, 4)
			m.push32(uw.sPushWrite, uint32(v))
		}
	}
	register(vax.PUSHL, push(func(m *Machine) uint64 { return m.opVal(0) }))
	pusha := push(func(m *Machine) uint64 { return uint64(m.opAddr(0)) })
	register(vax.PUSHAB, pusha)
	register(vax.PUSHAW, pusha)
	register(vax.PUSHAL, pusha)
	register(vax.PUSHAQ, pusha)

	// --- Two- and three-operand integer arithmetic ---------------------
	add2 := func(m *Machine) {
		a, b := m.opVal(0), m.opVal(1)
		r := a + b
		m.tick(uw.sAluEntry)
		m.ccAdd(a, b, r, m.ops[1].size())
		m.storeResult(1, r)
	}
	register(vax.ADDB2, add2)
	register(vax.ADDW2, add2)
	register(vax.ADDL2, add2)
	add3 := func(m *Machine) {
		a, b := m.opVal(0), m.opVal(1)
		r := a + b
		m.tick(uw.sAluEntry)
		m.ccAdd(a, b, r, m.ops[2].size())
		m.storeResult(2, r)
	}
	register(vax.ADDB3, add3)
	register(vax.ADDW3, add3)
	register(vax.ADDL3, add3)
	sub2 := func(m *Machine) {
		sub, min := m.opVal(0), m.opVal(1)
		r := min - sub
		m.tick(uw.sAluEntry)
		m.ccSub(min, sub, r, m.ops[1].size())
		m.storeResult(1, r)
	}
	register(vax.SUBB2, sub2)
	register(vax.SUBW2, sub2)
	register(vax.SUBL2, sub2)
	sub3 := func(m *Machine) {
		sub, min := m.opVal(0), m.opVal(1)
		r := min - sub
		m.tick(uw.sAluEntry)
		m.ccSub(min, sub, r, m.ops[2].size())
		m.storeResult(2, r)
	}
	register(vax.SUBB3, sub3)
	register(vax.SUBW3, sub3)
	register(vax.SUBL3, sub3)
	register(vax.ADWC, func(m *Machine) {
		c := uint64(0)
		if m.PSL&vax.PSLC != 0 {
			c = 1
		}
		a, b := m.opVal(0), m.opVal(1)
		r := a + b + c
		m.tick(uw.sAluEntry)
		m.ccAdd(a, b+c, r, 4)
		m.storeResult(1, r)
	})
	register(vax.SBWC, func(m *Machine) {
		c := uint64(0)
		if m.PSL&vax.PSLC != 0 {
			c = 1
		}
		a, b := m.opVal(0), m.opVal(1)
		r := b - a - c
		m.tick(uw.sAluEntry)
		m.ccSub(b, a+c, r, 4)
		m.storeResult(1, r)
	})
	inc := func(m *Machine) {
		v := m.opVal(0) + 1
		m.tick(uw.sAluEntry)
		m.ccAdd(m.opVal(0), 1, v, m.ops[0].size())
		m.storeResult(0, v)
	}
	register(vax.INCB, inc)
	register(vax.INCW, inc)
	register(vax.INCL, inc)
	dec := func(m *Machine) {
		v := m.opVal(0) - 1
		m.tick(uw.sAluEntry)
		m.ccSub(m.opVal(0), 1, v, m.ops[0].size())
		m.storeResult(0, v)
	}
	register(vax.DECB, dec)
	register(vax.DECW, dec)
	register(vax.DECL, dec)

	// --- Compares and tests --------------------------------------------
	cmp := func(m *Machine) {
		aluNoStore(m)
		m.ccCmp(m.opVal(0), m.opVal(1), m.ops[0].size())
	}
	register(vax.CMPB, cmp)
	register(vax.CMPW, cmp)
	register(vax.CMPL, cmp)
	tst := func(m *Machine) {
		aluNoStore(m)
		m.ccNZ(m.opVal(0), m.ops[0].size())
	}
	register(vax.TSTB, tst)
	register(vax.TSTW, tst)
	register(vax.TSTL, tst)
	bit := func(m *Machine) {
		aluNoStore(m)
		m.ccNZ(m.opVal(0)&m.opVal(1), m.ops[0].size())
	}
	register(vax.BITB, bit)
	register(vax.BITW, bit)
	register(vax.BITL, bit)

	// --- Booleans -------------------------------------------------------
	bool2 := func(f func(mask, dst uint64) uint64) execFn {
		return func(m *Machine) {
			r := f(m.opVal(0), m.opVal(1))
			m.tick(uw.sAluEntry)
			m.ccNZ(r, m.ops[1].size())
			m.storeResult(1, r)
		}
	}
	bool3 := func(f func(mask, src uint64) uint64) execFn {
		return func(m *Machine) {
			r := f(m.opVal(0), m.opVal(1))
			m.tick(uw.sAluEntry)
			m.ccNZ(r, m.ops[2].size())
			m.storeResult(2, r)
		}
	}
	bis := func(a, b uint64) uint64 { return a | b }
	bic := func(a, b uint64) uint64 { return ^a & b }
	xor := func(a, b uint64) uint64 { return a ^ b }
	for _, e := range []struct {
		op2, op3 vax.Opcode
		f        func(a, b uint64) uint64
	}{
		{vax.BISL2, vax.BISL3, bis}, {vax.BICL2, vax.BICL3, bic}, {vax.XORL2, vax.XORL3, xor},
		{vax.BISW2, vax.BISW3, bis}, {vax.BICW2, vax.BICW3, bic}, {vax.XORW2, vax.XORW3, xor},
		{vax.BISB2, vax.BISB3, bis}, {vax.BICB2, vax.BICB3, bic}, {vax.XORB2, vax.XORB3, xor},
	} {
		register(e.op2, bool2(e.f))
		register(e.op3, bool3(e.f))
	}

	// ADAWI: add aligned word, interlocked (an extra bus-interlock cycle).
	register(vax.ADAWI, func(m *Machine) {
		a, b := m.opVal(0), m.opVal(1)
		r := a + b
		m.tick(uw.sAluEntry)
		m.tick(uw.sAluExtra) // interlock
		m.ccAdd(a, b, r, 2)
		m.storeResult(1, r)
	})

	// --- Shifts (a couple of extra ALU cycles) ---------------------------
	register(vax.ASHL, func(m *Machine) {
		cnt := int8(uint8(m.opVal(0)))
		src := uint32(m.opVal(1))
		var r uint32
		if cnt >= 0 {
			r = src << uint(cnt%32)
		} else {
			r = uint32(int32(src) >> uint(-cnt%32))
		}
		m.tick(uw.sAluEntry)
		m.ticks(uw.sAluExtra, 2)
		m.ccNZ(uint64(r), 4)
		m.storeResult(2, uint64(r))
	})
	register(vax.ROTL, func(m *Machine) {
		cnt := uint(uint8(m.opVal(0))) % 32
		src := uint32(m.opVal(1))
		r := src<<cnt | src>>(32-cnt)
		if cnt == 0 {
			r = src
		}
		m.tick(uw.sAluEntry)
		m.ticks(uw.sAluExtra, 2)
		m.ccNZ(uint64(r), 4)
		m.storeResult(2, uint64(r))
	})

	// --- NOP ------------------------------------------------------------
	register(vax.NOP, func(m *Machine) { m.tick(uw.sAluEntry) })

	// INDEX subscript.rl, low.rl, high.rl, size.rl, indexin.rl, indexout.wl:
	// the array-subscript instruction (indexout = (indexin+subscript)*size)
	// with bounds checking; V set out of range.
	register(vax.INDEX, func(m *Machine) {
		m.tick(uw.sAluEntry)
		m.ticks(uw.sAluExtra, 5) // bounds check and multiply steps
		sub := int64(int32(uint32(m.opVal(0))))
		low := int64(int32(uint32(m.opVal(1))))
		high := int64(int32(uint32(m.opVal(2))))
		size := int64(int32(uint32(m.opVal(3))))
		in := int64(int32(uint32(m.opVal(4))))
		out := (in + sub) * size
		m.ccNZ(uint64(uint32(out)), 4)
		if sub < low || sub > high {
			m.PSL |= vax.PSLV
		}
		m.storeResult(5, uint64(uint32(out)))
	})

	// --- Simple conditional branches (plus BRB/BRW, microcode-shared) ----
	condBr := func(m *Machine) {
		m.tick(uw.brCondEntry)
		if m.branchCond(m.instr.Code) {
			m.branchTake(uw.brCondTaken)
		} else {
			m.branchSkip()
		}
	}
	for _, op := range []vax.Opcode{
		vax.BRB, vax.BRW, vax.BNEQ, vax.BEQL, vax.BGTR, vax.BLEQ,
		vax.BGEQ, vax.BLSS, vax.BGTRU, vax.BLEQU, vax.BVC, vax.BVS,
		vax.BCC, vax.BCS,
	} {
		register(op, condBr)
	}

	// --- Low-bit tests ----------------------------------------------------
	lowbit := func(want uint64) execFn {
		return func(m *Machine) {
			m.tick(uw.brLBEntry)
			if m.opVal(0)&1 == want {
				m.branchTake(uw.brLBTaken)
			} else {
				m.branchSkip()
			}
		}
	}
	register(vax.BLBS, lowbit(1))
	register(vax.BLBC, lowbit(0))

	// --- Loop branches -----------------------------------------------------
	register(vax.SOBGTR, sob(func(v int32) bool { return v > 0 }))
	register(vax.SOBGEQ, sob(func(v int32) bool { return v >= 0 }))
	register(vax.AOBLSS, aob(func(v, limit int32) bool { return v < limit }))
	register(vax.AOBLEQ, aob(func(v, limit int32) bool { return v <= limit }))
	register(vax.ACBB, acb)
	register(vax.ACBW, acb)
	register(vax.ACBL, acb)

	// --- Subroutine call and return ------------------------------------------
	bsb := func(m *Machine) {
		m.tick(uw.brBSBEntry)
		target, ok := m.takeDisp()
		if !ok {
			return
		}
		m.push32(uw.brBSBPush, m.ib.cur())
		m.redirect(uw.brBSBTaken, target)
	}
	register(vax.BSBB, bsb)
	register(vax.BSBW, bsb)
	register(vax.JSB, func(m *Machine) {
		m.tick(uw.brJSBEntry)
		m.push32(uw.brJSBPush, m.ib.cur())
		m.redirect(uw.brJSBTaken, m.opAddr(0))
	})
	register(vax.RSB, func(m *Machine) {
		m.tick(uw.brRSBEntry)
		ret := m.pop32(uw.brRSBRead)
		m.redirect(uw.brRSBTaken, ret)
	})
	register(vax.JMP, func(m *Machine) {
		m.tick(uw.brJMPEntry)
		m.redirect(uw.brJMPTaken, m.opAddr(0))
	})

	// --- Case branches ---------------------------------------------------------
	register(vax.CASEB, caseBr)
	register(vax.CASEW, caseBr)
	register(vax.CASEL, caseBr)
}

func sob(taken func(int32) bool) execFn {
	return func(m *Machine) {
		m.tick(uw.brLoopEntry)
		v := uint32(m.opVal(0)) - 1
		m.ccNZ(uint64(v), 4)
		m.storeResult(0, uint64(v))
		if taken(int32(v)) {
			m.branchTake(uw.brLoopTaken)
		} else {
			m.branchSkip()
		}
	}
}

func aob(taken func(v, limit int32) bool) execFn {
	return func(m *Machine) {
		m.tick(uw.brLoopEntry)
		limit := int32(uint32(m.opVal(0)))
		v := uint32(m.opVal(1)) + 1
		m.ccNZ(uint64(v), 4)
		m.storeResult(1, uint64(v))
		if taken(int32(v), limit) {
			m.branchTake(uw.brLoopTaken)
		} else {
			m.branchSkip()
		}
	}
}

// acb implements ACBB/ACBW/ACBL (add-compare-branch, word displacement).
func acb(m *Machine) {
	m.tick(uw.brLoopEntry)
	sz := m.ops[2].size()
	limit := signExtend(m.opVal(0), sz)
	add := signExtend(m.opVal(1), sz)
	v := signExtend(m.opVal(2), sz) + add
	m.ccNZ(uint64(v)&sizeMask(sz), sz)
	m.storeResult(2, uint64(v)&sizeMask(sz))
	taken := (add >= 0 && v <= limit) || (add < 0 && v >= limit)
	if taken {
		m.branchTake(uw.brLoopTaken)
	} else {
		m.branchSkip()
	}
}

// caseBr implements CASEx: selector check, displacement-table read, and an
// unconditional redirect (Table 2 reports case branches at 100%).
func caseBr(m *Machine) {
	m.tick(uw.brCaseEntry)
	m.tick(uw.brCaseWork)
	sz := m.ops[0].size()
	sel := (m.opVal(0) - m.opVal(1)) & sizeMask(sz)
	limit := m.opVal(2) & sizeMask(sz)
	base := m.ib.cur()
	var target uint32
	if sel <= limit {
		d := m.dread(uw.brCaseRead, base+2*uint32(sel), 2)
		target = base + uint32(int32(int16(uint16(d))))
	} else {
		target = base + 2*(uint32(limit)+1)
	}
	m.redirect(uw.brCaseTaken, target)
}
