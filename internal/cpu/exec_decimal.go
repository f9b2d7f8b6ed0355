package cpu

// Execute-phase microroutines for the DECIMAL group: packed-decimal
// arithmetic. Operands are architectural packed strings: two digits per
// byte, most significant first, sign in the low nibble of the last byte
// (0xC positive, 0xD negative); a string of n digits occupies n/2+1 bytes.

import "vax780/internal/vax"

func packedBytes(digits int) int { return digits/2 + 1 }

// readPacked reads a packed-decimal string with timed byte reads and the
// per-digit compute cycles of the decimal microcode loops.
func (m *Machine) readPacked(addr uint32, digits int) int64 {
	var v int64
	n := packedBytes(digits)
	for i := 0; i < n; i++ {
		b := byte(m.dread(uw.deRead, addr+uint32(i), 1))
		m.ticks(uw.deWork, 4)
		if i == n-1 {
			v = v*10 + int64(b>>4)
			if b&0x0F == 0x0D {
				v = -v
			}
		} else {
			v = v*100 + int64(b>>4)*10 + int64(b&0x0F)
		}
	}
	return v
}

// writePacked writes a packed-decimal string with timed writes.
func (m *Machine) writePacked(addr uint32, digits int, v int64) {
	neg := v < 0
	if neg {
		v = -v
	}
	n := packedBytes(digits)
	// Build digits least-significant first. An int64 has at most 19
	// decimal digits, so every digit past the array is zero.
	var ds [20]byte
	for i := range ds {
		ds[i] = byte(v % 10)
		v /= 10
	}
	digit := func(k int) byte {
		if k < len(ds) {
			return ds[k]
		}
		return 0
	}
	for i := n - 1; i >= 0; i-- {
		var b byte
		if i == n-1 {
			sign := byte(0x0C)
			if neg {
				sign = 0x0D
			}
			b = ds[0]<<4 | sign
		} else {
			b = digit(2*(n-1-i))<<4 | digit(2*(n-1-i)-1)
		}
		m.ticks(uw.deWork, 4)
		m.dwrite(uw.deWrite, addr+uint32(i), 1, uint64(b))
	}
}

func (m *Machine) decSetup(n int) {
	m.tick(uw.deEntry)
	m.ticks(uw.deSetup, 2*n)
}

func (m *Machine) decFinish(result int64) {
	m.tick(uw.deDone)
	m.setCC(result < 0, result == 0, false, false)
}

func init() {
	// ADDP4 addlen.rw, addaddr.ab, sumlen.rw, sumaddr.ab
	register(vax.ADDP4, decArith(func(a, b int64) int64 { return b + a }))
	// SUBP4: dif <- dif - sub
	register(vax.SUBP4, decArith(func(a, b int64) int64 { return b - a }))

	// ADDP6 / SUBP6 / MULP / DIVP: len1,addr1, len2,addr2, len3,addr3.
	register(vax.ADDP6, dec6(func(a, b int64) int64 { return a + b }, 0))
	register(vax.SUBP6, dec6(func(a, b int64) int64 { return b - a }, 0))
	register(vax.MULP, dec6(func(a, b int64) int64 { return a * b }, 8))
	register(vax.DIVP, dec6(func(a, b int64) int64 {
		if a == 0 {
			return 0
		}
		return b / a
	}, 16))

	// MOVP len.rw, src.ab, dst.ab
	register(vax.MOVP, func(m *Machine) {
		m.decSetup(3)
		digits := int(uint16(m.opVal(0)))
		v := m.readPacked(m.opAddr(1), digits)
		m.writePacked(m.opAddr(2), digits, v)
		m.decFinish(v)
	})

	// CMPP3 len.rw, src1.ab, src2.ab
	register(vax.CMPP3, func(m *Machine) {
		m.decSetup(3)
		digits := int(uint16(m.opVal(0)))
		a := m.readPacked(m.opAddr(1), digits)
		b := m.readPacked(m.opAddr(2), digits)
		m.tick(uw.deDone)
		m.setCC(a < b, a == b, false, false)
	})

	// CVTPL len.rw, src.ab, dst.wl
	register(vax.CVTPL, func(m *Machine) {
		m.decSetup(4)
		digits := int(uint16(m.opVal(0)))
		v := m.readPacked(m.opAddr(1), digits)
		m.ticks(uw.deWork, 4)
		m.ccNZ(uint64(uint32(int32(v))), 4)
		m.storeResult(2, uint64(uint32(int32(v))))
	})

	// CVTLP src.rl, len.rw, dst.ab
	register(vax.CVTLP, func(m *Machine) {
		m.decSetup(4)
		digits := int(uint16(m.opVal(1)))
		v := int64(int32(uint32(m.opVal(0))))
		m.ticks(uw.deWork, 6) // binary-to-decimal divide chain
		m.writePacked(m.opAddr(2), digits, clampDigits(v, digits))
		m.decFinish(v)
	})

	// ASHP cnt.rb, srclen.rw, src.ab, round.rb, dstlen.rw, dst.ab
	register(vax.ASHP, func(m *Machine) {
		m.decSetup(6)
		cnt := int(int8(uint8(m.opVal(0))))
		srcDigits := int(uint16(m.opVal(1)))
		dstDigits := int(uint16(m.opVal(4)))
		v := m.readPacked(m.opAddr(2), srcDigits)
		m.ticks(uw.deWork, 6)
		for i := 0; i < cnt; i++ {
			v *= 10
		}
		for i := 0; i > cnt; i-- {
			v /= 10
		}
		m.writePacked(m.opAddr(5), dstDigits, clampDigits(v, dstDigits))
		m.decFinish(v)
	})
}

// decArith builds the 4-operand add/subtract routine.
func decArith(f func(a, b int64) int64) execFn {
	return func(m *Machine) {
		m.decSetup(4)
		alen := int(uint16(m.opVal(0)))
		blen := int(uint16(m.opVal(2)))
		a := m.readPacked(m.opAddr(1), alen)
		b := m.readPacked(m.opAddr(3), blen)
		r := clampDigits(f(a, b), blen)
		m.writePacked(m.opAddr(3), blen, r)
		m.decFinish(r)
	}
}

// dec6 builds the 6-operand three-address routines with extra work cycles
// for multiply/divide digit loops.
func dec6(f func(a, b int64) int64, extra int) execFn {
	return func(m *Machine) {
		m.decSetup(5)
		alen := int(uint16(m.opVal(0)))
		blen := int(uint16(m.opVal(2)))
		rlen := int(uint16(m.opVal(4)))
		a := m.readPacked(m.opAddr(1), alen)
		b := m.readPacked(m.opAddr(3), blen)
		m.ticks(uw.deWork, extra)
		r := clampDigits(f(a, b), rlen)
		m.writePacked(m.opAddr(5), rlen, r)
		m.decFinish(r)
	}
}

// clampDigits truncates v to the given number of decimal digits (decimal
// overflow wraps in this model; the workloads keep within range).
func clampDigits(v int64, digits int) int64 {
	var mod int64 = 1
	for i := 0; i < digits && mod < 1e18; i++ {
		mod *= 10
	}
	return v % mod
}
