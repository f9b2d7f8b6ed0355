package cpu

import (
	"vax780/internal/cache"
	"vax780/internal/tb"
)

// IBStats are hardware counters of the I-Fetch unit. They are NOT visible
// to the µPC monitor (the paper's §2.2 limitation: I-stream references are
// made by a distinct portion of the processor); they stand in for the
// authors' "earlier cache study" numbers used in §4.1.
type IBStats struct {
	CacheRefs      uint64 // longword cache references made by the IB
	BytesDelivered uint64 // bytes accepted into the IB
	BytesConsumed  uint64 // I-stream bytes decoded (measures instruction size)
	Redirects      uint64 // IB flushes caused by PC-changing instructions
	TBMisses       uint64 // I-stream translation misses detected by I-Fetch
}

// ibox models the I-Fetch stage and the 8-byte instruction buffer. It
// fills autonomously while the EBOX computes: the fill state is advanced
// lazily to the EBOX's current cycle before any interaction.
type ibox struct {
	m *Machine

	ptr   uint32 // VA of the next byte to deliver to I-Decode
	valid int    // valid bytes buffered ahead of ptr (0..8)

	fillPending bool
	fillDone    uint64 // cycle the outstanding longword arrives
	fillBytes   int    // bytes it will deliver

	tbMissPending bool
	tbMissVA      uint32

	advanced uint64 // cycle up to which fill activity is simulated

	stats IBStats

	// scratch backs peek/consume. The decode hardware reads the IB
	// combinationally, so the bytes handed out are valid only until the
	// next peek or consume call; callers fold them into values before
	// touching the IB again (wideImmediate is the two-helping case).
	// Reusing one array keeps the per-cycle decode path allocation-free.
	scratch [ibSize]byte
}

const ibSize = 8

// cur returns the VA of the next undecoded byte (the architectural PC).
func (ib *ibox) cur() uint32 { return ib.ptr }

// redirect flushes the IB and restarts fetch at va (branch taken, REI,
// context switch). An in-flight memory transaction is abandoned but its
// bus occupancy remains — as on the real machine.
func (ib *ibox) redirect(va uint32) {
	ib.ptr = va
	ib.valid = 0
	ib.fillPending = false
	ib.tbMissPending = false
	ib.stats.Redirects++
	// Fetch down the new stream starts now, not at the (possibly earlier)
	// cycle the lazy fill simulation had reached.
	if ib.m.cycle > ib.advanced {
		ib.advanced = ib.m.cycle
	}
}

// advance simulates I-Fetch activity up to cycle `to`.
func (ib *ibox) advance(to uint64) {
	if ib.advanced >= to {
		return
	}
	now := ib.advanced
	for now < to {
		if ib.fillPending {
			if ib.fillDone > to {
				break
			}
			now = ib.fillDone
			ib.fillPending = false
			room := ibSize - ib.valid
			n := ib.fillBytes
			if n > room {
				n = room
			}
			ib.valid += n
			ib.stats.BytesDelivered += uint64(n)
			continue
		}
		if ib.valid >= ibSize || ib.tbMissPending {
			break
		}
		// Issue the next longword reference for the first empty byte.
		// The IB can re-reference the same longword (up to four times,
		// §4.1) when only part of it fit; it waits for two bytes of room
		// before requesting, bounding the waste.
		fillVA := ib.ptr + uint32(ib.valid)
		if ibSize-ib.valid < 2 {
			break
		}
		pa, ok := ib.translate(fillVA)
		if !ok {
			// Set the miss flag; the EBOX notices it when it next finds
			// insufficient bytes in the IB (§2.1).
			ib.tbMissPending = true
			ib.tbMissVA = fillVA
			break
		}
		ib.stats.CacheRefs++
		bytesInLong := 4 - int(fillVA&3)
		if ib.m.Cache.Read(pa&^3, cache.IStream) {
			ib.fillPending = true
			ib.fillDone = now + 1
			ib.fillBytes = bytesInLong
		} else {
			ib.fillPending = true
			ib.fillDone = ib.m.SBI.Read(now)
			ib.fillBytes = bytesInLong
		}
	}
	if ib.advanced < to {
		ib.advanced = to
	}
	if now > ib.advanced {
		ib.advanced = now
	}
}

// translate performs the I-Fetch unit's hardware TB lookup.
func (ib *ibox) translate(va uint32) (uint32, bool) {
	if !ib.m.MMU.Enabled {
		return va, true
	}
	pa, hit := ib.m.TLB.Lookup(va, tb.IStream)
	if !hit {
		ib.stats.TBMisses++
		return 0, false
	}
	return pa, true
}

// peek returns n bytes of I-stream starting at ptr without consuming them
// and without advancing time (the decode hardware sees the IB contents
// combinationally). The caller must have ensured valid >= n; the result
// aliases the IB scratch buffer and is invalidated by the next peek or
// consume.
func (ib *ibox) peek(n int) []byte {
	out := ib.scratch[:n]
	ib.m.readBytes(ib.ptr, out)
	return out
}

// consume removes n bytes from the front of the IB and returns them.
func (ib *ibox) consume(n int) []byte {
	b := ib.peek(n)
	ib.ptr += uint32(n)
	ib.valid -= n
	ib.stats.BytesConsumed += uint64(n)
	return b
}

// consumeFree advances the IB pointer past n bytes without requiring them
// to be buffered (used for the displacement bytes of untaken branches,
// which the hardware skips without a dedicated cycle).
func (ib *ibox) consumeFree(n int) {
	ib.ptr += uint32(n)
	ib.valid -= n
	ib.stats.BytesConsumed += uint64(n)
	if ib.valid < 0 {
		ib.valid = 0
		ib.fillPending = false
	}
}

// Stats returns the I-Fetch hardware counters.
func (m *Machine) IBStats() IBStats { return m.ib.stats }
