package cpu

import (
	"encoding/binary"

	"vax780/internal/cache"
	"vax780/internal/mmu"
	"vax780/internal/tb"
)

// ---------------------------------------------------------------------------
// Functional (untimed) virtual memory access. The timing model books cache
// and bus activity separately; data always comes from the memory array,
// which write-through keeps current. Translation here is the reference
// page-table walk, independent of TB state, remembered per page by the
// xmemo below.

// xmemoSize is the number of entries in the functional translation memo.
const xmemoSize = 64

// xmemo is a direct-mapped memo from virtual page to physical page for the
// functional path. It is derived state, never checkpointed: its entries
// are valid only while the live MMU registers equal regs and Mem's map
// generation equals gen, that is, while no frame a walk read a PTE from has
// been written since (Mem watches those frames). Either change empties it.
type xmemo struct {
	regs mmu.Registers
	gen  uint64
	va   [xmemoSize]uint32 // VA page base | 1; 0 = empty
	pa   [xmemoSize]uint32 // physical page base
}

// translate is the functional path's address translation: a memo hit, or
// the reference walk, which fills the entry and has Mem watch the frames
// it read PTEs from. While an RDS sampler is attached every call walks,
// because each PTE read is a sampled memory reference and the fault
// schedule must not depend on how warm the memo is.
func (m *Machine) translate(va uint32) (uint32, error) {
	if !m.MMU.Enabled || m.Mem.Sampled() {
		return mmu.Translate(va, &m.MMU, m.Mem)
	}
	x := &m.xm
	if x.regs != m.MMU || x.gen != m.Mem.MapGen() {
		x.regs, x.gen, x.va = m.MMU, m.Mem.MapGen(), [xmemoSize]uint32{}
	}
	// The region bits move S0 and P1 pages off the slots of the P0 pages
	// with the same page number.
	page := va &^ mmu.PageMask
	i := (page>>mmu.PageShift ^ va>>27) % xmemoSize
	if x.va[i] == page|1 {
		return x.pa[i] | va&mmu.PageMask, nil
	}
	pa, reads, err := mmu.Walk(va, &m.MMU, m.Mem)
	if err != nil {
		return 0, err
	}
	for _, a := range reads.Addr[:reads.N] {
		m.Mem.Watch(a)
		m.Mem.Watch(a + 3)
	}
	x.va[i], x.pa[i] = page|1, pa&^mmu.PageMask
	return pa, nil
}

// inPage reports whether the n bytes at va lie inside one page.
func inPage(va uint32, n int) bool { return int(va&mmu.PageMask)+n <= mmu.PageSize }

func (m *Machine) readVirtByte(va uint32) byte {
	pa, err := m.translate(va)
	if err != nil {
		m.fail("functional read at %#x: %v", va, err)
		return 0
	}
	return m.Mem.Byte(pa)
}

// readBytes fills dst from virtual memory at va. An access inside one page
// translates once; one that crosses a page, or runs under an RDS sampler,
// translates byte by byte.
func (m *Machine) readBytes(va uint32, dst []byte) {
	if m.Mem.Sampled() || !inPage(va, len(dst)) {
		for i := range dst {
			dst[i] = m.readVirtByte(va + uint32(i))
		}
		return
	}
	pa, err := m.translate(va)
	if err != nil {
		m.fail("functional read at %#x: %v", va, err)
		clear(dst)
		return
	}
	m.Mem.Bytes(pa, dst)
}

// readVirt reads size (1..8) bytes at va, little-endian.
func (m *Machine) readVirt(va uint32, size int) uint64 {
	var b [8]byte
	m.readBytes(va, b[:size])
	return binary.LittleEndian.Uint64(b[:])
}

// writeVirt writes the low size (1..8) bytes of v at va, little-endian.
// Like readBytes it translates once inside a page, except when the target
// frame holds watched PTEs: then each byte translates after the previous
// one is stored, so a store that changes its own page's mapping is seen.
func (m *Machine) writeVirt(va uint32, size int, v uint64) {
	if !m.Mem.Sampled() && inPage(va, size) {
		pa, err := m.translate(va)
		if err != nil {
			m.fail("functional write at %#x: %v", va, err)
			return
		}
		// An in-page access stays within one watched frame.
		if !m.Mem.Watched(pa) {
			for i := 0; i < size; i++ {
				m.Mem.SetByte(pa+uint32(i), byte(v>>(8*i)))
			}
			return
		}
	}
	for i := 0; i < size; i++ {
		pa, err := m.translate(va + uint32(i))
		if err != nil {
			m.fail("functional write at %#x: %v", va, err)
			return
		}
		m.Mem.SetByte(pa, byte(v>>(8*i)))
	}
}

// ---------------------------------------------------------------------------
// Timed data-stream access. Each call accounts the cycles of exactly one
// read- or write-class microinstruction (plus any stall), and services TB
// misses through the microcode trap routine first.

// aborted reports whether the current instruction can make no further
// progress: the machine stopped, or an exception redirected control.
func (m *Machine) aborted() bool {
	return m.halted || m.runErr != nil || m.instAborted
}

// xlate translates a D-stream virtual address through the TB, running the
// TB-miss microtrap when needed. The loop is bounded but more than one
// round: an injected TB parity error can invalidate the very entry the
// miss routine just inserted, which on the real machine simply means the
// microtrap fires again.
func (m *Machine) xlate(va uint32) uint32 {
	if !m.MMU.Enabled {
		return va
	}
	const maxTries = 4
	for try := 0; try < maxTries; try++ {
		if pa, hit := m.TLB.Lookup(va, tb.DStream); hit {
			return pa
		}
		m.tbMissService(va, tb.DStream)
		if m.aborted() {
			return 0
		}
	}
	m.fail("TB fill did not take at %#x after %d tries", va, maxTries)
	return 0
}

// dread performs a D-stream read of size bytes (1..4) at the read-class
// microword w. Unaligned references crossing a longword boundary make two
// physical references and run the alignment microcode (counted under
// Mem Mgmt, as in Table 8).
func (m *Machine) dread(w uint16, va uint32, size int) uint64 {
	m.ib.advance(m.cycle)
	crosses := int(va&3)+size > 4
	if crosses {
		m.unalignedOverhead()
	}
	pa := m.xlate(va)
	if m.aborted() {
		return 0
	}
	m.cacheReadRef(w, pa)
	if crosses {
		pa2 := m.xlate((va &^ 3) + 4)
		if m.aborted() {
			return 0
		}
		m.cacheReadRef(w, pa2)
	}
	return m.readVirt(va, size)
}

// cacheReadRef accounts one longword read reference at microword w.
func (m *Machine) cacheReadRef(w uint16, pa uint32) {
	if !m.Cache.Read(pa&^3, cache.DStream) {
		done := m.SBI.Read(m.cycle)
		if done > m.cycle {
			m.stall(w, done-m.cycle)
		}
	}
	m.tick(w)
}

// dwrite performs a D-stream write at the write-class microword w. The
// EBOX spends one cycle initiating the write and stalls only if the write
// buffer still holds the previous write (§2.1).
func (m *Machine) dwrite(w uint16, va uint32, size int, val uint64) {
	m.ib.advance(m.cycle)
	crosses := int(va&3)+size > 4
	if crosses {
		m.unalignedOverhead()
	}
	pa := m.xlate(va)
	if m.aborted() {
		return
	}
	m.cacheWriteRef(w, pa)
	if crosses {
		pa2 := m.xlate((va &^ 3) + 4)
		if m.aborted() {
			return
		}
		m.cacheWriteRef(w, pa2)
	}
	m.writeVirt(va, size, val)
}

func (m *Machine) cacheWriteRef(w uint16, pa uint32) {
	if st := m.WB.Write(m.cycle); st > 0 {
		m.stall(w, st)
	}
	m.Cache.Write(pa &^ 3)
	m.tick(w)
}

// readPhys performs a timed physical read (used by the TB-miss routine for
// page-table entries; its stall cycles are the Mem Mgmt read stalls the
// paper highlights).
func (m *Machine) readPhys(w uint16, pa uint32) uint32 {
	if !m.Cache.Read(pa&^3, cache.DStream) {
		done := m.SBI.Read(m.cycle)
		if done > m.cycle {
			m.stall(w, done-m.cycle)
		}
	}
	m.tick(w)
	return m.Mem.ReadLong(pa)
}

// unalignedOverhead runs the alignment microcode (Mem Mgmt row).
func (m *Machine) unalignedOverhead() {
	m.tick(uw.mmAlignEntry)
	m.tick(uw.mmAlignWork)
	m.unaligned++
}

// ---------------------------------------------------------------------------
// TB miss service: a microcode trap. One Abort cycle (the trap itself),
// then the miss routine walks the page table with real timed reads and
// inserts the translation. Average cost lands near the paper's 21.6 cycles
// (§4.2), with the PTE read contributing read-stall inside Mem Mgmt.

func (m *Machine) tbMissService(va uint32, st tb.Stream) {
	m.tick(uw.abort) // microtrap: one abort cycle
	entry := uw.mmTBMissEntryD
	if st == tb.IStream {
		entry = uw.mmTBMissEntryI
	}
	m.tick(entry)
	// Set-up and probe microcode before touching the page table.
	m.ticks(uw.mmTBMissWork, 6)
	ref, err := m.MMU.PTEAddr(va)
	if err != nil {
		m.memMgmtFault(va, err)
		return
	}
	pteAddr := ref.Addr
	if !ref.IsPhys {
		// The process PTE lives in system space: translate its address,
		// possibly through the TB, possibly via a nested system-table walk.
		m.ticks(uw.mmTBMissWork, 2)
		if pa, hit := m.TLB.Lookup(pteAddr, st); hit {
			pteAddr = pa
		} else {
			sysRef, err := m.MMU.PTEAddr(pteAddr)
			if err != nil {
				m.memMgmtFault(va, err)
				return
			}
			m.ticks(uw.mmTBMissWork, 3)
			sysPTE := m.readPhys(uw.mmTBMissRead, sysRef.Addr)
			if !mmu.Valid(sysPTE) {
				m.pageFault(pteAddr)
				return
			}
			m.TLB.Insert(pteAddr, mmu.PFN(sysPTE))
			pteAddr = mmu.PFN(sysPTE)<<mmu.PageShift | pteAddr&mmu.PageMask
		}
	}
	pte := m.readPhys(uw.mmTBMissRead, pteAddr)
	m.ticks(uw.mmTBMissWork, 8)
	if !mmu.Valid(pte) {
		m.pageFault(va)
		return
	}
	m.TLB.Insert(va, mmu.PFN(pte))
	m.tick(uw.mmTBMissDone)
	if m.ib.tbMissPending && m.ib.tbMissVA == va {
		m.ib.tbMissPending = false
	}
}

// ---------------------------------------------------------------------------
// Instruction-buffer interaction: each take is a dispatch microinstruction
// that needs n bytes; waiting for bytes burns cycles at the dedicated
// IB-stall location stallW.

// ibWait blocks until the IB holds n bytes, servicing I-stream TB misses,
// and reports whether it got them. It reports false as soon as the
// instruction is aborted: a miss that ends in a fault has redirected the
// IB to the handler, whose bytes are not this instruction's, so the
// caller must consume nothing and spend no further cycles.
func (m *Machine) ibWait(n int, stallW uint16) bool {
	const guard = 1 << 20
	for i := 0; ; i++ {
		if m.aborted() {
			return false
		}
		m.ib.advance(m.cycle)
		if m.ib.valid >= n {
			return true
		}
		if m.ib.tbMissPending {
			m.tbMissService(m.ib.tbMissVA, tb.IStream)
			continue
		}
		m.ibStallTick(stallW)
		if i > guard {
			m.fail("IB wait for %d bytes did not complete at pc %#x", n, m.ib.ptr)
			return false
		}
	}
}

// takeExtra consumes n further bytes that arrive with the same dispatch
// (no additional cycle, but the wait can still IB-stall). The result
// aliases the IB scratch buffer (see ibox.peek); it is nil if the
// instruction aborted while waiting.
func (m *Machine) takeExtra(stallW uint16, n int) []byte {
	if !m.ibWait(n, stallW) {
		return nil
	}
	return m.ib.consume(n)
}
