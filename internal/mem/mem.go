// Package mem models the VAX-11/780 memory subsystem below the cache: the
// physical memory array, the SBI (Synchronous Backplane Interconnect) as a
// contended single-transaction resource, and the one-longword write buffer
// that makes the 780's write-through scheme tolerable (§2.1 of the paper).
//
// All timing in this package is expressed in EBOX cycles (200 ns).
//
// The memory array never stops the simulation on a bad reference. Like the
// real controller, it latches an error syndrome — an out-of-range physical
// address, or an injected RDS (Read Data Substitute, the 780's
// uncorrectable-error signal) — and completes the access benignly: reads
// return zero or the (still correct) array data, writes are dropped. The
// CPU polls the latch between instructions and converts it into a machine
// check (internal/cpu, DESIGN.md "Fault model & machine checks").
package mem

import "bytes"

// FaultKind classifies a latched memory fault.
type FaultKind int

const (
	// FaultRange is a physical access beyond the memory array — on the
	// real machine, an SBI reference no controller answered.
	FaultRange FaultKind = iota + 1
	// FaultRDS is an uncorrectable array error: the controller delivers
	// substitute data and signals Read Data Substitute.
	FaultRDS
)

func (k FaultKind) String() string {
	switch k {
	case FaultRange:
		return "nonexistent memory"
	case FaultRDS:
		return "RDS (uncorrectable array error)"
	}
	return "unknown memory fault"
}

// Fault is one latched memory error syndrome.
type Fault struct {
	Kind FaultKind
	Addr uint32 // physical address of the failing reference
}

// Memory is the physical memory array (the paper's machines had 8 MB). It
// is held as a table of 512-byte frames. A frame gets its storage on its
// first nonzero store, and a frame without storage reads as zeros, so a
// machine costs the host the frames its programs write, not its size.
type Memory struct {
	frames []*[frameSize]byte // nil: a frame that holds only zeros
	size   uint32

	inject   func() bool // RDS fault sampler (nil = never)
	fault    Fault
	hasFault bool

	// Page-table frame watch (see Watch). Derived state for translation
	// memos, never checkpointed: ImportState starts a new generation.
	watched []uint64
	mapGen  uint64
}

// A frame is the 512-byte VAX page: the unit of storage, of the page-table
// watch and of snapshots (MemoryState).
const (
	frameShift = 9
	frameSize  = 1 << frameShift
	frameMask  = frameSize - 1
)

// zeroFrame is what a frame without storage holds.
var zeroFrame [frameSize]byte

// New returns a physical memory of the given size in bytes.
func New(size uint32) *Memory {
	frames := (uint64(size) + frameSize - 1) >> frameShift
	return &Memory{
		frames:  make([]*[frameSize]byte, frames),
		size:    size,
		watched: make([]uint64, (frames+63)/64),
	}
}

// Watch marks the frame holding pa as one a translation memo read a
// page-table entry from. The next write into a watched frame, and every
// Load or ImportState, starts a new map generation and unwatches all
// frames, so a memo that compares MapGen knows to refill.
func (m *Memory) Watch(pa uint32) {
	if f := pa >> frameShift; int(f/64) < len(m.watched) {
		m.watched[f/64] |= 1 << (f % 64)
	}
}

// Watched reports whether the frame holding pa is watched.
func (m *Memory) Watched(pa uint32) bool {
	f := pa >> frameShift
	return int(f/64) < len(m.watched) && m.watched[f/64]&(1<<(f%64)) != 0
}

// MapGen returns the map generation: it changes whenever a watched frame
// may have been written.
func (m *Memory) MapGen() uint64 { return m.mapGen }

// Sampled reports whether an RDS sampler is attached (see SetInjector).
func (m *Memory) Sampled() bool { return m.inject != nil }

// invalidate starts a new map generation.
func (m *Memory) invalidate() {
	m.mapGen++
	clear(m.watched)
}

// Size returns the memory size in bytes.
func (m *Memory) Size() uint32 { return m.size }

// SetInjector installs an RDS fault sampler consulted once per read
// reference (nil removes it). See internal/fault.
func (m *Memory) SetInjector(sample func() bool) { m.inject = sample }

// TakeFault returns and clears the latched error syndrome. The latch
// holds the first error only; further errors while it is full are lost,
// as on the real controller.
func (m *Memory) TakeFault() (Fault, bool) {
	f, ok := m.fault, m.hasFault
	m.fault, m.hasFault = Fault{}, false
	return f, ok
}

func (m *Memory) latch(k FaultKind, pa uint32) {
	if !m.hasFault {
		m.fault = Fault{Kind: k, Addr: pa}
		m.hasFault = true
	}
}

// inRange reports whether the n bytes at pa lie inside the array.
func (m *Memory) inRange(pa uint32, n int) bool {
	return uint64(pa)+uint64(n) <= uint64(m.size)
}

// check validates an access; out-of-range references latch a fault and
// report false so the caller can complete the access benignly.
func (m *Memory) check(pa uint32, n int) bool {
	if !m.inRange(pa, n) {
		m.latch(FaultRange, pa)
		return false
	}
	return true
}

// readCheck additionally samples the RDS injector on an in-range read.
// The simulated array still returns correct data — the error is in the
// (modelled) check bits, not the simulation's copy — so a logged-and-
// continued machine check leaves architectural state exact.
func (m *Memory) readCheck(pa uint32, n int) bool {
	if !m.check(pa, n) {
		return false
	}
	if m.inject != nil && m.inject() {
		m.latch(FaultRDS, pa)
	}
	return true
}

// at returns the byte at an in-range pa.
func (m *Memory) at(pa uint32) byte {
	if f := m.frames[pa>>frameShift]; f != nil {
		return f[pa&frameMask]
	}
	return 0
}

// long returns the longword at an in-range pa, little-endian.
func (m *Memory) long(pa uint32) uint32 {
	return uint32(m.at(pa)) | uint32(m.at(pa+1))<<8 |
		uint32(m.at(pa+2))<<16 | uint32(m.at(pa+3))<<24
}

// copyOut fills dst from the in-range bytes at pa, one frame at a time.
func (m *Memory) copyOut(pa uint32, dst []byte) {
	for len(dst) > 0 {
		off := pa & frameMask
		n := min(len(dst), frameSize-int(off))
		if f := m.frames[pa>>frameShift]; f != nil {
			copy(dst[:n], f[off:])
		} else {
			clear(dst[:n])
		}
		dst, pa = dst[n:], pa+uint32(n)
	}
}

// frame returns the storage of frame f. A frame without storage gets it
// here, and callers let that happen only for a store that puts a nonzero
// byte into the frame.
func (m *Memory) frame(f uint32) *[frameSize]byte {
	if p := m.frames[f]; p != nil {
		return p
	}
	// At most one 512-byte frame per frame of the array over a machine's
	// life, on its first nonzero store; the five profiles write 834–1,024
	// of 16,384.
	p := new([frameSize]byte)
	m.frames[f] = p
	return p
}

// put stores b at an in-range pa. A zero stored into a frame without
// storage changes nothing, so it allocates nothing.
func (m *Memory) put(pa uint32, b byte) {
	if f := m.frames[pa>>frameShift]; f != nil {
		f[pa&frameMask] = b
	} else if b != 0 {
		m.frame(pa >> frameShift)[pa&frameMask] = b
	}
}

// Byte reads one byte at a physical address.
func (m *Memory) Byte(pa uint32) byte {
	if !m.readCheck(pa, 1) {
		return 0
	}
	return m.at(pa)
}

// Bytes fills dst from physical memory at pa exactly as len(dst) Byte
// calls would; without a sampler, inside the array, that is one copy per
// frame.
func (m *Memory) Bytes(pa uint32, dst []byte) {
	if m.inject == nil && m.inRange(pa, len(dst)) {
		m.copyOut(pa, dst)
		return
	}
	for i := range dst {
		dst[i] = m.Byte(pa + uint32(i))
	}
}

// ReadLong reads an aligned-agnostic longword at a physical address.
func (m *Memory) ReadLong(pa uint32) uint32 {
	if !m.readCheck(pa, 4) {
		return 0
	}
	return m.long(pa)
}

// PeekLong returns the longword at pa as ReadLong would, for the
// simulator's own observation of memory (the OS model's device hook and
// counters, the console): it is no machine reference, so it samples no
// RDS injector and latches no fault. Outside the array it reads zero.
func (m *Memory) PeekLong(pa uint32) uint32 {
	if !m.inRange(pa, 4) {
		return 0
	}
	return m.long(pa)
}

// PeekByte is PeekLong for one byte.
func (m *Memory) PeekByte(pa uint32) byte {
	if !m.inRange(pa, 1) {
		return 0
	}
	return m.at(pa)
}

// SetByte writes one byte at a physical address.
func (m *Memory) SetByte(pa uint32, v byte) {
	if !m.check(pa, 1) {
		return
	}
	if m.Watched(pa) {
		m.invalidate()
	}
	m.put(pa, v)
}

// WriteLong writes a longword at a physical address.
func (m *Memory) WriteLong(pa uint32, v uint32) {
	if !m.check(pa, 4) {
		return
	}
	if m.Watched(pa) || m.Watched(pa+3) {
		m.invalidate()
	}
	for i := uint32(0); i < 4; i++ {
		m.put(pa+i, byte(v>>(8*i)))
	}
}

// Load copies a byte image into physical memory. A frame without storage
// that the image would fill with zeros stays without.
func (m *Memory) Load(pa uint32, b []byte) {
	if !m.check(pa, len(b)) {
		return
	}
	m.invalidate()
	for len(b) > 0 {
		off := pa & frameMask
		n := min(len(b), frameSize-int(off))
		if m.frames[pa>>frameShift] != nil || !bytes.Equal(b[:n], zeroFrame[:n]) {
			copy(m.frame(pa >> frameShift)[off:], b[:n])
		}
		b, pa = b[n:], pa+uint32(n)
	}
}

// Read copies n bytes out of physical memory.
func (m *Memory) Read(pa uint32, n int) []byte {
	out := make([]byte, n)
	if m.readCheck(pa, n) {
		m.copyOut(pa, out)
	}
	return out
}
