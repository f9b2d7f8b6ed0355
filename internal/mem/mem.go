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

// Memory is the physical memory array (the paper's machines had 8 MB).
type Memory struct {
	data []byte

	inject   func() bool // RDS fault sampler (nil = never)
	fault    Fault
	hasFault bool

	// Page-table frame watch (see Watch). Derived state for translation
	// memos, never checkpointed: ImportState starts a new generation.
	watched []uint64
	mapGen  uint64
}

// A frame is the 512-byte VAX page: the granularity of the page-table
// watch and of snapshots (MemoryState).
const (
	frameShift = 9
	frameSize  = 1 << frameShift
)

// New returns a physical memory of the given size in bytes.
func New(size uint32) *Memory {
	frames := (uint64(size) + frameSize - 1) >> frameShift
	return &Memory{data: make([]byte, size), watched: make([]uint64, (frames+63)/64)}
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
func (m *Memory) Size() uint32 { return uint32(len(m.data)) }

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

// check validates an access; out-of-range references latch a fault and
// report false so the caller can complete the access benignly.
func (m *Memory) check(pa uint32, n int) bool {
	if uint64(pa)+uint64(n) > uint64(len(m.data)) {
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

// Byte reads one byte at a physical address.
func (m *Memory) Byte(pa uint32) byte {
	if !m.readCheck(pa, 1) {
		return 0
	}
	return m.data[pa]
}

// Bytes fills dst from physical memory at pa exactly as len(dst) Byte
// calls would; without a sampler, inside the array, that is one copy.
func (m *Memory) Bytes(pa uint32, dst []byte) {
	if m.inject == nil && uint64(pa)+uint64(len(dst)) <= uint64(len(m.data)) {
		copy(dst, m.data[pa:])
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
	return uint32(m.data[pa]) | uint32(m.data[pa+1])<<8 |
		uint32(m.data[pa+2])<<16 | uint32(m.data[pa+3])<<24
}

// SetByte writes one byte at a physical address.
func (m *Memory) SetByte(pa uint32, v byte) {
	if !m.check(pa, 1) {
		return
	}
	if m.Watched(pa) {
		m.invalidate()
	}
	m.data[pa] = v
}

// WriteLong writes a longword at a physical address.
func (m *Memory) WriteLong(pa uint32, v uint32) {
	if !m.check(pa, 4) {
		return
	}
	if m.Watched(pa) || m.Watched(pa+3) {
		m.invalidate()
	}
	m.data[pa] = byte(v)
	m.data[pa+1] = byte(v >> 8)
	m.data[pa+2] = byte(v >> 16)
	m.data[pa+3] = byte(v >> 24)
}

// Load copies a byte image into physical memory.
func (m *Memory) Load(pa uint32, b []byte) {
	if !m.check(pa, len(b)) {
		return
	}
	m.invalidate()
	copy(m.data[pa:], b)
}

// Read copies n bytes out of physical memory.
func (m *Memory) Read(pa uint32, n int) []byte {
	out := make([]byte, n)
	if !m.readCheck(pa, n) {
		return out
	}
	copy(out, m.data[pa:])
	return out
}
