package cpu

import "encoding/binary"

// ---------------------------------------------------------------------------
// Decode memo. The timing model charges decode as the paper does, but the
// host would otherwise read every I-stream byte of an instruction three or
// four times and run the specifier decoder on every execution. The memo
// remembers, per physical address of an opcode byte, how the instruction
// there decoded; an entry is used only while the bytes now at that address
// are the ones it was decoded from (DESIGN.md §3 "Functional path").

const (
	dmemoSize  = 2048 // entries; direct-mapped on the opcode's physical address
	dmemoBytes = 16   // longest opcode-and-specifiers run an entry holds
)

// dentry is one memoized instruction. It holds no pointers, so the
// collector never scans the memo.
type dentry struct {
	pa   uint32    // physical address of the opcode byte
	n    uint8     // bytes held: the opcode and its specifiers (0 = empty)
	code [2]uint64 // those bytes, little-endian, zero past n
	spec [6]dspec  // each specifier's decode
}

// dmemo is the decode memo. It is derived state, never checkpointed: every
// use compares the bytes, so no write, MMU change or state import needs to
// reach it. RunCtx allocates it, so a machine that is only single-stepped
// never pays for it.
type dmemo [dmemoSize]dentry

// dmemoSlot maps an opcode's physical address to its memo slot.
func dmemoSlot(pa uint32) uint32 { return pa % dmemoSize }

// dmFind returns the memo slot for the instruction at the IB pointer and
// the physical address of its opcode, and reports whether the slot holds
// that instruction: the bytes now at pa are the ones its entry was decoded
// from. The slot is nil while the memo is bypassed: before the first
// RunCtx, on a functional translation fault, and while an RDS sampler is
// attached, when every I-stream byte read is a sampled reference and only
// the byte-by-byte decode keeps the fault schedule.
func (m *Machine) dmFind() (*dentry, uint32, bool) {
	if m.dm == nil || m.Mem.Sampled() {
		return nil, 0, false
	}
	pa, err := m.translate(m.ib.ptr)
	if err != nil {
		return nil, 0, false
	}
	e := &m.dm[dmemoSlot(pa)]
	if e.n == 0 || e.pa != pa {
		return e, pa, false
	}
	return e, pa, m.dmCode(pa, int(e.n)) == e.code
}

// dmCode returns the n bytes at pa as an entry holds them. The caller
// ensures pa+dmemoBytes lies inside the array (dmStore stores only such
// entries), so the read is a plain copy that latches no fault.
func (m *Machine) dmCode(pa uint32, n int) [2]uint64 {
	var b [dmemoBytes]byte
	m.Mem.Bytes(pa, b[:])
	return [2]uint64{
		binary.LittleEndian.Uint64(b[:8]) & lowBytes(n),
		binary.LittleEndian.Uint64(b[8:]) & lowBytes(n-8),
	}
}

// lowBytes masks the low k bytes of a word (none for k <= 0, all for k >= 8).
func lowBytes(k int) uint64 {
	if k <= 0 {
		return 0
	}
	return 1<<(8*uint(k)) - 1
}

// dmStore fills slot e with the instruction at m.instPC, whose opcode is
// at pa, once its specifiers have all been decoded without an abort. An
// instruction is kept only if its opcode and specifiers fit an entry and
// lie inside one page, an entry's worth of bytes from pa lies inside the
// memory array, and no specifier was a wide immediate.
func (m *Machine) dmStore(e *dentry, pa uint32) {
	n := m.ib.ptr - m.instPC
	if n > dmemoBytes || !inPage(m.instPC, int(n)) || uint64(pa)+dmemoBytes > uint64(m.Mem.Size()) {
		return
	}
	d := dentry{pa: pa, n: uint8(n), code: m.dmCode(pa, int(n))}
	for i := 0; i < m.nops; i++ {
		if m.ops[i].spec.n == 0 {
			return
		}
		d.spec[i] = m.ops[i].spec
	}
	*e = d
}
