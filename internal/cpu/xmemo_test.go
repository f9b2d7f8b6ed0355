package cpu

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"vax780/internal/asm"
	"vax780/internal/fault"
	"vax780/internal/mmu"
	"vax780/internal/vax"
)

// Layout of the translation-memo machine (1 MB of physical memory; S0 is
// identity-mapped over its first 256 frames by either system page table).
const (
	xtSysPT  = 0x1000     // system page table A: S0 page i -> frame i
	xtSysPT2 = 0x2000     // system page table B: as A, but S0 page 160 -> frame 170
	xtCode   = 0x5000     // code: P0 page 40 -> frame 40 in both P0 tables, so VA = PA with MAPEN on or off
	xtPCB    = 0x7000     // PCB for LDPCTX (physical)
	xtKStack = 0x80007C00 // kernel stack top
	xtP0PT   = 0x80010000 // P0 table A: P0 page j -> frame 64+j
	xtP0PT2  = 0x80010200 // P0 table B: P0 page j -> frame 96+j
	xtP1PT   = 0x80010400 // P1 table: P1 page j -> frame 200+j
)

// xmemoProbes are the functional accesses the check repeats: P0, P1 and S0
// data pages, a longword crossing from P0 page 15 into page 16, and
// longwords inside the P0 and system page tables, read and written
// through S0. Their memo slots differ from the code page's, so running
// the code does not evict the entries a case means to make stale.
var xmemoProbes = []uint32{0x0A10, 0x1FFE, 0x3004, 0x40000608, 0x80014010, 0x80015000, 0x80010010, 0x80001280}

func newXMemoMachine(t *testing.T) *Machine {
	t.Helper()
	m := New(Config{MemBytes: 1 << 20})
	// Every data longword holds a value that differs from every other's,
	// so a read through a stale translation cannot match by accident.
	for pa := uint32(64 * mmu.PageSize); pa < 256*mmu.PageSize; pa += 4 {
		m.Mem.WriteLong(pa, pa*0x9E3779B1)
	}
	for i := uint32(0); i < 256; i++ {
		m.Mem.WriteLong(xtSysPT+4*i, mmu.MakePTE(i, mmu.ProtKW))
		m.Mem.WriteLong(xtSysPT2+4*i, mmu.MakePTE(i, mmu.ProtKW))
	}
	m.Mem.WriteLong(xtSysPT2+4*160, mmu.MakePTE(170, mmu.ProtKW))
	for j := uint32(0); j < 64; j++ {
		m.Mem.WriteLong(xtP0PT&^s0Bit+4*j, mmu.MakePTE(64+j, mmu.ProtUW))
		m.Mem.WriteLong(xtP0PT2&^s0Bit+4*j, mmu.MakePTE(96+j, mmu.ProtUW))
	}
	code := uint32(xtCode / mmu.PageSize)
	m.Mem.WriteLong(xtP0PT&^s0Bit+4*code, mmu.MakePTE(code, mmu.ProtUW))
	m.Mem.WriteLong(xtP0PT2&^s0Bit+4*code, mmu.MakePTE(code, mmu.ProtUW))
	for j := uint32(0); j < 8; j++ {
		m.Mem.WriteLong(xtP1PT&^s0Bit+4*j, mmu.MakePTE(200+j, mmu.ProtUW))
	}
	m.MMU = mmu.Registers{
		SBR: xtSysPT, SLR: 256,
		P0BR: xtP0PT, P0LR: 64,
		P1BR: xtP1PT, P1LR: 8,
		Enabled: true,
	}
	m.PSL = 31 << 16 // kernel mode, IPL 31
	m.R[vax.SP] = xtKStack
	return m
}

// s0Bit is the system-region bit of a virtual address; with the identity
// map, clearing it gives the physical address.
const s0Bit = 0x80000000

// xmemoRefs renders the reference translation of every probe.
func xmemoRefs(m *Machine) string {
	var b strings.Builder
	for _, va := range xmemoProbes {
		pa, err := mmu.Translate(va, &m.MMU, m.Mem)
		fmt.Fprintf(&b, "%#x:%#x,%v ", va, pa, err != nil)
	}
	return b.String()
}

// xmemoCheck compares every functional translation, read and write at the
// probes with the reference walk, mmu.Translate, on the current state, and
// leaves the memo holding every probe's translation.
func xmemoCheck(t *testing.T, m *Machine, when string) {
	t.Helper()
	for _, va := range xmemoProbes {
		var pa [4]uint32
		ok := true
		for i := range pa {
			ref, rerr := mmu.Translate(va+uint32(i), &m.MMU, m.Mem)
			got, err := m.translate(va + uint32(i))
			if (err != nil) != (rerr != nil) || got != ref {
				t.Errorf("%s: translate(%#x) = %#x, %v; reference %#x, %v", when, va+uint32(i), got, err, ref, rerr)
			}
			pa[i] = ref
			ok = ok && rerr == nil && ref < m.Mem.Size()
		}
		if !ok {
			continue
		}
		var want [4]byte
		for i := range want {
			want[i] = m.Mem.Byte(pa[i])
		}
		w := binary.LittleEndian.Uint32(want[:])
		if got := uint32(m.readVirt(va, 4)); got != w {
			t.Errorf("%s: readVirt(%#x) = %#x, want %#x", when, va, got, w)
		}
		for i := range want {
			if got := m.readVirtByte(va + uint32(i)); got != want[i] {
				t.Errorf("%s: readVirtByte(%#x) = %#x, want %#x", when, va+uint32(i), got, want[i])
			}
		}
		ptr := m.ib.ptr
		m.ib.ptr = va
		if got := binary.LittleEndian.Uint32(m.ib.peek(4)); got != w {
			t.Errorf("%s: I-stream peek at %#x = %#x, want %#x", when, va, got, w)
		}
		m.ib.ptr = ptr
		for _, v := range []uint32{^w, w} {
			m.writeVirt(va, 4, uint64(v))
			for i := range pa {
				if got := m.Mem.Byte(pa[i]); got != byte(v>>(8*i)) {
					t.Errorf("%s: writeVirt(%#x, %#x) left %#x at pa %#x, want %#x",
						when, va, v, got, pa[i], byte(v>>(8*i)))
				}
			}
		}
	}
	if err := m.Err(); err != nil {
		t.Fatalf("%s: machine failed: %v", when, err)
	}
	// The stores into the page-table probes emptied the memo; leave it
	// warm at every probe, so the next change meets stale entries.
	for _, va := range xmemoProbes {
		m.translate(va)
		m.translate(va + 3)
	}
}

// TestTranslationMemoInvalidation: the functional path remembers
// translations per page, so every way a translation can change must reach
// it. Each case warms the memo at every probe, changes the mapping one
// way, and checks every functional access against the reference walk
// after each instruction. Taking out any invalidation (the page-table frame
// watch on stores, the register comparison, or the new generation on
// ImportState) fails a case here; no workload edits a live PTE.
func TestTranslationMemoInvalidation(t *testing.T) {
	pte := func(pfn uint32) uint32 { return mmu.MakePTE(pfn, mmu.ProtUW) }
	mtpr := func(v, reg uint32) string { return fmt.Sprintf("MTPR #%#x, #%d\n", v, reg) }
	cases := []struct {
		name     string
		setup    func(m *Machine)
		code     string // kernel code at xtCode, one instruction a line, checked after each
		after    func(m *Machine)
		reimport bool // ImportState a snapshot taken before the code ran
	}{
		{name: "store P0 PTE through S0", code: fmt.Sprintf("MOVL #%#x, @#%#x\n", pte(100), xtP0PT+4*5)},
		{name: "byte store P0 PTE through S0", code: fmt.Sprintf("MOVB #100, @#%#x\n", xtP0PT+4*5)},
		{name: "store system PTE through S0", code: fmt.Sprintf("MOVL #%#x, @#%#x\n", pte(161), s0Bit+xtSysPT+4*160)},
		{name: "MTPR P0BR", code: mtpr(xtP0PT2, PRP0BR)},
		{name: "MTPR P0LR", code: mtpr(5, PRP0LR)},
		{name: "MTPR P1BR", code: mtpr(xtP0PT, PRP1BR)},
		{name: "MTPR P1LR", code: mtpr(2, PRP1LR)},
		{name: "MTPR SBR", code: mtpr(xtSysPT2, PRSBR)},
		{name: "MTPR SLR", code: mtpr(161, PRSLR)},
		{
			name: "MTPR MAPEN off, physical PTE store, on",
			code: mtpr(0, PRMAPEN) + fmt.Sprintf("MOVL #%#x, @#%#x\n", pte(100), xtP0PT&^s0Bit+4*5) + mtpr(1, PRMAPEN),
		},
		{
			name: "LDPCTX",
			setup: func(m *Machine) {
				for _, f := range [][2]uint32{{pcbKSP, xtKStack}, {pcbP0BR, xtP0PT2}, {pcbP0LR, 64}, {pcbP1BR, xtP0PT}, {pcbP1LR, 8}} {
					m.Mem.WriteLong(xtPCB+PCBOffset(int(f[0])), f[1])
				}
				m.SetIPR(IPRSlotPCBB, xtPCB)
			},
			code: "LDPCTX\n",
		},
		{
			name: "direct MMU assignment",
			after: func(m *Machine) {
				m.MMU = mmu.Registers{SBR: xtSysPT2, SLR: 256, P0BR: xtP0PT2, P0LR: 64, P1BR: xtP1PT, P1LR: 3, Enabled: true}
			},
		},
		{name: "ImportState of an older snapshot", code: fmt.Sprintf("MOVL #%#x, @#%#x\n", pte(100), xtP0PT+4*5), reimport: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := newXMemoMachine(t)
			if c.setup != nil {
				c.setup(m)
			}
			if c.code != "" {
				im, err := asm.Assemble(xtCode, c.code)
				if err != nil {
					t.Fatalf("assemble: %v", err)
				}
				m.Mem.Load(xtCode, im.Bytes)
				m.SetPC(xtCode)
			}
			// check also counts the steps that moved a probe's mapping: a
			// case whose change reaches no probe would prove nothing.
			refs, moved := xmemoRefs(m), 0
			check := func(when string) {
				xmemoCheck(t, m, when)
				if r := xmemoRefs(m); r != refs {
					refs, moved = r, moved+1
				}
			}
			check("before")
			snap, err := m.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < strings.Count(c.code, "\n"); i++ {
				m.StepInstruction()
				check(fmt.Sprintf("after instruction %d", i+1))
			}
			if c.after != nil {
				c.after(m)
				check("after")
			}
			if c.reimport {
				if err := m.ImportState(snap); err != nil {
					t.Fatal(err)
				}
				check("after ImportState")
			}
			if moved == 0 {
				t.Error("no step changed any probe's reference translation")
			}
		})
	}
}

// TestMemoBypassNeedsMemSampler: the functional path walks per byte only
// while memory's RDS point can sample. A plane that schedules other
// points, or none, leaves memory unsampled and the memo in use.
func TestMemoBypassNeedsMemSampler(t *testing.T) {
	m := newXMemoMachine(t)
	var cacheOnly fault.Config
	cacheOnly.Sched[fault.CacheParity] = fault.Schedule{Rate: 1e-3}
	var memRDS fault.Config
	memRDS.Sched[fault.MemRDS] = fault.Schedule{Every: 1000}
	for _, c := range []struct {
		name  string
		plane *fault.Plane
		want  bool
	}{
		{"no plane", nil, false},
		{"zero-rate plane", fault.NewPlane(fault.Config{Seed: 1}), false},
		{"cache parity only", fault.NewPlane(cacheOnly), false},
		{"mem RDS scheduled", fault.NewPlane(memRDS), true},
		{"detached", nil, false},
	} {
		m.AttachFaultPlane(c.plane)
		if got := m.Mem.Sampled(); got != c.want {
			t.Errorf("%s: Mem.Sampled() = %v, want %v", c.name, got, c.want)
		}
	}
}
