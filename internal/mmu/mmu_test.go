package mmu

import (
	"testing"
	"testing/quick"

	"vax780/internal/mem"
)

func TestRegionOf(t *testing.T) {
	cases := map[uint32]Region{
		0x00000000: P0, 0x3FFFFFFF: P0,
		0x40000000: P1, 0x7FFFFFFF: P1,
		0x80000000: S0, 0xBFFFFFFF: S0,
		0xC0000000: Reserved,
	}
	for va, want := range cases {
		if got := RegionOf(va); got != want {
			t.Errorf("RegionOf(%#x) = %v, want %v", va, got, want)
		}
	}
}

func TestPTEBits(t *testing.T) {
	pte := MakePTE(0x1234, ProtUW)
	if !Valid(pte) {
		t.Error("MakePTE should set valid")
	}
	if PFN(pte) != 0x1234 {
		t.Errorf("PFN = %#x", PFN(pte))
	}
	if Valid(pte &^ PTEValid) {
		t.Error("cleared valid bit should be invalid")
	}
}

// buildTables sets up: S0 pages identity-mapped to low memory; a P0 page
// table living in S0 space.
func buildTables(t *testing.T, m *mem.Memory) *Registers {
	t.Helper()
	const (
		sbr       = 0x10000 // physical address of system page table
		nSysPages = 256     // map S0 va 0x80000000.. to phys 0..
		p0tableVA = 0x80000000 + uint32(100)*PageSize
	)
	r := &Registers{SBR: sbr, SLR: 512, Enabled: true}
	// System PTEs: S0 page i -> frame i (identity for first nSysPages).
	for i := uint32(0); i < nSysPages; i++ {
		m.WriteLong(sbr+4*i, MakePTE(i, ProtKW))
	}
	// The P0 page table occupies S0 page 100 -> physical frame 100.
	// P0 page j -> frame 200+j.
	p0tablePA := uint32(100) * PageSize
	for j := uint32(0); j < 16; j++ {
		m.WriteLong(p0tablePA+4*j, MakePTE(200+j, ProtUW))
	}
	r.P0BR = p0tableVA
	r.P0LR = 16
	r.P1BR = p0tableVA // unused in these tests
	r.P1LR = 0
	return r
}

func TestTranslateSystemSpace(t *testing.T) {
	m := mem.New(1 << 20)
	r := buildTables(t, m)
	pa, err := Translate(0x80000000+5*PageSize+7, r, m)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint32(5*PageSize + 7); pa != want {
		t.Errorf("pa = %#x, want %#x", pa, want)
	}
}

func TestTranslateProcessSpaceNested(t *testing.T) {
	m := mem.New(1 << 20)
	r := buildTables(t, m)
	pa, err := Translate(3*PageSize+9, r, m)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint32((200+3)*PageSize + 9); pa != want {
		t.Errorf("pa = %#x, want %#x", pa, want)
	}
}

func TestTranslateFaults(t *testing.T) {
	m := mem.New(1 << 20)
	r := buildTables(t, m)
	// Length violation: P0 vpn 16 >= P0LR.
	if _, err := Translate(16*PageSize, r, m); err == nil {
		t.Error("length violation not detected")
	}
	// Invalid PTE: clear a PTE.
	m.WriteLong(uint32(100)*PageSize+4*2, 0)
	if _, err := Translate(2*PageSize, r, m); err == nil {
		t.Error("invalid PTE not detected")
	}
	// Reserved region.
	if _, err := Translate(0xC0000000, r, m); err == nil {
		t.Error("reserved region not detected")
	}
	// Fault message includes the VA.
	_, err := Translate(16*PageSize, r, m)
	if f, ok := err.(*Fault); !ok || f.Kind != FaultLength {
		t.Errorf("err = %v, want length Fault", err)
	}
}

func TestTranslateDisabled(t *testing.T) {
	r := &Registers{Enabled: false}
	pa, err := Translate(0x1234, r, nil)
	if err != nil || pa != 0x1234 {
		t.Errorf("disabled translation: pa=%#x err=%v", pa, err)
	}
}

func TestPropertyTranslatePreservesOffset(t *testing.T) {
	m := mem.New(1 << 20)
	r := buildTables(t, m)
	f := func(page uint8, off uint16) bool {
		va := 0x80000000 + uint32(page%200)*PageSize + uint32(off)&PageMask
		pa, err := Translate(va, r, m)
		if err != nil {
			return false
		}
		return pa&PageMask == va&PageMask
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestWalkReportsPTEReads: a system-space walk reads one PTE, a process-
// space walk two (the system PTE mapping the page table, then the page's
// own), and a caller that watches those addresses for writes knows when
// the translation can change.
func TestWalkReportsPTEReads(t *testing.T) {
	m := mem.New(1 << 20)
	r := buildTables(t, m)
	_, reads, err := Walk(0x80000000+5*PageSize, r, m)
	if err != nil {
		t.Fatal(err)
	}
	if want := (PTEReads{Addr: [2]uint32{0x10000 + 4*5}, N: 1}); reads != want {
		t.Errorf("S0 walk reads = %+v, want %+v", reads, want)
	}
	_, reads, err = Walk(3*PageSize, r, m)
	if err != nil {
		t.Fatal(err)
	}
	// The P0 table is S0 page 100 (system PTE at SBR+4*100), and P0 page
	// 3's PTE sits 12 bytes into frame 100.
	if want := (PTEReads{Addr: [2]uint32{0x10000 + 4*100, 100*PageSize + 12}, N: 2}); reads != want {
		t.Errorf("P0 walk reads = %+v, want %+v", reads, want)
	}
	_, reads, _ = Walk(3*PageSize, &Registers{}, m)
	if reads.N != 0 {
		t.Errorf("untranslated walk read %d PTEs", reads.N)
	}
}
