// Package mmu implements the VAX virtual-memory architecture used by the
// model: the P0/P1/S0 address regions, 512-byte pages, page-table entries
// and the page-table walk that the translation-buffer miss microcode
// performs. (The translation buffer itself is internal/tb; the walk here is
// the architectural definition the microcode routine implements.)
package mmu

import "fmt"

// Page geometry.
const (
	PageShift = 9
	PageSize  = 1 << PageShift
	PageMask  = PageSize - 1
)

// Region is a VAX virtual address region, selected by VA bits 31:30.
type Region uint8

const (
	P0 Region = iota // 0x00000000-0x3FFFFFFF: program region
	P1               // 0x40000000-0x7FFFFFFF: control (stack) region
	S0               // 0x80000000-0xBFFFFFFF: system region
	Reserved
)

func (r Region) String() string {
	switch r {
	case P0:
		return "P0"
	case P1:
		return "P1"
	case S0:
		return "S0"
	}
	return "reserved"
}

// RegionOf returns the region of a virtual address.
func RegionOf(va uint32) Region { return Region(va >> 30) }

// IsSystem reports whether va is in system space (used to pick the
// system/process half of the translation buffer).
func IsSystem(va uint32) bool { return va&0x80000000 != 0 }

// VPN returns the virtual page number within the address's region.
func VPN(va uint32) uint32 { return (va & 0x3FFFFFFF) >> PageShift }

// PTE layout (the architectural 32-bit page table entry; this model uses
// the valid bit, the protection field and the PFN).
const (
	PTEValid     = uint32(1) << 31
	PTEModify    = uint32(1) << 26
	PTEProtShift = 27
	PTEProtMask  = uint32(0xF) << PTEProtShift
	PTEPFNMask   = uint32(0x1FFFFF)
)

// Protection codes (subset).
const (
	ProtNone uint32 = 0x0
	ProtKW   uint32 = 0x2 // kernel read/write
	ProtUR   uint32 = 0xE // user read, kernel write
	ProtUW   uint32 = 0x4 // all read/write
)

// MakePTE builds a valid PTE for a page frame number.
func MakePTE(pfn uint32, prot uint32) uint32 {
	return PTEValid | (prot << PTEProtShift & PTEProtMask) | (pfn & PTEPFNMask)
}

// PFN extracts the page frame number of a PTE.
func PFN(pte uint32) uint32 { return pte & PTEPFNMask }

// Valid reports whether a PTE is valid.
func Valid(pte uint32) bool { return pte&PTEValid != 0 }

// Registers are the memory-management processor registers. P0BR and P1BR
// are *system-space virtual* addresses (as on the real VAX); SBR is a
// physical address.
type Registers struct {
	P0BR, P0LR uint32
	P1BR, P1LR uint32
	SBR, SLR   uint32
	// Enabled gates address translation (MAPEN). When false, virtual
	// addresses are physical addresses.
	Enabled bool
}

// Fault describes a memory-management fault discovered during translation.
type Fault struct {
	VA     uint32
	Kind   FaultKind
	Detail string
}

// FaultKind classifies translation faults.
type FaultKind uint8

const (
	FaultLength  FaultKind = iota // VPN beyond the region's length register
	FaultInvalid                  // PTE valid bit clear (page fault)
	FaultRegion                   // reference to the reserved region
)

func (f *Fault) Error() string {
	kinds := [...]string{"length violation", "invalid PTE", "reserved region"}
	return fmt.Sprintf("mmu: %s at va %#x (%s)", kinds[f.Kind], f.VA, f.Detail)
}

// fault builds the error for a failed translation. Kept out of line so the
// walk's success path allocates nothing: every caller unwinds into the
// fault-delivery microcode, which costs hundreds of cycles anyway.
func fault(va uint32, kind FaultKind, detail string) error {
	return &Fault{VA: va, Kind: kind, Detail: detail}
}

// LongReader reads an aligned longword of physical memory; the walk uses
// it to fetch page-table entries. An interface (not a func value) so hot
// callers can pass their memory array without binding a method closure.
type LongReader interface {
	ReadLong(pa uint32) uint32
}

// PTERef locates the page-table entry for a virtual address. For process
// regions the PTE lives in system virtual space and its address must itself
// be translated — the nested walk the real TB-miss microcode performs.
type PTERef struct {
	Addr   uint32 // address of the PTE
	IsPhys bool   // true: Addr is physical (system page table)
}

// PTEAddr returns where the PTE for va lives, checking the region length
// register.
func (r *Registers) PTEAddr(va uint32) (PTERef, error) {
	vpn := VPN(va)
	switch RegionOf(va) {
	case P0:
		if vpn >= r.P0LR {
			return PTERef{}, fault(va, FaultLength, "P0LR")
		}
		return PTERef{Addr: r.P0BR + 4*vpn}, nil
	case P1:
		// Simplification: P1 is modelled as growing upward from P1BR like
		// P0 (the real VAX's downward-growing P1 offset arithmetic adds
		// nothing to the performance behaviour measured by the paper).
		if vpn >= r.P1LR {
			return PTERef{}, fault(va, FaultLength, "P1LR")
		}
		return PTERef{Addr: r.P1BR + 4*vpn}, nil
	case S0:
		if vpn >= r.SLR {
			return PTERef{}, fault(va, FaultLength, "SLR")
		}
		return PTERef{Addr: r.SBR + 4*vpn, IsPhys: true}, nil
	}
	return PTERef{}, fault(va, FaultRegion, "VA bits 31:30 = 3")
}

// Translate performs a complete architectural translation of va using a
// physical-memory reader, including the nested system-space walk for
// process-region addresses. It is the reference implementation used by the
// loader, the console, and tests; the timed microcode routine in
// internal/ebox performs the same steps as individual timed reads.
func Translate(va uint32, r *Registers, mem LongReader) (uint32, error) {
	pa, _, err := Walk(va, r, mem)
	return pa, err
}

// PTEReads lists the physical addresses of the page-table entries one walk
// read, in read order: for a process-region address the system PTE that
// maps its page table, then the page's own PTE.
type PTEReads struct {
	Addr [2]uint32
	N    int
}

// Walk is Translate that also reports which page-table entries the
// translation read. A caller that remembers the translation must forget it
// once any of those longwords, or the registers, change.
func Walk(va uint32, r *Registers, mem LongReader) (uint32, PTEReads, error) {
	var reads PTEReads
	if !r.Enabled {
		return va, reads, nil
	}
	ref, err := r.PTEAddr(va)
	if err != nil {
		return 0, reads, err
	}
	pteAddr := ref.Addr
	if !ref.IsPhys {
		// The process PTE lives in S0 space: translate its address first.
		sysRef, err := r.PTEAddr(pteAddr)
		if err != nil {
			return 0, reads, err
		}
		sysPTE := mem.ReadLong(sysRef.Addr)
		reads.Addr[0], reads.N = sysRef.Addr, 1
		if !Valid(sysPTE) {
			return 0, reads, fault(pteAddr, FaultInvalid, "system PTE for process page table")
		}
		pteAddr = PFN(sysPTE)<<PageShift | (pteAddr & PageMask)
	}
	pte := mem.ReadLong(pteAddr)
	reads.Addr[reads.N] = pteAddr
	reads.N++
	if !Valid(pte) {
		return 0, reads, fault(va, FaultInvalid, "page PTE")
	}
	return PFN(pte)<<PageShift | (va & PageMask), reads, nil
}
