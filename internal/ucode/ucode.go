// Package ucode describes the VAX-11/780 microcode control store as the
// µPC histogram monitor sees it: a table of microinstruction locations,
// each with a stable address, a human-readable name, a timing row (which
// stage/activity of instruction execution it belongs to, per Table 8 of
// the paper) and a class (what the microinstruction does in the cycle it
// executes: autonomous computation, a data read, a data write, an
// IB-dispatch request, or a dedicated IB-stall location).
//
// The execution semantics of each location live in internal/cpu; this
// package carries only the descriptive map that the paper's data-reduction
// step needs ("additional interpretation of the raw histogram data", §2.2).
package ucode

import (
	"fmt"
	"sort"
	"strings"
)

// StoreSize is the number of addressable control-store locations (and thus
// histogram buckets): the monitor board had 16,000 count locations; the
// 11/780 control store is 16 K microwords.
const StoreSize = 16384

// Row is the first dimension of Table 8: the stage or activity of
// instruction execution a microinstruction belongs to.
type Row uint8

// Rows of Table 8, in the paper's order.
const (
	RowDecode Row = iota
	RowSpec1
	RowSpec26
	RowBDisp
	RowSimple
	RowField
	RowFloat
	RowCallRet
	RowSystem
	RowCharacter
	RowDecimal
	RowIntExcept
	RowMemMgmt
	RowAbort
	NumRows
)

func (r Row) String() string {
	switch r {
	case RowDecode:
		return "Decode"
	case RowSpec1:
		return "SPEC1"
	case RowSpec26:
		return "SPEC2-6"
	case RowBDisp:
		return "B-DISP"
	case RowSimple:
		return "Simple"
	case RowField:
		return "Field"
	case RowFloat:
		return "Float"
	case RowCallRet:
		return "Call/Ret"
	case RowSystem:
		return "System"
	case RowCharacter:
		return "Character"
	case RowDecimal:
		return "Decimal"
	case RowIntExcept:
		return "Int/Except"
	case RowMemMgmt:
		return "Mem Mgmt"
	case RowAbort:
		return "Abort"
	}
	return fmt.Sprintf("Row(%d)", uint8(r))
}

// Class is what a microinstruction does in its execution cycle. On the
// 11/780 the six Table 8 columns are mutually exclusive: a word either
// computes, reads, or writes; its stalled cycles land in the matching
// stall column; and IB stall is counted as executions of dedicated
// dispatch locations.
type Class uint8

// Classes of microinstruction.
const (
	ClassCompute  Class = iota // autonomous EBOX operation, no memory reference
	ClassRead                  // D-stream data read (stall cycles = read stall)
	ClassWrite                 // D-stream data write (stall cycles = write stall)
	ClassDispatch              // IB byte request / decode dispatch (a compute cycle)
	ClassIBStall               // dedicated "insufficient bytes" location: its
	// execution count IS the IB stall cycle count (§4.3)
	ClassMarker // counts events that consume no EBOX cycle (used only by
	// the DecodeOverlap ablation's folded dispatch)
	NumClasses
)

func (c Class) String() string {
	switch c {
	case ClassCompute:
		return "compute"
	case ClassRead:
		return "read"
	case ClassWrite:
		return "write"
	case ClassDispatch:
		return "dispatch"
	case ClassIBStall:
		return "ib-stall"
	case ClassMarker:
		return "marker"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Word is one control-store location.
type Word struct {
	Addr  uint16
	Name  string
	Row   Row
	Class Class
}

// Store is the control-store map. Addresses are allocated sequentially
// from 1 (address 0 is reserved so that a zero µPC is always invalid).
//
// A Store has two phases. While open, Define allocates locations; once
// Seal is called the map is immutable and every read-side method
// (Word, Lookup, MustLookup, Words, Listing) is safe for unsynchronized
// use from any number of goroutines — the property the fleet supervisor
// (internal/farm) relies on to share one control store across thousands
// of concurrently stepping machines instead of building one per machine.
type Store struct {
	words  []Word
	byName map[string]uint16
	sealed bool
}

// NewStore returns an empty control store map.
func NewStore() *Store {
	return &Store{
		words:  []Word{{Addr: 0, Name: "(reserved)", Row: RowAbort, Class: ClassCompute}},
		byName: make(map[string]uint16),
	}
}

// Define allocates a new control-store location. Names must be unique;
// they are structured dot-paths (e.g. "spec1.mode.(Rn)+.read") that the
// reduction engine keys on.
func (s *Store) Define(name string, row Row, class Class) uint16 {
	if s.sealed {
		panic(fmt.Sprintf("ucode: Define(%q) on a sealed control store", name))
	}
	if prev, dup := s.byName[name]; dup {
		panic(fmt.Sprintf("ucode: duplicate microword name %q (already at µPC %#04x)", name, prev))
	}
	if len(s.words) >= StoreSize {
		panic("ucode: control store full")
	}
	if row >= NumRows || class >= NumClasses {
		panic("ucode: bad row/class for " + name)
	}
	addr := uint16(len(s.words))
	s.words = append(s.words, Word{Addr: addr, Name: name, Row: row, Class: class})
	s.byName[name] = addr
	return addr
}

// Seal freezes the store: further Define calls panic, and all read-side
// methods become safe for concurrent use. Sealing twice is a no-op, so a
// package that builds its store in init can seal it from a package-level
// initializer without coordinating with tests that re-run init paths.
func (s *Store) Seal() { s.sealed = true }

// Sealed reports whether the store has been frozen by Seal.
func (s *Store) Sealed() bool { return s.sealed }

// Len returns the number of defined locations (including the reserved
// location 0).
func (s *Store) Len() int { return len(s.words) }

// Word returns the description of a location.
func (s *Store) Word(addr uint16) Word {
	if int(addr) >= len(s.words) {
		return Word{Addr: addr, Name: "(undefined)", Row: RowAbort, Class: ClassCompute}
	}
	return s.words[addr]
}

// Lookup returns the address of a named location.
func (s *Store) Lookup(name string) (uint16, bool) {
	a, ok := s.byName[name]
	return a, ok
}

// MustLookup returns the address of a named location, panicking if absent.
// The panic names the nearest defined microword and its µPC address, since
// the usual cause is a typo in a reduction-engine table.
func (s *Store) MustLookup(name string) uint16 {
	a, ok := s.byName[name]
	if !ok {
		if near, addr, ok := s.nearest(name); ok {
			panic(fmt.Sprintf("ucode: no microword named %q (%d words defined; nearest is %q at µPC %#04x)",
				name, len(s.words), near, addr))
		}
		panic(fmt.Sprintf("ucode: no microword named %q (%d words defined)", name, len(s.words)))
	}
	return a
}

// nearest returns the defined name sharing the longest common prefix with
// name, breaking ties toward the shorter candidate and then toward the
// lexicographically smaller one. Candidates are visited in sorted order,
// never map order, so the panic message of MustLookup is reproducible —
// a diagnostic that changes between runs defeats golden-logging it.
func (s *Store) nearest(name string) (string, uint16, bool) {
	names := make([]string, 0, len(s.byName))
	for n := range s.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	best, bestAddr, bestLen := "", uint16(0), -1
	for _, n := range names {
		l := commonPrefixLen(n, name)
		if l > bestLen || (l == bestLen && len(n) < len(best)) {
			best, bestAddr, bestLen = n, s.byName[n], l
		}
	}
	return best, bestAddr, bestLen >= 0
}

func commonPrefixLen(a, b string) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// Words returns all defined locations in address order. The slice must not
// be modified.
func (s *Store) Words() []Word { return s.words }

// Listing renders the control-store map as a microcode listing: address,
// name, row and class per location — the document the paper's analysts
// worked from when interpreting histograms.
func (s *Store) Listing() string {
	var b strings.Builder
	b.Grow(len(s.words) * 56) // 5+1 addr, 30+1 name, 12+1 row, class, newline
	for _, w := range s.words[1:] {
		writePadded(&b, itox(w.Addr), 5)
		writePadded(&b, w.Name, 30)
		writePadded(&b, w.Row.String(), 12)
		b.WriteString(w.Class.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// writePadded writes s space-padded to n columns plus one separator space,
// without the per-column string reallocation the old pad helper paid.
func writePadded(b *strings.Builder, s string, n int) {
	b.WriteString(s)
	for i := len(s); i < n; i++ {
		b.WriteByte(' ')
	}
	b.WriteByte(' ')
}

func itox(v uint16) string {
	const digits = "0123456789abcdef"
	out := []byte{'0', '0', '0', '0'}
	for i := 3; i >= 0; i-- {
		out[i] = digits[v&0xF]
		v >>= 4
	}
	return string(out)
}
