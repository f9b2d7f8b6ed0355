// Package hotclean is the negative fixture for the hotpath analyzer: a
// stepping loop with table dispatch through a named function type, an
// interface probe, reslicing, value copies and a justified cold slice —
// and not one heap allocation, boxing, or map touch on any reachable
// path. hotpath must stay silent.
package hotclean

type Machine struct {
	cycle   uint64
	scratch [8]byte
	counts  [16]uint64
	probe   Probe
	halted  bool
}

// Probe is a module-declared interface; the conforming counter below is
// pulled into the hot set by the call through it and must also be clean.
type Probe interface {
	Note(c uint64)
}

type counter struct{ n [4]uint64 }

func (c *counter) Note(v uint64) { c.n[v&3]++ }

type handler func(*Machine)

var table = [...]handler{
	stepA,
	func(m *Machine) { m.counts[m.cycle&15]++ },
}

func stepA(m *Machine) { m.cycle++ }

func (m *Machine) tickAll() {
	for i := range m.counts {
		m.counts[i] += m.cycle & 1
	}
}

type op struct{ a, b uint32 }

func (m *Machine) Step() {
	table[m.cycle&1](m)
	m.tickAll()
	if m.probe != nil {
		m.probe.Note(m.cycle)
	}
	b := m.scratch[:4] // reslicing an owned array does not allocate
	for i := range b {
		b[i] = 0
	}
	v := op{a: uint32(m.cycle)} // a value copy does not allocate
	m.counts[v.a&15]++
	if m.cycle > 1<<40 {
		m.fail("cycle budget exhausted at", m.cycle)
	}
}

// fail is the justified cold slice: the variadic boxing at its call site
// and the formatting inside are absorbed by the declaration allow.
//
//vaxlint:allow hotpath -- cold: terminal failure path; the machine halts and Step never runs again
func (m *Machine) fail(msg string, args ...any) {
	m.halted = true
	sink = append(sink, args...)
}

var sink []any
