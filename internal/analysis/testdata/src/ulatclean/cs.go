// Package ulatclean is the clean negative for the ulat analyzer: every
// registered opcode's bounds derive exactly — straight-line, branching,
// data-dependent loop, factory-built handler, a shared-row specifier
// word, and the pruned abort outcome of a displacement helper — so the
// derivation must stay silent and the table it returns is pinned by
// TestULatTable.
package ulatclean

import "uwucode"

type Machine struct {
	counts map[uint16]uint64
	r0     int
}

func (m *Machine) tick(w uint16)            { m.counts[w]++ }
func (m *Machine) ticks(w uint16, n uint64) { m.counts[w] += n }
func (m *Machine) stall(w uint16, c uint64) {}

var cs = uwucode.NewStore()

func def(name string, row uwucode.Row, class uwucode.Class) uint16 {
	return cs.Define(name, row, class)
}

var uw = struct {
	op   uint16
	wr   uint16
	step uint16
	spec uint16
}{
	op:   def("clean.op", uwucode.RowSimple, uwucode.ClassCompute),
	wr:   def("clean.wr", uwucode.RowSimple, uwucode.ClassWrite),
	step: def("clean.step", uwucode.RowSimple, uwucode.ClassCompute),
	spec: def("clean.spec", uwucode.RowSpec1, uwucode.ClassDispatch),
}
