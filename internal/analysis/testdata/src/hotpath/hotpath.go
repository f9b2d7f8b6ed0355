// Package hotpath seeds one instance of every allocation class the
// hotpath analyzer flags on a path reachable from the stepping roots —
// defer, go, closures and method values, make/new/append, escaping
// composite literals — in declared functions, in handlers reached through
// a table of a named function type, and in an interface implementation.
// It also exercises the shapes the analyzer must stay silent on: value
// copies, range-operand slice literals and pruned cold slices
// (declaration and line allows).
package hotpath

type Machine struct {
	cycle   uint64
	scratch [8]byte
	buf     []byte
	sink    func()
	probe   Probe
}

func (m *Machine) tick() { m.cycle++ }

// Probe is a module-declared interface: a call through it resolves to
// every implementing method in the load.
type Probe interface {
	Note(c uint64)
}

type rec struct{ log []uint64 }

func (r *rec) Note(c uint64) {
	r.log = append(r.log, c) // want `hot path \(Machine\.Step → rec\.Note\): append may grow its backing array per cycle`
}

// handler is a named function type: a call through a value of it
// resolves to every function or literal collected as a value of the type.
type handler func(*Machine)

var table = [...]handler{
	viaTable,
	func(m *Machine) {
		m.buf = append(m.buf, 1) // want `hot path \(Machine\.Step → func@hotpath\.go:\d+\): append may grow its backing array per cycle`
	},
}

func viaTable(m *Machine) {
	b := make([]byte, 4) // want `hot path \(Machine\.Step → viaTable\): make allocates per cycle`
	_ = b
}

type op struct{ a, b uint32 }

func (m *Machine) Step() {
	defer m.tick()                // want `hot path \(Machine\.Step\): defer runs its bookkeeping every cycle`
	go m.tick()                   // want `hot path \(Machine\.Step\): go statement launches a goroutine per cycle`
	m.sink = func() { m.cycle++ } // want `hot path \(Machine\.Step\): function literal allocates a closure per cycle`
	m.sink = m.tick               // want `hot path \(Machine\.Step\): method value tick allocates a bound-method closure per cycle`
	p := &op{a: 1, b: 2}          // want `hot path \(Machine\.Step\): &op\{…\} escapes to the heap per cycle`
	_ = p
	q := new(op) // want `hot path \(Machine\.Step\): new allocates per cycle`
	_ = q
	s := []uint32{1, 2, 3} // want `hot path \(Machine\.Step\): slice literal allocates its backing array per cycle`
	_ = s
	h := map[uint32]uint32{1: 2} // want `hot path \(Machine\.Step\): map literal allocates per cycle`
	_ = h

	table[int(m.cycle)&1](m)
	m.helper()
	m.probe.Note(m.cycle)

	v := op{a: 3} // silent: a value copy does not allocate
	_ = v
	for _, x := range []byte{1, 2} { // silent: the range operand stays on the stack
		m.scratch[0] = x
	}
	//vaxlint:allow hotpath -- bounded: grows to a fixed high-water mark on the first cycles, then stays flat
	m.buf = append(m.buf, byte(m.cycle))

	m.cold()
}

func (m *Machine) helper() {
	m.buf = append(m.buf, 0) // want `hot path \(Machine\.Step → Machine\.helper\): append may grow its backing array per cycle`
}

// cold is pruned from the hot set: neither its interior allocations nor
// the arguments at its call sites are judged.
//
//vaxlint:allow hotpath -- cold: assembles the terminal error report once, after the machine stops
func (m *Machine) cold() {
	b := make([]byte, 64)
	_ = b
}
