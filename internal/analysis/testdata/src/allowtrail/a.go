// Package allowtrail pins the reach of an allow note: a note trailing
// code excuses its own line only, while a note standing alone excuses the
// line below it. Checked by TestAllowTrailing under hotpath.
package allowtrail

type Machine struct {
	cycle uint64
	buf   []byte
}

func (m *Machine) Step() {
	m.buf = m.buf[:0]       //vaxlint:allow hotpath -- trailing: excuses this line, not the next
	m.buf = make([]byte, 4) // want `hot path \(Machine\.Step\): make allocates per cycle`
	//vaxlint:allow hotpath -- standalone: excuses the append below
	m.buf = append(m.buf, byte(m.cycle))
}
