package ulatclean

type execFn func(*Machine)

var execTable [16]execFn

func register(op Op, fn execFn) { execTable[op] = fn }

func init() {
	register(ADDX, execAdd)
	register(DBLX, execDbl)
	register(LOOPX, execLoop)
	register(FACTX, makeTicker(3))
	register(BSBX, execBsb)
	register(BRX, execBr)
	register(PEEKX, execPeek)
	for _, op := range []Op{PAIRX, QUADX} {
		register(op, execAdd)
	}
}

// execAdd is the straight line: one compute, one result write, and a
// SPEC1-row dispatch word, which the shared-row policy admits in any
// opcode's word set.
func execAdd(m *Machine) {
	m.tick(uw.op)
	m.tick(uw.spec)
	m.tick(uw.wr)
	m.stall(uw.wr, 1)
}

// execDbl branches: the short path costs one compute, the long path two.
func execDbl(m *Machine) {
	if m.r0 > 0 {
		m.tick(uw.op)
		m.tick(uw.op)
	} else {
		m.tick(uw.op)
	}
}

// execLoop is the data-dependent case: the iteration count comes from
// machine state, so the compute cost appears as a loop term, not a
// bound.
func execLoop(m *Machine) {
	n := m.r0
	for i := 0; i < n; i++ {
		m.tick(uw.step)
	}
}

// makeTicker is a factory handler: the constant flows through the
// closure and folds into an exact bound.
func makeTicker(k int) execFn {
	return func(m *Machine) {
		m.ticks(uw.op, uint64(k))
	}
}

// takeDisp stands in for the displacement helper: false means an
// I-stream fault aborted the instruction while it waited.
func (m *Machine) takeDisp() (uint32, bool) {
	if m.r0 < 0 {
		return 0, false
	}
	return uint32(m.r0), true
}

// peek has takeDisp's shape but is not an abort reporter.
func (m *Machine) peek() (uint32, bool) {
	return uint32(m.r0), m.r0 > 0
}

// execBsb returns early when takeDisp reports an abort; that exit is
// pruned, so both compute cycles are the minimum.
func execBsb(m *Machine) {
	m.tick(uw.op)
	t, ok := m.takeDisp()
	if !ok {
		return
	}
	m.r0 = int(t)
	m.tick(uw.op)
}

// execBr skips its cycle when takeDisp reports an abort; the skipping
// edge is pruned.
func execBr(m *Machine) {
	if t, ok := m.takeDisp(); ok {
		m.r0 = int(t)
		m.tick(uw.op)
	}
}

// execPeek has execBsb's shape around a helper that is not an abort
// reporter, so its early return is an ordinary path.
func execPeek(m *Machine) {
	m.tick(uw.op)
	t, ok := m.peek()
	if !ok {
		return
	}
	m.r0 = int(t)
	m.tick(uw.op)
}
