package vmos

import (
	"context"
	"fmt"

	"vax780/internal/cpu"
)

// Checkpoint support. A System snapshot captures only the state that
// evolves after Boot: device schedules and per-process CPU accounting.
// Everything laid down by Boot — the process table, page tables, the
// kernel image, the SCB — lives in (checkpointed) physical memory or is
// rebuilt deterministically by the resume path, which reconstructs the
// System from the same Config and process set before importing. The
// round-trip test in internal/checkpoint enforces the split: every
// System field outside its exemption table must travel.

// State is the serialized post-boot scheduler and device state.
type State struct {
	NextClock  uint64
	TermEvents []uint64
	TermNext   int
	DiskSeen   uint32
	DiskDue    []uint64
	LastCycle  uint64
	LastPCB    uint32
	CPUTime    []CPUCharge // in the order of each process's first charge
}

// CPUCharge is the CPU time charged to one process, by its PCB.
type CPUCharge struct {
	PCB    uint32
	Cycles uint64
}

// ExportState captures the scheduler and device state (slices are
// copied; the system can keep running).
func (s *System) ExportState() (State, error) {
	if !s.booted {
		return State{}, fmt.Errorf("vmos: cannot checkpoint before boot")
	}
	st := State{
		NextClock:  s.nextClock,
		TermEvents: append([]uint64(nil), s.termEvents...),
		TermNext:   s.termNext,
		DiskSeen:   s.diskSeen,
		DiskDue:    append([]uint64(nil), s.diskDue...),
		LastCycle:  s.lastCycle,
		LastPCB:    s.lastPCB,
		CPUTime:    make([]CPUCharge, len(s.charged)),
	}
	for i, pcb := range s.charged {
		st.CPUTime[i] = CPUCharge{PCB: pcb, Cycles: s.cpuTime[i]}
	}
	return st, nil
}

// ImportState restores a captured state into a booted system built from
// the same configuration and process set. The machine state (including
// physical memory) is imported separately via cpu.Machine.ImportState.
func (s *System) ImportState(st State) error {
	if !s.booted {
		return fmt.Errorf("vmos: cannot restore before boot")
	}
	s.nextClock = st.NextClock
	s.termEvents = append([]uint64(nil), st.TermEvents...)
	s.termNext = st.TermNext
	s.diskSeen = st.DiskSeen
	s.diskDue = append([]uint64(nil), st.DiskDue...)
	s.lastCycle = st.LastCycle
	s.lastPCB = st.LastPCB
	s.charged = make([]uint32, len(st.CPUTime))
	s.cpuTime = make([]uint64, len(st.CPUTime))
	for i, c := range st.CPUTime {
		s.charged[i], s.cpuTime[i] = c.PCB, c.Cycles
	}
	s.cur = -1
	return nil
}

// RunCtx executes for a cycle budget with cooperative cancellation (see
// cpu.Machine.RunCtx).
func (s *System) RunCtx(ctx context.Context, cycles uint64) cpu.RunResult {
	if !s.booted {
		return cpu.RunResult{Err: fmt.Errorf("vmos: not booted")}
	}
	return s.m.RunCtx(ctx, cycles)
}
