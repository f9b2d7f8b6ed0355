package mem

import "fmt"

// Serialized state of the memory subsystem, for the checkpoint/resume
// path (internal/checkpoint). Export copies everything it captures so the
// live structure can keep running after a snapshot is taken; Import
// restores a structure built with the same configuration. Fields wired at
// construction or attachment time (size, timing config, injectors) are not
// part of the state: the resume path reconstructs the structure first and
// then imports into it. The round-trip test in internal/checkpoint requires
// every live field outside its exemption table to travel in these state
// structs.

// MemoryState is the serialized state of the physical memory array.
type MemoryState struct {
	Data     []byte
	Fault    Fault
	HasFault bool
}

// ExportState captures the memory array and its error latch.
func (m *Memory) ExportState() MemoryState {
	st := MemoryState{
		Data:     make([]byte, len(m.data)),
		Fault:    m.fault,
		HasFault: m.hasFault,
	}
	copy(st.Data, m.data)
	return st
}

// ImportState restores a state captured from a memory of the same size.
func (m *Memory) ImportState(st MemoryState) error {
	if len(st.Data) != len(m.data) {
		return fmt.Errorf("mem: snapshot holds %d bytes, memory has %d", len(st.Data), len(m.data))
	}
	copy(m.data, st.Data)
	m.fault = st.Fault
	m.hasFault = st.HasFault
	m.invalidate()
	return nil
}

// SBIState is the serialized state of the backplane.
type SBIState struct {
	BusyUntil  uint64
	Stats      SBIStats
	FaultCycle uint64
	HasFault   bool
}

// ExportState captures the bus occupancy, statistics and error latch.
func (s *SBI) ExportState() SBIState {
	return SBIState{
		BusyUntil:  s.busyUntil,
		Stats:      s.stats,
		FaultCycle: s.faultCycle,
		HasFault:   s.hasFault,
	}
}

// ImportState restores a captured SBI state.
func (s *SBI) ImportState(st SBIState) {
	s.busyUntil = st.BusyUntil
	s.stats = st.Stats
	s.faultCycle = st.FaultCycle
	s.hasFault = st.HasFault
}

// WriteBufferState is the serialized state of the write buffer.
type WriteBufferState struct {
	Drains []uint64
	Stats  WriteBufferStats
}

// ExportState captures the buffered-write drain times and statistics.
func (w *WriteBuffer) ExportState() WriteBufferState {
	st := WriteBufferState{
		Drains: make([]uint64, len(w.drains)),
		Stats:  w.stats,
	}
	copy(st.Drains, w.drains)
	return st
}

// ImportState restores a state captured from a buffer of the same depth.
func (w *WriteBuffer) ImportState(st WriteBufferState) error {
	if len(st.Drains) > w.depth {
		return fmt.Errorf("mem: snapshot holds %d buffered writes, buffer depth is %d",
			len(st.Drains), w.depth)
	}
	w.drains = append(w.drains[:0], st.Drains...)
	w.stats = st.Stats
	return nil
}
