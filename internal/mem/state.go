package mem

import (
	"bytes"
	"fmt"
	"slices"
)

// Serialized state of the memory subsystem, for the checkpoint/resume
// path (internal/checkpoint). Export copies everything it captures so the
// live structure can keep running after a snapshot is taken; Import
// restores a structure built with the same configuration. Fields wired at
// construction or attachment time (size, timing config, injectors) are not
// part of the state: the resume path reconstructs the structure first and
// then imports into it; MemoryState carries the memory size only so that
// ImportState can refuse a state from a memory of another size. The
// round-trip test in internal/checkpoint requires every live field
// outside its exemption table to travel in these state structs.

// FrameSize is the size in bytes of one frame, the unit MemoryState
// lists.
const FrameSize = frameSize

// MemoryState is the serialized state of the physical memory array. Only
// the frames (512-byte pages) that hold a nonzero byte travel: Frames
// lists their numbers in strictly ascending order, and Data holds their
// contents, FrameSize bytes per listed frame in the same order. Every
// frame not listed is zero. A last frame the array only partly covers is
// padded with zeros. Size is the length of the array the state was
// captured from.
type MemoryState struct {
	Size     uint32
	Frames   []uint32
	Data     []byte
	Fault    Fault
	HasFault bool
}

// ExportState captures the nonzero frames of the memory array and its
// error latch into a new state.
func (m *Memory) ExportState() MemoryState {
	var st MemoryState
	m.ExportStateInto(&st)
	return st
}

// ExportStateInto captures the nonzero frames of the memory array and its
// error latch into st, reusing the storage of its Frames and Data, so a
// caller that snapshots the same memory again and again allocates only
// when the image grows. Only frames with storage are looked at, so its
// cost grows with the frames the machine wrote, not with the array's
// size.
func (m *Memory) ExportStateInto(st *MemoryState) {
	st.Size, st.Fault, st.HasFault = m.size, m.fault, m.hasFault
	st.Frames = st.Frames[:0]
	for f, p := range m.frames {
		if p != nil && !bytes.Equal(p[:], zeroFrame[:]) {
			st.Frames = append(st.Frames, uint32(f))
		}
	}
	st.Data = slices.Grow(st.Data[:0], len(st.Frames)*frameSize)
	for _, f := range st.Frames {
		st.Data = append(st.Data, m.frames[f][:]...)
	}
}

// ImportState restores a state captured from a memory of the same size.
// It validates the whole state, size included, before touching the
// memory, then rebuilds the frame table from the listed frames alone, so
// nothing the memory held before survives.
func (m *Memory) ImportState(st MemoryState) error {
	if st.Size != m.size {
		return fmt.Errorf("mem: snapshot of a %d-byte memory, this one holds %d", st.Size, m.size)
	}
	if len(st.Data) != len(st.Frames)*frameSize {
		return fmt.Errorf("mem: snapshot holds %d bytes for %d frames of %d",
			len(st.Data), len(st.Frames), frameSize)
	}
	for i, f := range st.Frames {
		if int(f) >= len(m.frames) {
			return fmt.Errorf("mem: snapshot frame %d is outside a memory of %d frames", f, len(m.frames))
		}
		if i > 0 && f <= st.Frames[i-1] {
			return fmt.Errorf("mem: snapshot frames not strictly ascending: %d follows %d", f, st.Frames[i-1])
		}
	}
	clear(m.frames)
	data := bytes.Clone(st.Data)
	for i, f := range st.Frames {
		p := (*[frameSize]byte)(data[i*frameSize:])
		// A last frame the array only partly covers keeps zeros past it.
		if end := m.size - f<<frameShift; end < frameSize {
			clear(p[end:])
		}
		m.frames[f] = p
	}
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
