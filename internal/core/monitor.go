// Package core implements the paper's primary contribution: the micro-PC
// histogram monitor (§2.2) and the data-reduction engine that interprets a
// raw histogram — using knowledge of the microcode map — into every table
// of Emer & Clark's VAX-11/780 characterization.
//
// The Monitor mirrors the authors' hardware: a 16,000-bucket count board
// keeping, per control-store location, one count of non-stalled
// microinstruction executions and one count of read-/write-stalled cycles;
// IB stall is counted as executions of dedicated dispatch locations. The
// board is passive (it never perturbs the machine being measured) and is
// driven by a command interface equivalent to the original's Unibus
// commands: start, stop, clear, read.
package core

import (
	"vax780/internal/cpu"
	"vax780/internal/ucode"
)

// Monitor is the µPC histogram board.
type Monitor struct {
	hist    Histogram
	running bool
}

var _ cpu.Probe = (*Monitor)(nil)

// NewMonitor returns a stopped, cleared monitor.
//
// The real board's counters had capacity for 1-2 hours of heavy processing
// (§2.2); this board's are 64 bits wide, which no run in this repository
// comes near filling.
func NewMonitor() *Monitor { return &Monitor{} }

// Start begins collection (Unibus "start data collection").
func (mo *Monitor) Start() { mo.running = true }

// Stop halts collection. Already-collected counts remain readable.
func (mo *Monitor) Stop() { mo.running = false }

// Running reports whether the board is collecting.
func (mo *Monitor) Running() bool { return mo.running }

// Clear zeroes all count buckets.
func (mo *Monitor) Clear() { mo.hist = Histogram{} }

// Count implements cpu.Probe: n executed cycles at a location.
func (mo *Monitor) Count(upc uint16, n uint64) {
	if mo.running {
		mo.hist.Counts[upc] += n
	}
}

// Stall implements cpu.Probe: n stalled cycles at a location.
func (mo *Monitor) Stall(upc uint16, n uint64) {
	if mo.running {
		mo.hist.Stalls[upc] += n
	}
}

// ReadBucket reads one bucket's two counters (Unibus "read").
func (mo *Monitor) ReadBucket(addr uint16) (count, stall uint64) {
	return mo.hist.Counts[addr], mo.hist.Stalls[addr]
}

// Snapshot copies the collected histogram.
func (mo *Monitor) Snapshot() *Histogram {
	h := mo.hist
	return &h
}

// Histogram is the raw data product of a measurement run: two counters per
// control-store location. Histograms from separate runs can be summed —
// the paper reports "the composite of all five, that is, the sum of the
// five UPC histograms" (§2.2).
type Histogram struct {
	Counts [ucode.StoreSize]uint64
	Stalls [ucode.StoreSize]uint64
}

// Add accumulates another histogram into h.
func (h *Histogram) Add(other *Histogram) {
	for i := range h.Counts {
		h.Counts[i] += other.Counts[i]
		h.Stalls[i] += other.Stalls[i]
	}
}

// TotalCycles returns the total classified cycles (executions + stalls).
func (h *Histogram) TotalCycles() uint64 {
	var t uint64
	for i := range h.Counts {
		t += h.Counts[i] + h.Stalls[i]
	}
	return t
}

// MonitorState is the serialized state of the monitor board, for the
// checkpoint/resume path (internal/checkpoint): the collected histogram
// plus the board's control state, so a resumed run keeps counting exactly
// where the interrupted one stopped.
type MonitorState struct {
	Hist    Histogram
	Running bool
}

// ExportState captures the board state (the histogram is copied) into a
// new state.
func (mo *Monitor) ExportState() MonitorState {
	var st MonitorState
	mo.ExportStateInto(&st)
	return st
}

// ExportStateInto copies the board state, histogram included, into st,
// which a checkpointing caller keeps from one snapshot to the next.
func (mo *Monitor) ExportStateInto(st *MonitorState) {
	st.Hist = mo.hist
	st.Running = mo.running
}

// ImportState restores a captured board state.
func (mo *Monitor) ImportState(st MonitorState) {
	mo.hist = st.Hist
	mo.running = st.Running
}
