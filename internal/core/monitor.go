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
	hist      Histogram
	running   bool
	overflow  bool
	maxBucket uint64 // counter capacity; 0 means unbounded
}

var _ cpu.Probe = (*Monitor)(nil)

// NewMonitor returns a stopped, cleared monitor.
//
// The real board's counters had capacity for 1-2 hours of heavy processing
// (§2.2); pass a nonzero bucket capacity to model that and detect
// overflow.
func NewMonitor() *Monitor { return &Monitor{} }

// SetCounterCapacity sets the per-bucket counter capacity (0 = unbounded).
func (mo *Monitor) SetCounterCapacity(max uint64) { mo.maxBucket = max }

// Start begins collection (Unibus "start data collection").
func (mo *Monitor) Start() { mo.running = true }

// Stop halts collection. Already-collected counts remain readable.
func (mo *Monitor) Stop() { mo.running = false }

// Running reports whether the board is collecting.
func (mo *Monitor) Running() bool { return mo.running }

// Clear zeroes all count buckets.
func (mo *Monitor) Clear() {
	mo.hist = Histogram{}
	mo.overflow = false
}

// Overflowed reports whether any bucket hit the configured capacity.
func (mo *Monitor) Overflowed() bool { return mo.overflow }

// Count implements cpu.Probe: n executed cycles at a location.
func (mo *Monitor) Count(upc uint16, n uint64) {
	if !mo.running {
		return
	}
	mo.hist.Counts[upc] = mo.bump(upc, mo.hist.Counts[upc], n)
}

// Stall implements cpu.Probe: n stalled cycles at a location.
func (mo *Monitor) Stall(upc uint16, n uint64) {
	if !mo.running {
		return
	}
	mo.hist.Stalls[upc] = mo.bump(upc, mo.hist.Stalls[upc], n)
}

// bump adds n to a bucket counter with saturate-and-flag degradation: a
// counter that reaches the configured capacity pins there and marks the
// bucket overflowed, so a too-long run yields a histogram that is wrong
// only in known places — never a wrapped (silently corrupt) count.
func (mo *Monitor) bump(upc uint16, cur, n uint64) uint64 {
	v := cur + n
	if mo.maxBucket != 0 && v >= mo.maxBucket {
		mo.overflow = true
		mo.hist.markOverflow(upc)
		v = mo.maxBucket
	}
	return v
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
	// Over is a per-bucket overflow bitmap: bit upc%64 of word upc/64 is
	// set when either counter of that location saturated at the monitor's
	// capacity. Gob encodes it with the counters, so the degradation marks
	// survive save/load and histogram summation.
	Over [ucode.StoreSize / 64]uint64
}

func (h *Histogram) markOverflow(upc uint16) {
	h.Over[upc/64] |= 1 << (upc % 64)
}

// OverflowedAt reports whether the bucket at upc saturated.
func (h *Histogram) OverflowedAt(upc uint16) bool {
	return h.Over[upc/64]&(1<<(upc%64)) != 0
}

// OverflowCount returns the number of saturated buckets.
func (h *Histogram) OverflowCount() int {
	n := 0
	for _, w := range h.Over {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// Add accumulates another histogram into h. Overflow marks are sticky:
// a sum involving a saturated bucket is itself marked saturated there.
func (h *Histogram) Add(other *Histogram) {
	for i := range h.Counts {
		h.Counts[i] += other.Counts[i]
		h.Stalls[i] += other.Stalls[i]
	}
	for i := range h.Over {
		h.Over[i] |= other.Over[i]
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
	Hist      Histogram
	Running   bool
	Overflow  bool
	MaxBucket uint64
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
	st.Overflow = mo.overflow
	st.MaxBucket = mo.maxBucket
}

// ImportState restores a captured board state.
func (mo *Monitor) ImportState(st MonitorState) {
	mo.hist = st.Hist
	mo.running = st.Running
	mo.overflow = st.Overflow
	mo.maxBucket = st.MaxBucket
}
