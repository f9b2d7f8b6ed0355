package mem

import "fmt"

// SBIConfig sets the timing parameters of the backplane.
type SBIConfig struct {
	// ReadLatency is the number of cycles from an uncontended cache-miss
	// read request to data arrival. The paper gives 6 cycles for the
	// simplest case (no concurrent memory activity).
	ReadLatency int
	// WriteOccupancy is the number of cycles a write transaction occupies
	// memory. A write attempted less than this many cycles after the
	// previous write stalls (the 4-byte write buffer holds only one
	// longword), per §2.1.
	WriteOccupancy int
}

// DefaultSBIConfig returns the VAX-11/780 parameters from the paper.
func DefaultSBIConfig() SBIConfig {
	return SBIConfig{ReadLatency: 6, WriteOccupancy: 6}
}

// SBIStats are cumulative transaction counts.
type SBIStats struct {
	Reads  uint64 // cache-miss read transactions
	Writes uint64 // write-through transactions
	// BusyCycles is the total number of cycles the bus+memory were
	// occupied; used to compute utilization.
	BusyCycles uint64
	// Timeouts counts transactions that timed out and were retried on
	// the bus (injected faults; each also raises a machine check).
	Timeouts uint64
}

// TimeoutPenalty is the extra bus occupancy of a timed-out transaction:
// the SBI waits out its timeout interval, latches the fault, and the
// retried transaction then proceeds.
const TimeoutPenalty = 32

// SBI models the Synchronous Backplane Interconnect plus the memory
// controller as a single transaction-at-a-time resource: a new transaction
// queues behind whatever is in flight. Both the I-Fetch unit and the EBOX
// issue transactions through it, which is how I-stream misses delay
// D-stream misses (and vice versa) in this model.
type SBI struct {
	cfg       SBIConfig
	busyUntil uint64
	stats     SBIStats

	inject     func() bool // timeout fault sampler (nil = never)
	faultCycle uint64
	hasFault   bool
}

// NewSBI returns an SBI with the given timing configuration.
func NewSBI(cfg SBIConfig) (*SBI, error) {
	if cfg.ReadLatency <= 0 || cfg.WriteOccupancy <= 0 {
		return nil, fmt.Errorf("mem: SBI latencies must be positive (read %d, write %d)",
			cfg.ReadLatency, cfg.WriteOccupancy)
	}
	return &SBI{cfg: cfg}, nil
}

// Config returns the SBI timing configuration.
func (s *SBI) Config() SBIConfig { return s.cfg }

// Stats returns cumulative transaction statistics.
func (s *SBI) Stats() SBIStats { return s.stats }

// SetInjector installs a bus-timeout fault sampler consulted once per
// transaction (nil removes it). See internal/fault.
func (s *SBI) SetInjector(sample func() bool) { s.inject = sample }

// TakeFault returns and clears the latched timeout syndrome: the cycle at
// which the timed-out transaction started. Single-error latch.
func (s *SBI) TakeFault() (cycle uint64, ok bool) {
	c, had := s.faultCycle, s.hasFault
	s.faultCycle, s.hasFault = 0, false
	return c, had
}

// timeout applies an injected bus timeout to a transaction starting at
// start: the retried transfer lands TimeoutPenalty cycles later.
func (s *SBI) timeout(start uint64) uint64 {
	s.stats.Timeouts++
	if !s.hasFault {
		s.faultCycle, s.hasFault = start, true
	}
	return start + TimeoutPenalty
}

// Read starts a cache-miss read transaction at cycle now and returns the
// cycle at which the data arrives at the requester.
func (s *SBI) Read(now uint64) (done uint64) {
	start := now
	if s.busyUntil > start {
		start = s.busyUntil
	}
	if s.inject != nil && s.inject() {
		start = s.timeout(start)
	}
	done = start + uint64(s.cfg.ReadLatency)
	s.busyUntil = done
	s.stats.Reads++
	s.stats.BusyCycles += done - start
	return done
}

// Write starts a write-through transaction at cycle now (the cycle the
// write buffer accepted the data) and returns the cycle at which memory is
// free again.
func (s *SBI) Write(now uint64) (done uint64) {
	start := now
	if s.busyUntil > start {
		start = s.busyUntil
	}
	if s.inject != nil && s.inject() {
		start = s.timeout(start)
	}
	done = start + uint64(s.cfg.WriteOccupancy)
	s.busyUntil = done
	s.stats.Writes++
	s.stats.BusyCycles += done - start
	return done
}

// BusyUntil reports the cycle at which the current transaction (if any)
// completes.
func (s *SBI) BusyUntil() uint64 { return s.busyUntil }

// WriteBuffer models the 780's single-longword write buffer. The EBOX takes
// one cycle to initiate a write and continues; it is held up only if
// another write is attempted before the previous one completed in memory.
// A depth greater than one models the deeper buffers of later machines
// (an ablation of §5's write-stall discussion).
type WriteBuffer struct {
	sbi    *SBI
	depth  int
	drains []uint64 // completion times of buffered writes, ascending
	stats  WriteBufferStats
}

// WriteBufferStats are cumulative write-buffer statistics.
type WriteBufferStats struct {
	Writes      uint64 // writes accepted
	StallCycles uint64 // total cycles the EBOX was write-stalled
	Stalls      uint64 // writes that stalled at all
}

// NewWriteBuffer returns a one-longword write buffer (the 11/780's).
func NewWriteBuffer(sbi *SBI) *WriteBuffer {
	return NewWriteBufferDepth(sbi, 1)
}

// NewWriteBufferDepth returns a write buffer holding up to depth longwords.
func NewWriteBufferDepth(sbi *SBI, depth int) *WriteBuffer {
	if depth < 1 {
		depth = 1
	}
	// Drain-time storage is preallocated at capacity: dropDrained keeps
	// len ≤ depth, so the append in Write never grows the backing array.
	return &WriteBuffer{sbi: sbi, depth: depth, drains: make([]uint64, 0, depth)}
}

// Depth returns the buffer capacity in longwords.
func (w *WriteBuffer) Depth() int { return w.depth }

// Write attempts a write at cycle now. It returns the number of cycles the
// EBOX must stall before the buffer accepts the data (0 on the fast path).
func (w *WriteBuffer) Write(now uint64) (stall uint64) {
	w.dropDrained(now)
	if len(w.drains) >= w.depth {
		// Wait for the oldest buffered write to drain.
		stall = w.drains[0] - now
		w.stats.Stalls++
		w.stats.StallCycles += stall
	}
	accepted := now + stall
	w.dropDrained(accepted)
	//vaxlint:allow hotpath -- bounded: capacity depth is preallocated at construction and dropDrained keeps len < depth here, so this append never grows
	w.drains = append(w.drains, w.sbi.Write(accepted))
	w.stats.Writes++
	return stall
}

// dropDrained removes entries that have drained by cycle now, compacting
// in place so the slice keeps its preallocated backing array (re-slicing
// the front away would shrink the capacity until append reallocates).
func (w *WriteBuffer) dropDrained(now uint64) {
	n := 0
	for n < len(w.drains) && w.drains[n] <= now {
		n++
	}
	if n > 0 {
		w.drains = w.drains[:copy(w.drains, w.drains[n:])]
	}
}

// FreeAt reports when the buffer fully drains; a write at or after this
// cycle will not stall regardless of depth.
func (w *WriteBuffer) FreeAt() uint64 {
	if len(w.drains) == 0 {
		return 0
	}
	return w.drains[len(w.drains)-1]
}

// Stats returns cumulative statistics.
func (w *WriteBuffer) Stats() WriteBufferStats { return w.stats }
