// Package tb models the VAX-11/780 translation buffer: 128 entries, two-way
// set-associative, split into a system half and a process half; the process
// half is flushed on context switch (LDPCTX). The TB is controlled by
// microcode: a miss causes a microcode trap to the miss-service routine
// (internal/ebox), which makes the miss *visible to the µPC monitor* — the
// property §4.2 of the paper relies on.
package tb

import "vax780/internal/mmu"

const (
	// Ways and SetsPerHalf give the 11/780 geometry: 2 × 32 × 2 halves =
	// 128 entries.
	Ways        = 2
	SetsPerHalf = 32
)

// Stats are cumulative hardware-visible counts (the paper derives miss
// counts from the microcode histogram; these counters exist for
// cross-checking).
type Stats struct {
	Hits           [2]uint64 // indexed by stream: 0 = I-stream, 1 = D-stream
	Misses         [2]uint64
	ProcessFlushes uint64
	FullFlushes    uint64
	// ParityErrors counts injected TB parity errors. Each invalidates
	// the affected entry, forces a miss (the microcode re-walks the page
	// table), and raises a machine check.
	ParityErrors uint64
}

// Stream distinguishes I-stream from D-stream references in statistics.
type Stream int

// Stream values.
const (
	IStream Stream = 0
	DStream Stream = 1
)

type entry struct {
	valid bool
	tag   uint32
	pfn   uint32
	mru   bool
}

// Tracer observes TB activity (see internal/trace). All callbacks fire
// before the operation's state change is applied.
type Tracer interface {
	TBLookup(va uint32, st Stream)
	TBInsert(va uint32)
	TBFlushProcess()
	TBFlushAll()
	TBInvalidate(va uint32)
}

// TB is the translation buffer.
type TB struct {
	// halves[0] = process (P0/P1), halves[1] = system (S0).
	halves [2][SetsPerHalf][Ways]entry
	stats  Stats
	tracer Tracer

	inject   func() bool // parity fault sampler (nil = never)
	faultVA  uint32
	hasFault bool
}

// SetTracer attaches a passive activity tracer (nil detaches).
func (t *TB) SetTracer(tr Tracer) { t.tracer = tr }

// SetInjector installs a parity fault sampler consulted once per lookup
// (nil removes it). See internal/fault.
func (t *TB) SetInjector(sample func() bool) { t.inject = sample }

// TakeFault returns and clears the latched parity syndrome: the virtual
// address whose lookup saw bad parity. Single-error latch.
func (t *TB) TakeFault() (va uint32, ok bool) {
	a, had := t.faultVA, t.hasFault
	t.faultVA, t.hasFault = 0, false
	return a, had
}

// New returns an empty translation buffer.
func New() *TB { return &TB{} }

// Stats returns cumulative statistics.
func (t *TB) Stats() Stats { return t.stats }

func half(va uint32) int {
	if mmu.IsSystem(va) {
		return 1
	}
	return 0
}

// index and tag: the set index is the low bits of the VPN *including* the
// region bits above it in the tag so P0 and P1 pages do not alias.
func split(va uint32) (set int, tag uint32) {
	vpn := va >> mmu.PageShift // includes region bits in the high part
	return int(vpn % SetsPerHalf), vpn / SetsPerHalf
}

// Lookup translates va. On a hit it returns the physical address and true.
// On a miss it returns false; the caller (microcode) must walk the page
// table and Insert the translation.
func (t *TB) Lookup(va uint32, st Stream) (pa uint32, hit bool) {
	if t.tracer != nil {
		t.tracer.TBLookup(va, st)
	}
	h := half(va)
	set, tag := split(va)
	ways := &t.halves[h][set]
	if t.inject != nil && t.inject() {
		// Parity error: a matching entry can no longer be trusted —
		// drop it so the lookup misses and the microcode re-walks the
		// page table, and latch the syndrome for the machine check.
		for w := range ways {
			if ways[w].valid && ways[w].tag == tag {
				ways[w] = entry{}
			}
		}
		t.stats.ParityErrors++
		if !t.hasFault {
			t.faultVA, t.hasFault = va, true
		}
		t.stats.Misses[st]++
		return 0, false
	}
	for w := range ways {
		if ways[w].valid && ways[w].tag == tag {
			ways[w].mru = true
			ways[1-w].mru = false
			t.stats.Hits[st]++
			return ways[w].pfn<<mmu.PageShift | va&mmu.PageMask, true
		}
	}
	t.stats.Misses[st]++
	return 0, false
}

// Probe reports whether va would hit, without touching statistics or LRU.
func (t *TB) Probe(va uint32) bool {
	h := half(va)
	set, tag := split(va)
	for _, e := range t.halves[h][set] {
		if e.valid && e.tag == tag {
			return true
		}
	}
	return false
}

// Insert installs a translation (called by the TB-miss microcode routine).
// The not-most-recently-used way of the set is replaced.
func (t *TB) Insert(va uint32, pfn uint32) {
	if t.tracer != nil {
		t.tracer.TBInsert(va)
	}
	h := half(va)
	set, tag := split(va)
	ways := &t.halves[h][set]
	victim := 0
	for w := range ways {
		if !ways[w].valid {
			victim = w
			break
		}
		if !ways[w].mru {
			victim = w
		}
	}
	ways[victim] = entry{valid: true, tag: tag, pfn: pfn & mmu.PTEPFNMask, mru: true}
	ways[1-victim].mru = false
}

// Invalidate removes a single translation (MTPR TBIS).
func (t *TB) Invalidate(va uint32) {
	if t.tracer != nil {
		t.tracer.TBInvalidate(va)
	}
	h := half(va)
	set, tag := split(va)
	ways := &t.halves[h][set]
	for w := range ways {
		if ways[w].valid && ways[w].tag == tag {
			ways[w] = entry{}
		}
	}
}

// FlushProcess invalidates the process half (performed by LDPCTX on a
// context switch; the system half survives).
func (t *TB) FlushProcess() {
	if t.tracer != nil {
		t.tracer.TBFlushProcess()
	}
	t.halves[0] = [SetsPerHalf][Ways]entry{}
	t.stats.ProcessFlushes++
}

// FlushAll invalidates both halves (MTPR TBIA).
func (t *TB) FlushAll() {
	if t.tracer != nil {
		t.tracer.TBFlushAll()
	}
	t.halves[0] = [SetsPerHalf][Ways]entry{}
	t.halves[1] = [SetsPerHalf][Ways]entry{}
	t.stats.FullFlushes++
}
