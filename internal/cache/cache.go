// Package cache models the VAX-11/780 cache: 8 KB, two-way set-associative
// with 8-byte blocks, write-through with no allocation on write miss
// (Clark, "Cache Performance in the VAX-11/780", TOCS 1983; §2.1 of the
// paper). The cache is shared by the I-Fetch unit and the EBOX.
//
// Because the machine is write-through and this model has no DMA devices
// writing behind the cache, physical memory is always current; the cache is
// therefore purely a *timing* structure (hit/miss state), and data is
// always read from the memory array. The paper's measurements depend only
// on hit/miss behaviour, which is modelled exactly.
package cache

import (
	"fmt"
	"math/bits"
)

// Stream identifies the requester class for statistics (§4.2 splits misses
// into I-stream and D-stream).
type Stream int

const (
	IStream Stream = iota
	DStream
)

func (s Stream) String() string {
	if s == IStream {
		return "I-stream"
	}
	return "D-stream"
}

// Config describes a cache geometry.
type Config struct {
	SizeBytes  int // total data capacity
	Ways       int // associativity
	BlockBytes int // block (line) size
}

// DefaultConfig returns the 11/780 cache geometry.
func DefaultConfig() Config {
	return Config{SizeBytes: 8 * 1024, Ways: 2, BlockBytes: 8}
}

// Stats are cumulative per-stream reference counts.
type Stats struct {
	ReadHits    [2]uint64
	ReadMisses  [2]uint64
	WriteHits   uint64 // writes that updated the cache
	WriteMisses uint64 // writes that bypassed the cache (no allocate)
	Flushes     uint64
	// ParityErrors counts injected tag/data parity errors. Each
	// invalidates the affected line, forces a miss (refill from memory),
	// and raises a machine check.
	ParityErrors uint64
}

// Reads returns total read references for a stream.
func (s Stats) Reads(st Stream) uint64 { return s.ReadHits[st] + s.ReadMisses[st] }

// MissRatio returns the read miss ratio for a stream (0 if no reads).
func (s Stats) MissRatio(st Stream) float64 {
	total := s.Reads(st)
	if total == 0 {
		return 0
	}
	return float64(s.ReadMisses[st]) / float64(total)
}

type line struct {
	valid bool
	tag   uint32
	// mru marks the most-recently-used way of a 2-way set; for higher
	// associativity it holds an LRU timestamp.
	lru uint64
}

// Tracer observes cache references (see internal/trace). Callbacks fire
// before the reference is applied.
type Tracer interface {
	CacheRead(pa uint32, st Stream)
	CacheWrite(pa uint32)
	CacheFlush()
}

// Cache is a set-associative timing cache indexed by physical address.
type Cache struct {
	cfg      Config
	sets     [][]line
	setShift uint
	setMask  uint32
	tagShift uint
	stamp    uint64
	stats    Stats
	tracer   Tracer

	inject    func() bool // parity fault sampler (nil = never)
	faultAddr uint32
	hasFault  bool
}

// SetTracer attaches a passive reference tracer (nil detaches).
func (c *Cache) SetTracer(tr Tracer) { c.tracer = tr }

// SetInjector installs a parity fault sampler consulted once per read
// lookup (nil removes it). See internal/fault.
func (c *Cache) SetInjector(sample func() bool) { c.inject = sample }

// TakeFault returns and clears the latched parity syndrome: the physical
// address whose lookup saw bad parity. Single-error latch.
func (c *Cache) TakeFault() (pa uint32, ok bool) {
	a, had := c.faultAddr, c.hasFault
	c.faultAddr, c.hasFault = 0, false
	return a, had
}

// New returns a cache with the given geometry.
func New(cfg Config) (*Cache, error) {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 || cfg.BlockBytes <= 0 {
		return nil, fmt.Errorf("cache: non-positive geometry %+v", cfg)
	}
	nSets := cfg.SizeBytes / (cfg.Ways * cfg.BlockBytes)
	if nSets == 0 || nSets&(nSets-1) != 0 || cfg.BlockBytes&(cfg.BlockBytes-1) != 0 {
		return nil, fmt.Errorf("cache: geometry %+v not a power of two", cfg)
	}
	c := &Cache{cfg: cfg, setMask: uint32(nSets - 1)}
	for cfg.BlockBytes>>c.setShift > 1 {
		c.setShift++
	}
	c.tagShift = c.setShift + uint(bits.TrailingZeros(uint(nSets)))
	c.sets = make([][]line, nSets)
	backing := make([]line, nSets*cfg.Ways)
	for i := range c.sets {
		c.sets[i], backing = backing[:cfg.Ways], backing[cfg.Ways:]
	}
	return c, nil
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns cumulative statistics.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) find(pa uint32) (set []line, tag uint32, way int) {
	idx := (pa >> c.setShift) & c.setMask
	tag = pa >> c.tagShift
	set = c.sets[idx]
	for w := range set {
		if set[w].valid && set[w].tag == tag {
			return set, tag, w
		}
	}
	return set, tag, -1
}

// Read looks up a read reference; on a miss the block is allocated
// (replacing the LRU way). It returns whether the reference hit.
func (c *Cache) Read(pa uint32, st Stream) bool {
	if c.tracer != nil {
		c.tracer.CacheRead(pa, st)
	}
	if c.inject != nil && c.inject() {
		// Parity error on lookup: the line (if resident) can no longer
		// be trusted — invalidate it so the reference misses and the
		// block refills from memory, and latch the syndrome for the
		// machine-check microcode.
		if set, _, way := c.find(pa); way >= 0 {
			set[way] = line{}
		}
		c.stats.ParityErrors++
		if !c.hasFault {
			c.faultAddr, c.hasFault = pa, true
		}
	}
	set, tag, way := c.find(pa)
	c.stamp++
	if way >= 0 {
		set[way].lru = c.stamp
		c.stats.ReadHits[st]++
		return true
	}
	c.stats.ReadMisses[st]++
	victim := 0
	for w := range set {
		if !set[w].valid {
			victim = w
			break
		}
		if set[w].lru < set[victim].lru {
			victim = w
		}
	}
	set[victim] = line{valid: true, tag: tag, lru: c.stamp}
	return false
}

// Probe reports whether pa currently hits, without updating state.
func (c *Cache) Probe(pa uint32) bool {
	_, _, way := c.find(pa)
	return way >= 0
}

// Write applies the write-through policy: on a hit the block is updated
// (and stays resident); on a miss the cache is left untouched ("if the
// write access misses, the cache is not updated", §2.1). It returns
// whether the write hit.
func (c *Cache) Write(pa uint32) bool {
	if c.tracer != nil {
		c.tracer.CacheWrite(pa)
	}
	set, _, way := c.find(pa)
	c.stamp++
	if way >= 0 {
		set[way].lru = c.stamp
		c.stats.WriteHits++
		return true
	}
	c.stats.WriteMisses++
	return false
}

// Flush invalidates the entire cache.
func (c *Cache) Flush() {
	if c.tracer != nil {
		c.tracer.CacheFlush()
	}
	for _, set := range c.sets {
		for w := range set {
			set[w] = line{}
		}
	}
	c.stats.Flushes++
}

// BlockBase returns the block-aligned base address containing pa.
func (c *Cache) BlockBase(pa uint32) uint32 {
	return pa &^ uint32(c.cfg.BlockBytes-1)
}
