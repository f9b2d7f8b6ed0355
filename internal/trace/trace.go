// Package trace captures reference traces from a running machine and
// replays them offline — the methodology of the companion studies the
// paper leans on (Clark, "Cache Performance in the VAX-11/780", TOCS 1983;
// Clark & Emer's TB study): attach a recorder, run a workload, then drive
// trace-driven simulations of alternative cache geometries or TB policies
// without re-running the processor model.
//
// Two replay modes are provided:
//
//   - exact replay (ReplayTB, ReplayCache): re-applies the recorded
//     operations to a fresh structure of the same geometry; the resulting
//     statistics must equal the live run's, which cross-validates both the
//     trace capture and the structures' determinism;
//   - design sweep (SimulateCache): replays the same reference stream into
//     arbitrary cache geometries, regenerating miss-ratio curves in the
//     style of the 1983 cache study.
package trace

import (
	"encoding/gob"
	"fmt"
	"io"

	"vax780/internal/cache"
	"vax780/internal/cpu"
	"vax780/internal/tb"
)

// Kind tags one trace event.
type Kind uint8

// Event kinds.
const (
	EvTBLookup Kind = iota
	EvTBInsert
	EvTBFlushProcess
	EvTBFlushAll
	EvTBInvalidate
	EvCacheRead
	EvCacheWrite
	EvCacheFlush
)

func (k Kind) String() string {
	switch k {
	case EvTBLookup:
		return "tb-lookup"
	case EvTBInsert:
		return "tb-insert"
	case EvTBFlushProcess:
		return "tb-flush-process"
	case EvTBFlushAll:
		return "tb-flush-all"
	case EvTBInvalidate:
		return "tb-invalidate"
	case EvCacheRead:
		return "cache-read"
	case EvCacheWrite:
		return "cache-write"
	case EvCacheFlush:
		return "cache-flush"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one recorded operation. Stream is a tb.Stream or cache.Stream
// depending on the kind (both use 0 = I-stream, 1 = D-stream).
type Event struct {
	Kind   Kind
	Stream uint8
	Addr   uint32
}

// Trace is a recorded event sequence.
type Trace struct {
	Events []Event
}

// Save writes the trace in a portable binary form.
func (t *Trace) Save(w io.Writer) error { return gob.NewEncoder(w).Encode(t) }

// Load reads a trace written by Save.
func Load(r io.Reader) (*Trace, error) {
	var t Trace
	if err := gob.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return &t, nil
}

// Recorder captures TB and cache activity. It implements tb.Tracer and
// cache.Tracer; attach with Attach (or SetTracer on the structures
// directly).
type Recorder struct {
	Trace Trace
	// MaxEvents caps the trace (0 = unbounded); capture stops silently at
	// the cap and Truncated reports it.
	MaxEvents int
	Truncated bool
}

var (
	_ tb.Tracer    = (*Recorder)(nil)
	_ cache.Tracer = (*Recorder)(nil)
)

// Attach connects the recorder to a machine's TB and cache.
func (r *Recorder) Attach(m *cpu.Machine) {
	m.TLB.SetTracer(r)
	m.Cache.SetTracer(r)
}

// Detach disconnects the recorder.
func (r *Recorder) Detach(m *cpu.Machine) {
	m.TLB.SetTracer(nil)
	m.Cache.SetTracer(nil)
}

//vaxlint:allow hotpath -- cold: a Recorder is attached only in trace captures, never in measurement runs; events are bounded by MaxEvents
func (r *Recorder) add(e Event) {
	if r.MaxEvents > 0 && len(r.Trace.Events) >= r.MaxEvents {
		r.Truncated = true
		return
	}
	r.Trace.Events = append(r.Trace.Events, e)
}

// TBLookup implements tb.Tracer.
func (r *Recorder) TBLookup(va uint32, st tb.Stream) {
	r.add(Event{Kind: EvTBLookup, Stream: uint8(st), Addr: va})
}

// TBInsert implements tb.Tracer.
func (r *Recorder) TBInsert(va uint32) { r.add(Event{Kind: EvTBInsert, Addr: va}) }

// TBFlushProcess implements tb.Tracer.
func (r *Recorder) TBFlushProcess() { r.add(Event{Kind: EvTBFlushProcess}) }

// TBFlushAll implements tb.Tracer.
func (r *Recorder) TBFlushAll() { r.add(Event{Kind: EvTBFlushAll}) }

// TBInvalidate implements tb.Tracer.
func (r *Recorder) TBInvalidate(va uint32) { r.add(Event{Kind: EvTBInvalidate, Addr: va}) }

// CacheRead implements cache.Tracer.
func (r *Recorder) CacheRead(pa uint32, st cache.Stream) {
	r.add(Event{Kind: EvCacheRead, Stream: uint8(st), Addr: pa})
}

// CacheWrite implements cache.Tracer.
func (r *Recorder) CacheWrite(pa uint32) { r.add(Event{Kind: EvCacheWrite, Addr: pa}) }

// CacheFlush implements cache.Tracer.
func (r *Recorder) CacheFlush() { r.add(Event{Kind: EvCacheFlush}) }

// ---------------------------------------------------------------------------
// Replay.

// ReplayTB re-applies the recorded TB operations to a fresh translation
// buffer. Because insert and flush events are recorded explicitly, the
// replayed state transitions are identical to the live run's and the
// returned statistics must match it exactly.
func ReplayTB(t *Trace) tb.Stats {
	b := tb.New()
	for _, e := range t.Events {
		switch e.Kind {
		case EvTBLookup:
			b.Lookup(e.Addr, tb.Stream(e.Stream))
		case EvTBInsert:
			b.Insert(e.Addr, e.Addr>>9) // PFN is irrelevant to hit/miss behaviour
		case EvTBFlushProcess:
			b.FlushProcess()
		case EvTBFlushAll:
			b.FlushAll()
		case EvTBInvalidate:
			b.Invalidate(e.Addr)
		}
	}
	return b.Stats()
}

// ReplayTBNoFlush replays the TB trace with context-switch flushes
// suppressed — the tagged-TB policy question of §3.4 ("the context-switch
// figure is useful in setting the flush interval in ... translation buffer
// simulations"), answered by trace-driven simulation.
func ReplayTBNoFlush(t *Trace) tb.Stats {
	b := tb.New()
	for _, e := range t.Events {
		switch e.Kind {
		case EvTBLookup:
			if _, hit := b.Lookup(e.Addr, tb.Stream(e.Stream)); !hit {
				// Policy replay: a miss fills the entry (the microcode
				// would have walked the page table).
				b.Insert(e.Addr, e.Addr>>9)
			}
		case EvTBFlushProcess:
			// Suppressed: the hypothetical TB is address-space tagged.
		case EvTBFlushAll:
			b.FlushAll()
		case EvTBInvalidate:
			b.Invalidate(e.Addr)
		}
	}
	return b.Stats()
}

// ReplayCache re-applies the recorded cache references to a fresh cache of
// the given geometry. With the live geometry the statistics match the live
// run exactly; with other geometries this is the design-sweep simulator.
// An invalid geometry is reported as an error.
func ReplayCache(t *Trace, cfg cache.Config) (cache.Stats, error) {
	c, err := cache.New(cfg)
	if err != nil {
		return cache.Stats{}, err
	}
	for _, e := range t.Events {
		switch e.Kind {
		case EvCacheRead:
			c.Read(e.Addr, cache.Stream(e.Stream))
		case EvCacheWrite:
			c.Write(e.Addr)
		case EvCacheFlush:
			c.Flush()
		}
	}
	return c.Stats(), nil
}

// SweepPoint is one cache geometry's trace-driven result.
type SweepPoint struct {
	Config    cache.Config
	MissRatio float64 // combined read miss ratio
	IMiss     float64
	DMiss     float64
}

// SweepCache replays the trace through each geometry — the 1983 cache
// study's methodology applied to this trace. Invalid geometries are
// skipped (a sweep over a generated grid should not die on one bad point).
func SweepCache(t *Trace, cfgs []cache.Config) []SweepPoint {
	out := make([]SweepPoint, 0, len(cfgs))
	for _, cfg := range cfgs {
		st, err := ReplayCache(t, cfg)
		if err != nil {
			continue
		}
		total := st.Reads(cache.IStream) + st.Reads(cache.DStream)
		misses := st.ReadMisses[cache.IStream] + st.ReadMisses[cache.DStream]
		p := SweepPoint{Config: cfg}
		if total > 0 {
			p.MissRatio = float64(misses) / float64(total)
		}
		p.IMiss = st.MissRatio(cache.IStream)
		p.DMiss = st.MissRatio(cache.DStream)
		out = append(out, p)
	}
	return out
}

// ---------------------------------------------------------------------------
// TB geometry sweep: a standalone parameterized translation buffer (the
// live TB's 128-entry 2-way split geometry is fixed, as on the hardware),
// replayed with the fill-on-miss policy. This regenerates the design axes
// of Clark & Emer's TB study.

// TBGeometry parameterizes the simulated translation buffer.
type TBGeometry struct {
	SetsPerHalf int // sets in each of the process and system halves
	Ways        int
	SplitHalves bool // false: one unified array indexed ignoring space
	FlushOnCtx  bool // honor recorded process flushes
}

type simTBEntry struct {
	valid bool
	tag   uint32
	stamp uint64
}

// TBSweepPoint is one geometry's replayed miss behaviour.
type TBSweepPoint struct {
	Geometry  TBGeometry
	Lookups   uint64
	Misses    uint64
	MissRatio float64
}

// SimulateTB replays the trace's TB lookups through an LRU TB of the given
// geometry, filling on miss. An invalid geometry is reported as an error.
func SimulateTB(t *Trace, g TBGeometry) (TBSweepPoint, error) {
	if g.SetsPerHalf <= 0 || g.Ways <= 0 {
		return TBSweepPoint{}, fmt.Errorf("trace: bad TB geometry %+v", g)
	}
	halves := 2
	if !g.SplitHalves {
		halves = 1
	}
	sets := make([][]simTBEntry, halves*g.SetsPerHalf)
	for i := range sets {
		sets[i] = make([]simTBEntry, g.Ways)
	}
	var stamp uint64
	p := TBSweepPoint{Geometry: g}
	lookup := func(va uint32) {
		stamp++
		p.Lookups++
		vpn := va >> 9
		half := 0
		if g.SplitHalves && va&0x80000000 != 0 {
			half = 1
		}
		set := sets[half*g.SetsPerHalf+int(vpn)%g.SetsPerHalf]
		tag := vpn / uint32(g.SetsPerHalf)
		for w := range set {
			if set[w].valid && set[w].tag == tag {
				set[w].stamp = stamp
				return
			}
		}
		p.Misses++
		victim := 0
		for w := range set {
			if !set[w].valid {
				victim = w
				break
			}
			if set[w].stamp < set[victim].stamp {
				victim = w
			}
		}
		set[victim] = simTBEntry{valid: true, tag: tag, stamp: stamp}
	}
	flushProcess := func() {
		// With split halves only the process half (the first) is cleared;
		// a unified TB cannot distinguish and must flush everything.
		n := g.SetsPerHalf
		if !g.SplitHalves {
			n = len(sets)
		}
		for i := 0; i < n; i++ {
			for w := range sets[i] {
				sets[i][w] = simTBEntry{}
			}
		}
	}
	for _, e := range t.Events {
		switch e.Kind {
		case EvTBLookup:
			lookup(e.Addr)
		case EvTBFlushProcess:
			if g.FlushOnCtx {
				flushProcess()
			}
		case EvTBFlushAll:
			for i := range sets {
				for w := range sets[i] {
					sets[i][w] = simTBEntry{}
				}
			}
		}
	}
	if p.Lookups > 0 {
		p.MissRatio = float64(p.Misses) / float64(p.Lookups)
	}
	return p, nil
}

// SweepTB replays the trace through each geometry, skipping invalid ones.
func SweepTB(t *Trace, gs []TBGeometry) []TBSweepPoint {
	out := make([]TBSweepPoint, 0, len(gs))
	for _, g := range gs {
		p, err := SimulateTB(t, g)
		if err != nil {
			continue
		}
		out = append(out, p)
	}
	return out
}
