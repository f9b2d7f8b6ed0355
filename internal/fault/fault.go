// Package fault is the simulator's deterministic fault-injection plane.
//
// The real VAX-11/780 reported cache parity errors, translation-buffer
// parity errors, SBI faults and memory RDS (Read Data Substitute) errors
// through the machine-check mechanism; VMS logged them, retried the
// operation, or crashed deliberately when the error rate exceeded its
// tolerance. To prove the reproduction survives the same weather, this
// package provides named injection points threaded through the memory
// subsystem and CPU, each driven by its own deterministic pseudo-random
// stream so a given seed reproduces a fault schedule exactly — and a nil
// or zero-rate plane perturbs nothing, keeping baseline measurements
// bit-identical.
//
// Each injection point samples independently: per-point splitmix64
// streams mean enabling one point never shifts another point's schedule.
package fault

import (
	"fmt"
	"strconv"
	"strings"
)

// Point names one fault-injection site.
type Point int

// Injection points. Each maps to a distinct real-780 error source; the
// CPU converts a fired point into the matching machine-check cause (see
// DESIGN.md "Fault model & machine checks").
const (
	MemRDS      Point = iota // memory array uncorrectable error (RDS)
	CacheParity              // cache data/tag store parity error
	TBParity                 // translation-buffer parity error
	SBITimeout               // SBI transaction timeout / fault
	CSParity                 // microcode control-store parity error
	NumPoints
)

var pointNames = [NumPoints]string{"mem", "cache", "tb", "sbi", "cs"}

func (p Point) String() string {
	if p >= 0 && int(p) < len(pointNames) {
		return pointNames[p]
	}
	return fmt.Sprintf("fault.Point(%d)", int(p))
}

// PointByName resolves a spec key to an injection point.
func PointByName(name string) (Point, bool) {
	for i, n := range pointNames {
		if n == name {
			return Point(i), true
		}
	}
	return 0, false
}

// Schedule sets how often one point fires. Rate and Every compose: the
// point fires when either schedule says so.
type Schedule struct {
	// Rate is the per-reference firing probability (0 disables).
	Rate float64
	// Every fires on every Nth sample of the point (0 disables). Unlike
	// Rate it guarantees the point is exercised on long runs.
	Every uint64
}

func (s Schedule) enabled() bool { return s.Rate > 0 || s.Every > 0 }

// Config seeds a plane.
type Config struct {
	Seed  uint64
	Sched [NumPoints]Schedule
}

// Stats counts sampling activity per point.
type Stats struct {
	Samples  [NumPoints]uint64 // times the point was consulted
	Injected [NumPoints]uint64 // times it fired
}

// Plane is a deterministic fault scheduler. It is not safe for concurrent
// use; like the Machine it instruments, one Plane belongs to one
// simulation goroutine.
type Plane struct {
	sched   [NumPoints]Schedule
	streams [NumPoints]uint64 // per-point splitmix64 states
	stats   Stats
}

// NewPlane builds a plane from a config. A nil *Plane is valid everywhere
// a plane is accepted and injects nothing.
func NewPlane(cfg Config) *Plane {
	p := &Plane{sched: cfg.Sched}
	for i := range p.streams {
		// Decorrelate the per-point streams from one seed.
		p.streams[i] = splitmix64(cfg.Seed + 0x9E3779B97F4A7C15*uint64(i+1))
	}
	return p
}

// Sample consults one injection point and reports whether a fault fires
// on this reference. Safe on a nil plane (never fires).
func (p *Plane) Sample(pt Point) bool {
	if p == nil {
		return false
	}
	s := p.sched[pt]
	if !s.enabled() {
		return false
	}
	p.stats.Samples[pt]++
	fire := false
	if s.Every > 0 && p.stats.Samples[pt]%s.Every == 0 {
		fire = true
	}
	if !fire && s.Rate > 0 {
		p.streams[pt] = splitmix64(p.streams[pt])
		// Map the top 53 bits to [0,1).
		u := float64(p.streams[pt]>>11) / (1 << 53)
		fire = u < s.Rate
	}
	if fire {
		p.stats.Injected[pt]++
	}
	return fire
}

// Sampler returns a bound sampler for one point, for wiring into a
// subsystem that should not know about the whole plane. It returns nil,
// which subsystems treat as "no injection", on a nil plane and for a
// point with no schedule: such a point never fires and counts nothing,
// so leaving it unwired is equivalent and keeps the subsystem's
// unsampled fast paths.
func (p *Plane) Sampler(pt Point) func() bool {
	if p == nil || !p.sched[pt].enabled() {
		return nil
	}
	return func() bool { return p.Sample(pt) }
}

// Stats returns cumulative sampling statistics (zero for a nil plane).
func (p *Plane) Stats() Stats {
	if p == nil {
		return Stats{}
	}
	return p.stats
}

// splitmix64 is the SplitMix64 output function: a bijective mixer whose
// iterated application passes BigCrush; ideal here because each call is a
// few arithmetic ops and the state is one word per point.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// ParseSpec parses a vaxsim-style injection spec:
//
//	seed=7,mem=1e-5,cache=2e-5,tb=1e-5,sbi=1/50000,cs=1/200000
//
// Keys are injection point names (mem, cache, tb, sbi, cs) plus "seed".
// A point's value is either a probability (float in [0,1]) or "1/N" to
// fire on every Nth reference.
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	if strings.TrimSpace(spec) == "" {
		return cfg, fmt.Errorf("fault: empty injection spec")
	}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return cfg, fmt.Errorf("fault: bad spec field %q (want key=value)", field)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		if k == "seed" {
			seed, err := strconv.ParseUint(v, 0, 64)
			if err != nil {
				return cfg, fmt.Errorf("fault: bad seed %q: %w", v, err)
			}
			cfg.Seed = seed
			continue
		}
		pt, ok := PointByName(k)
		if !ok {
			return cfg, fmt.Errorf("fault: unknown injection point %q (have mem, cache, tb, sbi, cs)", k)
		}
		if num, ok := strings.CutPrefix(v, "1/"); ok {
			every, err := strconv.ParseUint(num, 10, 64)
			if err != nil || every == 0 {
				return cfg, fmt.Errorf("fault: bad interval %q for %s (want 1/N)", v, k)
			}
			cfg.Sched[pt].Every = every
			continue
		}
		rate, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return cfg, fmt.Errorf("fault: bad rate %q for %s: %w", v, k, err)
		}
		// Written so that NaN, which compares false with everything, fails.
		if !(rate >= 0 && rate <= 1) {
			return cfg, fmt.Errorf("fault: rate %v for %s outside [0,1]", rate, k)
		}
		cfg.Sched[pt].Rate = rate
	}
	return cfg, nil
}
