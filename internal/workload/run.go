package workload

import (
	"errors"
	"fmt"

	"vax780/internal/cache"
	"vax780/internal/core"
	"vax780/internal/cpu"
	"vax780/internal/fault"
	"vax780/internal/tb"
	"vax780/internal/vmos"
)

// ErrUnexpectedHalt reports a workload that executed a kernel HALT before
// its cycle budget ran out — a kernel fatal, not a measurement. Typed so
// callers across the workload boundary can route on it with errors.Is.
var ErrUnexpectedHalt = errors.New("workload halted unexpectedly")

// Result is one measurement session: the raw histogram plus the hardware
// counters the paper's companion studies supply (§4.1, §4.2).
type Result struct {
	Profile Profile
	Hist    *core.Histogram
	Cycles  uint64
	Counters
}

// Counters are the machine's own record of a run, read beside the
// histogram: the cache, IB and TB statistics of §4.1 and §4.2, the event
// counts of Table 7, the instructions retired and the fault plane's
// injection activity.
type Counters struct {
	Instructions uint64 // machine-level (includes the null process)
	Cache        cache.Stats
	IB           cpu.IBStats
	TB           tb.Stats
	HW           cpu.HWCounters
	Faults       fault.Stats // zero without a plane
}

// Add sums o into c, every field.
func (c *Counters) Add(o Counters) {
	c.Instructions += o.Instructions
	for i := range c.Cache.ReadHits {
		c.Cache.ReadHits[i] += o.Cache.ReadHits[i]
		c.Cache.ReadMisses[i] += o.Cache.ReadMisses[i]
		c.TB.Hits[i] += o.TB.Hits[i]
		c.TB.Misses[i] += o.TB.Misses[i]
	}
	c.Cache.WriteHits += o.Cache.WriteHits
	c.Cache.WriteMisses += o.Cache.WriteMisses
	c.Cache.Flushes += o.Cache.Flushes
	c.Cache.ParityErrors += o.Cache.ParityErrors
	c.IB.CacheRefs += o.IB.CacheRefs
	c.IB.BytesDelivered += o.IB.BytesDelivered
	c.IB.BytesConsumed += o.IB.BytesConsumed
	c.IB.Redirects += o.IB.Redirects
	c.IB.TBMisses += o.IB.TBMisses
	c.TB.ProcessFlushes += o.TB.ProcessFlushes
	c.TB.FullFlushes += o.TB.FullFlushes
	c.TB.ParityErrors += o.TB.ParityErrors
	c.HW.Unaligned += o.HW.Unaligned
	c.HW.SIRRRequests += o.HW.SIRRRequests
	c.HW.Interrupts += o.HW.Interrupts
	c.HW.Exceptions += o.HW.Exceptions
	c.HW.CtxSwitches += o.HW.CtxSwitches
	c.HW.MachineChecks += o.HW.MachineChecks
	c.HW.MachineChecksLost += o.HW.MachineChecksLost
	for i := range c.HW.MachineChecksByCause {
		c.HW.MachineChecksByCause[i] += o.HW.MachineChecksByCause[i]
	}
	for i := range c.Faults.Samples {
		c.Faults.Samples[i] += o.Faults.Samples[i]
		c.Faults.Injected[i] += o.Faults.Injected[i]
	}
}

// session is one prepared measurement run: a booted system with monitor
// and (optional) fault plane attached. Both the plain and the supervised
// run paths build one, and the resume path builds one and then overwrites
// its state from a snapshot.
type session struct {
	p      Profile
	cycles uint64 // total cycle budget
	sys    *vmos.System
	mon    *core.Monitor
	plane  *fault.Plane
}

// build boots a measurement session for one workload. The construction is
// deterministic in (p, cycles, mcfg): the resume path depends on two
// builds from the same inputs being identical before state import.
func build(p Profile, cycles uint64, mcfg cpu.Config, plane *fault.Plane) (*session, error) {
	sys := vmos.NewSystem(vmos.Config{
		Machine:     mcfg,
		IncludeNull: true,
	})
	mon := core.NewMonitor()
	mon.Start()
	sys.Machine().AttachProbe(mon)
	sys.Machine().AttachFaultPlane(plane)

	for i := 0; i < p.Procs; i++ {
		im, err := Generate(p.program(i))
		if err != nil {
			return nil, fmt.Errorf("workload %s: generate: %w", p.Name, err)
		}
		if _, err := sys.AddProcess(fmt.Sprintf("%s-%d", p.Name, i), im); err != nil {
			return nil, err
		}
	}
	if err := sys.Boot(); err != nil {
		return nil, fmt.Errorf("workload %s: boot: %w", p.Name, err)
	}
	sys.SetScriptText(p.Script)
	sys.QueueTerminalEvents(p.TerminalSchedule(cycles))
	return &session{p: p, cycles: cycles, sys: sys, mon: mon, plane: plane}, nil
}

// result assembles the measurement from the session's current state.
func (s *session) result() *Result {
	m := s.sys.Machine()
	return &Result{
		Profile: s.p,
		Hist:    s.mon.Snapshot(),
		Cycles:  m.Cycle(),
		Counters: Counters{
			Instructions: m.Instructions(),
			Cache:        m.Cache.Stats(),
			IB:           m.IBStats(),
			TB:           m.TLB.Stats(),
			HW:           m.HW(),
			Faults:       s.plane.Stats(),
		},
	}
}

// Run executes one workload for the given cycle budget under a collecting
// monitor and returns the measurement.
func Run(p Profile, cycles uint64, mcfg cpu.Config) (*Result, error) {
	return RunInjected(p, cycles, mcfg, nil)
}

// RunInjected is Run with a fault-injection plane attached to the machine
// (nil behaves exactly like Run). Injected runs exercise the machine-check
// path; their tables are NOT comparable with the paper's clean numbers.
func RunInjected(p Profile, cycles uint64, mcfg cpu.Config, plane *fault.Plane) (*Result, error) {
	s, err := build(p, cycles, mcfg, plane)
	if err != nil {
		return nil, err
	}
	res := s.sys.Run(cycles)
	if res.Err != nil {
		return nil, fmt.Errorf("workload %s: run: %w", p.Name, res.Err)
	}
	if res.Halted {
		return nil, fmt.Errorf("workload %s: %w (kernel fatal)", p.Name, ErrUnexpectedHalt)
	}
	return s.result(), nil
}

// Composite is the sum of the five workloads' histograms — the paper
// reports "the composite of all five, that is, the sum of the five UPC
// histograms" (§2.2).
type Composite struct {
	Runs []*Result
	Hist *core.Histogram
}

// RunComposite measures all five workloads for cyclesEach cycles each and
// sums their histograms.
func RunComposite(cyclesEach uint64, mcfg cpu.Config) (*Composite, error) {
	comp := &Composite{Hist: &core.Histogram{}}
	for _, p := range All() {
		r, err := Run(p, cyclesEach, mcfg)
		if err != nil {
			return nil, err
		}
		comp.Runs = append(comp.Runs, r)
		comp.Hist.Add(r.Hist)
	}
	return comp, nil
}

// HWTotals sums the hardware counters across the composite's runs.
func (c *Composite) HWTotals() (cache.Stats, cpu.IBStats, tb.Stats, cpu.HWCounters, uint64) {
	var sum Counters
	for _, r := range c.Runs {
		sum.Add(r.Counters)
	}
	return sum.Cache, sum.IB, sum.TB, sum.HW, sum.Instructions
}
