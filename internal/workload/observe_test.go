package workload

import (
	"fmt"
	"io"
	"testing"

	"vax780/internal/console"
	"vax780/internal/cpu"
	"vax780/internal/fault"
)

// TestObservationTakesNoRDSSample: the OS model's device hook reads the
// kernel's disk-request counter after every instruction, its counters
// read kernel memory on demand, and the console examines memory. None of
// these is a reference the CPU made, so none may sample the RDS injector:
// an injection there would become a machine check for an address the
// program never touched. Stepping a profile under an RDS plane, no sample
// may be taken inside the per-instruction hook, and reading the counters
// or examining and disassembling memory at the console takes none.
func TestObservationTakesNoRDSSample(t *testing.T) {
	const cycles = 300_000
	cfg := fault.Config{Seed: 11}
	cfg.Sched[fault.MemRDS] = fault.Schedule{Every: 9973}
	plane := fault.NewPlane(cfg)
	s, err := build(TimesharingResearch, cycles, cpu.Config{}, plane)
	if err != nil {
		t.Fatal(err)
	}
	m := s.sys.Machine()
	sample := plane.Sampler(fault.MemRDS)
	inHook, hooked := 0, false
	m.Mem.SetInjector(func() bool {
		if hooked {
			inHook++
		}
		return sample()
	})
	hook := m.OnInstruction
	calls := 0
	m.OnInstruction = func(m *cpu.Machine) {
		hooked = true
		hook(m)
		hooked = false
		calls++
	}
	if res := s.sys.Run(cycles); res.Err != nil || res.Halted {
		t.Fatalf("run: halted=%v err=%v", res.Halted, res.Err)
	}
	samples := func() uint64 { return plane.Stats().Samples[fault.MemRDS] }
	if calls == 0 || samples() == 0 || plane.Stats().Injected[fault.MemRDS] == 0 {
		t.Fatalf("the run exercised nothing: %d hook calls, %d RDS samples, %d injected",
			calls, samples(), plane.Stats().Injected[fault.MemRDS])
	}
	if inHook != 0 {
		t.Errorf("the per-instruction hook took %d of %d RDS samples over %d instructions", inHook, samples(), calls)
	}

	before := samples()
	sys := s.sys
	_ = []uint32{sys.Ticks(), sys.MachineChecks(), sys.DiskRequests(), sys.DiskCompleted(),
		sys.TermEvents(), sys.MachineCheckCause(cpu.MCMemRDS)}
	c := console.New(m, nil, io.Discard)
	c.Exec(fmt.Sprintf("e %x 8", m.PCVal()))
	c.Exec(fmt.Sprintf("d %x 4", m.PCVal()))
	if after := samples(); after != before {
		t.Errorf("the counters and the console took %d RDS samples", after-before)
	}
}
