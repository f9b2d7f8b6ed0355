package workload

import (
	"testing"

	"vax780/internal/cpu"
)

// TestDecodeMemoDifferential holds the decode memo's hit path to the
// byte-by-byte decode it stands in for. Each profile, and one under a
// string-heavy mix, runs twice for 1M cycles: once plainly, where the
// memo serves most instructions, and once with an RDS sampler that never
// fires, which makes every I-stream read a sampled reference and so
// bypasses the memo without changing what the machine does. Histograms
// and every hardware counter must agree: a hit path whose IB waits or
// consumed bytes differ from the decoder's fails here.
func TestDecodeMemoDifferential(t *testing.T) {
	const cycles = 1_000_000
	character := RTECommercial
	character.Name += "+character"
	character.Mix = Mix{String: 0.9, ALU: 0.05, Branchy: 0.05, Syscall: character.Mix.Syscall}
	for _, p := range append(All(), character) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			run := func(bypass bool) *Result {
				s, err := build(p, cycles, cpu.Config{}, nil)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				if bypass {
					s.sys.Machine().Mem.SetInjector(func() bool { return false })
				}
				if res := s.sys.Run(cycles); res.Err != nil || res.Halted {
					t.Fatalf("run (bypass=%v): halted=%v err=%v", bypass, res.Halted, res.Err)
				}
				return s.result()
			}
			requireIdentical(t, p.Name, run(true), run(false))
		})
	}
}
