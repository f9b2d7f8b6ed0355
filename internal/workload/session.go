package workload

import (
	"vax780/internal/cpu"
)

// Session is a prepared-but-unstarted measurement run, exposed so the
// stepping benchmark (perfbench), vaxtrace's capture and the attribution
// and allocation tests can separate the expensive construction —
// generation, boot, monitor attachment — from the stepping loop they
// actually measure or trace.
// Run and RunInjected stay the one-call paths for real measurements.
type Session struct {
	s *session
}

// Prepare boots a measurement session for p with a collecting monitor
// attached, exactly as Run would, but returns before stepping a cycle.
func Prepare(p Profile, cycles uint64, mcfg cpu.Config) (*Session, error) {
	s, err := build(p, cycles, mcfg, nil)
	if err != nil {
		return nil, err
	}
	return &Session{s: s}, nil
}

// Machine exposes the booted machine for direct stepping.
func (s *Session) Machine() *cpu.Machine { return s.s.sys.Machine() }

// Run advances the session by at most cycles cycles under the system's
// scheduler (terminal events, console script) and reports why it stopped.
func (s *Session) Run(cycles uint64) cpu.RunResult {
	return s.s.sys.Run(cycles)
}

// Result assembles the measurement from the session's current state.
func (s *Session) Result() *Result { return s.s.result() }
