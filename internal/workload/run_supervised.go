package workload

import (
	"context"
	"errors"
	"fmt"

	"vax780/internal/checkpoint"
	"vax780/internal/cpu"
	"vax780/internal/fault"
)

// Run supervision: the paper's measurement sessions ran for about an hour
// attached to live machines (§2.2); at that scale the measurement
// infrastructure itself must survive interruption. A supervised run adds,
// on top of the plain Run loop:
//
//   - cooperative cancellation (context) checked at instruction
//     boundaries, so SIGINT/SIGTERM and deadlines stop the machine in a
//     checkpointable state;
//   - a periodic auto-checkpoint ticker writing atomic snapshot
//     generations (internal/checkpoint);
//   - a progress watchdog converting a wedged machine — no instruction
//     retired for a cycle budget — into a structured *cpu.MachineError
//     with the stuck µPC and a state dump, instead of an infinite spin.
//
// Resumed runs are bit-identical to uninterrupted ones (proved by
// TestCheckpointResumeDeterminism), so an interrupted measurement keeps
// its validity for paper-table comparisons.

// Supervisor defaults.
const (
	// DefaultCheckpointEvery is the auto-checkpoint period in cycles.
	DefaultCheckpointEvery = 1_000_000
	// DefaultWatchdogCycles is the progress watchdog budget. It must
	// comfortably exceed the longest legitimate instruction plus the
	// longest delivery sequence; the worst case in the model is a
	// maximum-length character-string instruction at tens of thousands
	// of cycles, so two million cycles of no retirement is a wedge.
	DefaultWatchdogCycles = 2_000_000
)

// ErrStopRequested is the cancellation cause of a run stopped by the
// supervisor's StopAt cycle mark.
var ErrStopRequested = errors.New("stop-at cycle reached")

// Supervisor configures a supervised run. The zero value supervises with
// defaults and no checkpointing. A wall-clock budget is the context's
// deadline.
type Supervisor struct {
	// CheckpointDir enables periodic checkpointing into the directory
	// (created if needed). Empty disables.
	CheckpointDir string
	// CheckpointEvery is the auto-checkpoint period in cycles
	// (DefaultCheckpointEvery when zero). The directory keeps the newest
	// checkpoint.DefaultKeep generations.
	CheckpointEvery uint64
	// Watchdog is the progress watchdog budget in cycles
	// (DefaultWatchdogCycles when zero).
	Watchdog uint64
	// StopAt, when nonzero and below the cycle budget, stops the run
	// (with a final checkpoint) once the machine reaches that cycle —
	// a deterministic interruption point for staged runs and tests.
	StopAt uint64
	// OnChunk, when set, is called after each executed run slice with
	// the machine's current cycle, before that slice's checkpoint is
	// written. It gives a supervision layer above this one
	// (internal/farm) a low-rate re-entry point into a running
	// instance: worker kill switches, health accounting. A panic out
	// of OnChunk unwinds through supervise without writing a final
	// checkpoint, so to everything downstream it is indistinguishable
	// from the worker dying at that cycle — exactly the semantics a
	// hard-death chaos test needs.
	OnChunk func(cycle uint64)
}

// Spec names a supervised run: which workload, for how long, with what
// fault injection (nil = clean), on the default machine.
type Spec struct {
	Profile Profile
	Cycles  uint64
	Fault   *fault.Config
}

// Interrupted reports a supervised run stopped before completing its
// cycle budget — by cancellation, deadline, or StopAt — after a final
// checkpoint when a checkpoint directory was configured, so the run can be
// resumed.
type Interrupted struct {
	Cause error  // context.Canceled, context.DeadlineExceeded, or ErrStopRequested
	Cycle uint64 // machine cycle at the stop
}

func (e *Interrupted) Error() string {
	return fmt.Sprintf("run interrupted at cycle %d: %v", e.Cycle, e.Cause)
}

func (e *Interrupted) Unwrap() error { return e.Cause }

// Failed reports a supervised run that stopped on a failure of the
// machine, the kernel or the checkpoint writer, at the machine cycle
// where it stopped. errors.Is and errors.As see through Failed to its
// Cause, such as ErrUnexpectedHalt or a *cpu.MachineError.
type Failed struct {
	Cause error
	Cycle uint64 // machine cycle at the failure
}

func (e *Failed) Error() string { return fmt.Sprintf("%v (at cycle %d)", e.Cause, e.Cycle) }

func (e *Failed) Unwrap() error { return e.Cause }

// RunSupervised executes one workload under the supervisor.
func RunSupervised(ctx context.Context, spec Spec, sup Supervisor) (*Result, error) {
	var plane *fault.Plane
	if spec.Fault != nil {
		plane = fault.NewPlane(*spec.Fault)
	}
	s, err := build(spec.Profile, spec.Cycles, cpu.Config{}, plane)
	if err != nil {
		return nil, err
	}
	return s.supervise(ctx, spec.Fault, sup)
}

// restore rebuilds a session from a snapshot: the same deterministic
// construction as a fresh run, then every piece of captured state
// imported over it.
func restore(snap *checkpoint.Snapshot) (*session, error) {
	p, ok := ByName(snap.Meta.Profile)
	if !ok {
		return nil, fmt.Errorf("workload: snapshot is of unknown workload %q", snap.Meta.Profile)
	}
	// Farm instances run the registry profile under a derived seed:
	// rebuilding with the registry's would resume a different program.
	p.Seed = snap.Meta.Seed
	var plane *fault.Plane
	if snap.Meta.Fault != nil {
		plane = fault.NewPlane(*snap.Meta.Fault)
	}
	s, err := build(p, snap.Meta.TotalCycles, snap.Meta.Machine, plane)
	if err != nil {
		return nil, err
	}
	if err := s.sys.Machine().ImportState(snap.CPU); err != nil {
		return nil, fmt.Errorf("workload %s: restoring machine: %w", p.Name, err)
	}
	if err := s.sys.ImportState(snap.OS); err != nil {
		return nil, fmt.Errorf("workload %s: restoring system: %w", p.Name, err)
	}
	s.mon.ImportState(snap.Monitor)
	s.plane.ImportState(snap.FaultState)
	return s, nil
}

// snapshot refills snap with the session's complete state. A supervised
// run keeps one snapshot for all its checkpoints, so the memory image and
// the histogram are copied into storage the previous checkpoint left.
func (s *session) snapshot(snap *checkpoint.Snapshot, fcfg *fault.Config) error {
	m := s.sys.Machine()
	if err := m.ExportStateInto(&snap.CPU); err != nil {
		return fmt.Errorf("workload %s: %w", s.p.Name, err)
	}
	osSt, err := s.sys.ExportState()
	if err != nil {
		return fmt.Errorf("workload %s: %w", s.p.Name, err)
	}
	snap.Meta = checkpoint.Meta{
		Profile:     s.p.Name,
		Seed:        s.p.Seed,
		TotalCycles: s.cycles,
		Cycle:       m.Cycle(),
		Machine:     m.Config(),
		Fault:       fcfg,
	}
	snap.OS = osSt
	s.mon.ExportStateInto(&snap.Monitor)
	snap.FaultState = s.plane.ExportState()
	return nil
}

// supervise is the supervised run loop: execute in slices bounded by the
// next checkpoint tick, checkpoint between slices, stop cleanly on
// cancellation (a context deadline included), StopAt, completion, or
// machine failure.
func (s *session) supervise(ctx context.Context, fcfg *fault.Config, sup Supervisor) (*Result, error) {
	m := s.sys.Machine()
	wd := sup.Watchdog
	if wd == 0 {
		wd = DefaultWatchdogCycles
	}
	m.SetWatchdog(wd)

	var (
		dir  *checkpoint.Dir
		snap *checkpoint.Snapshot // refilled at every checkpoint
	)
	if sup.CheckpointDir != "" {
		var err error
		dir, err = checkpoint.Open(sup.CheckpointDir, 0)
		if err != nil {
			return nil, err
		}
		snap = new(checkpoint.Snapshot)
	}
	every := sup.CheckpointEvery
	if every == 0 {
		every = DefaultCheckpointEvery
	}
	stopAt := s.cycles
	if sup.StopAt != 0 && sup.StopAt < stopAt {
		stopAt = sup.StopAt
	}

	writeCkpt := func() error {
		if dir == nil {
			return nil
		}
		if err := s.snapshot(snap, fcfg); err != nil {
			return err
		}
		_, err := dir.Save(snap)
		return err
	}

	for m.Cycle() < stopAt {
		chunk := stopAt - m.Cycle()
		// Chunk at checkpoint ticks when anything observes chunk
		// boundaries: the checkpoint writer, or a supervision layer's
		// OnChunk hook (which must fire at the same cadence whether or
		// not checkpoints are being written).
		if dir != nil || sup.OnChunk != nil {
			if nextTick := (m.Cycle()/every + 1) * every; nextTick < m.Cycle()+chunk {
				chunk = nextTick - m.Cycle()
			}
		}
		res := s.sys.RunCtx(ctx, chunk)
		if res.Err != nil {
			if errors.Is(res.Err, context.Canceled) || errors.Is(res.Err, context.DeadlineExceeded) {
				if err := writeCkpt(); err != nil {
					return nil, &Failed{Cause: fmt.Errorf("interrupted, and the final checkpoint failed: %w", err), Cycle: m.Cycle()}
				}
				return nil, &Interrupted{Cause: res.Err, Cycle: m.Cycle()}
			}
			return nil, &Failed{Cause: fmt.Errorf("workload %s: run: %w", s.p.Name, res.Err), Cycle: m.Cycle()}
		}
		if res.Halted {
			return nil, &Failed{Cause: fmt.Errorf("workload %s: %w (kernel fatal)", s.p.Name, ErrUnexpectedHalt), Cycle: m.Cycle()}
		}
		if sup.OnChunk != nil {
			sup.OnChunk(m.Cycle())
		}
		if err := writeCkpt(); err != nil {
			return nil, &Failed{Cause: err, Cycle: m.Cycle()}
		}
	}
	if stopAt < s.cycles {
		return nil, &Interrupted{Cause: ErrStopRequested, Cycle: m.Cycle()}
	}
	return s.result(), nil
}

// ResumeOrRun is the one resume rule: it continues the run checkpointed
// in sup.CheckpointDir from the newest loadable snapshot generation there
// (corrupt generations are skipped) when the directory holds one, and
// starts spec afresh otherwise, since a run with no generation yet had not
// started. A snapshot of a completed run reconstructs its Result without
// running. A resumed run is the snapshot's, whatever spec says.
func ResumeOrRun(ctx context.Context, spec Spec, sup Supervisor) (*Result, error) {
	if sup.CheckpointDir == "" {
		return RunSupervised(ctx, spec, sup)
	}
	d, err := checkpoint.Open(sup.CheckpointDir, 0)
	if err != nil {
		return nil, err
	}
	if gens, err := d.Generations(); err != nil {
		return nil, err
	} else if len(gens) == 0 {
		return RunSupervised(ctx, spec, sup)
	}
	snap, _, err := d.LoadLatest()
	if err != nil {
		return nil, err
	}
	s, err := restore(snap)
	if err != nil {
		return nil, err
	}
	if snap.Complete() {
		return s.result(), nil
	}
	return s.supervise(ctx, snap.Meta.Fault, sup)
}
