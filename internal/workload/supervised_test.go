package workload

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"vax780/internal/checkpoint"
	"vax780/internal/core"
	"vax780/internal/cpu"
	"vax780/internal/fault"
)

// histBytes encodes a histogram exactly as vaxsim writes it to disk, so
// equality is asserted at the byte level of the real data product — the
// determinism contract is "`cmp` passes on the .upc files", not
// "approximately equal tables".
func histBytes(t *testing.T, h *core.Histogram) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := h.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

// requireIdentical asserts the full determinism contract between an
// uninterrupted baseline and a run that must match it: a checkpoint-
// resumed run, or one with the decode memo bypassed.
func requireIdentical(t *testing.T, name string, base, resumed *Result) {
	t.Helper()
	if !bytes.Equal(histBytes(t, base.Hist), histBytes(t, resumed.Hist)) {
		t.Errorf("%s: histogram differs from the baseline run", name)
	}
	if base.Instructions != resumed.Instructions || base.Cycles != resumed.Cycles {
		t.Errorf("%s: instructions/cycles diverged: %d/%d vs %d/%d",
			name, base.Instructions, base.Cycles, resumed.Instructions, resumed.Cycles)
	}
	if !reflect.DeepEqual(base.Cache, resumed.Cache) {
		t.Errorf("%s: cache stats diverged:\n%+v\n%+v", name, base.Cache, resumed.Cache)
	}
	if !reflect.DeepEqual(base.IB, resumed.IB) {
		t.Errorf("%s: IB stats diverged:\n%+v\n%+v", name, base.IB, resumed.IB)
	}
	if !reflect.DeepEqual(base.TB, resumed.TB) {
		t.Errorf("%s: TB stats diverged:\n%+v\n%+v", name, base.TB, resumed.TB)
	}
	if !reflect.DeepEqual(base.HW, resumed.HW) {
		t.Errorf("%s: HW counters diverged:\n%+v\n%+v", name, base.HW, resumed.HW)
	}
	if base.Faults != resumed.Faults {
		t.Errorf("%s: fault plane stats diverged:\n%+v\n%+v", name, base.Faults, resumed.Faults)
	}
	baseRep := core.Reduce(base.Hist, cpu.CS)
	resRep := core.Reduce(resumed.Hist, cpu.CS)
	if baseRep.CPI() != resRep.CPI() {
		t.Errorf("%s: reduced CPI diverged: %v vs %v", name, baseRep.CPI(), resRep.CPI())
	}
}

// TestCheckpointResumeDeterminism is the tentpole's central guarantee,
// proved for every workload profile: a run stopped at a deterministic
// mid-point, checkpointed, and resumed in a fresh session produces a
// bit-identical histogram and identical counters versus a run that was
// never interrupted.
//
// Each profile runs twice: clean, and with the memory RDS fault point
// firing (subtest suffix +mem-rds). That point samples every functional
// PTE and byte read, so the second input proves that the fault schedule,
// and the machine checks it raises, depend on no state a snapshot drops,
// such as the functional path's translation memo. The machine checks and
// RDS samples are pinned: the translation and decode memos left them
// unchanged, and they count only references the machine made, not the OS
// model's or the console's observation of memory.
func TestCheckpointResumeDeterminism(t *testing.T) {
	const cycles = 280_000
	memRDS := &fault.Config{Seed: 11}
	memRDS.Sched[fault.MemRDS] = fault.Schedule{Rate: 2e-5, Every: 40_000}
	// Per profile: HW.MachineChecks and the plane's MemRDS samples.
	pins := map[string][2]uint64{
		"rte-commercial":       {37, 840559},
		"rte-educational":      {37, 866789},
		"rte-scientific":       {35, 835963},
		"timesharing-cpudev":   {37, 844658},
		"timesharing-research": {40, 923576},
	}
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			resumeIdentical(t, p, cycles, nil)
		})
		t.Run(p.Name+"+mem-rds", func(t *testing.T) {
			t.Parallel()
			base := resumeIdentical(t, p, cycles, memRDS)
			got := [2]uint64{base.HW.MachineChecks, base.Faults.Samples[fault.MemRDS]}
			if want, ok := pins[p.Name]; !ok || got != want {
				t.Errorf("%s: machine checks, RDS samples = %v, pinned %v", p.Name, got, want)
			}
		})
	}
}

// resumeIdentical runs p uninterrupted and as a checkpointed run stopped
// past its middle and resumed, under the fault config fcfg (nil: none),
// requires the two to be identical, and returns the uninterrupted result.
func resumeIdentical(t *testing.T, p Profile, cycles uint64, fcfg *fault.Config) *Result {
	t.Helper()
	var plane *fault.Plane
	if fcfg != nil {
		plane = fault.NewPlane(*fcfg)
	}
	base, err := RunInjected(p, cycles, cpu.Config{}, plane)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	dir := filepath.Join(t.TempDir(), "ck")
	sup := Supervisor{
		CheckpointDir:   dir,
		CheckpointEvery: cycles / 4,
		StopAt:          cycles/2 + 137,
	}
	spec := Spec{Profile: p, Cycles: cycles, Fault: fcfg}
	_, err = RunSupervised(context.Background(), spec, sup)
	var intr *Interrupted
	if !errors.As(err, &intr) {
		t.Fatalf("want *Interrupted at the stop mark, got %v", err)
	}
	if !errors.Is(err, ErrStopRequested) {
		t.Fatalf("interruption cause = %v, want ErrStopRequested", intr.Cause)
	}
	requireFinalCheckpoint(t, dir, intr.Cycle)

	resumed, err := ResumeOrRun(context.Background(), spec, Supervisor{CheckpointDir: dir})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	requireIdentical(t, p.Name, base, resumed)

	// The completed run left a final snapshot; resuming it again
	// reconstructs the same Result without re-running.
	requireFinalCheckpoint(t, dir, base.Cycles)
	again, err := ResumeOrRun(context.Background(), spec, Supervisor{CheckpointDir: dir})
	if err != nil {
		t.Fatalf("resume of completed run: %v", err)
	}
	requireIdentical(t, p.Name+"/completed", base, again)
	return base
}

// requireFinalCheckpoint requires the newest snapshot generation in dir to
// be of machine cycle cycle. ResumeOrRun starts afresh from a directory
// without one, and a fresh run is identical too, so a resume test that
// skipped this check would pass without its run being resumed.
func requireFinalCheckpoint(t *testing.T, dir string, cycle uint64) {
	t.Helper()
	d, err := checkpoint.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap, _, err := d.LoadLatest()
	if err != nil {
		t.Fatalf("no final checkpoint: %v", err)
	}
	if snap.Meta.Cycle != cycle {
		t.Fatalf("newest checkpoint is of cycle %d, want the final one at %d", snap.Meta.Cycle, cycle)
	}
}

// TestSnapshotSize: memory travels as its nonzero frames, so every
// profile's snapshot at 1M cycles encodes to under 1 MB, not the 8 MB of
// its memory array; and the interrupt queue travels without the requests
// already delivered, which would otherwise grow with the run. It also
// holds one session state to one byte string: the stopped session is
// snapshotted and encoded 19 more times, refilling the one snapshot as a
// supervised run does, and every encoding must equal the first, made
// from an empty snapshot. Exporting each time catches a state exporter
// whose output order varies (a map range), not only an encoder that
// does, and a refill that keeps anything of the snapshot it overwrites.
func TestSnapshotSize(t *testing.T) {
	const cycles, limit, encodings = 1_000_000, 1_000_000, 20
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			s, err := build(p, cycles, cpu.Config{}, nil)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if res := s.sys.Run(cycles); res.Err != nil || res.Halted {
				t.Fatalf("run: halted=%v err=%v", res.Halted, res.Err)
			}
			snap := new(checkpoint.Snapshot)
			encode := func() []byte {
				if err := s.snapshot(snap, nil); err != nil {
					t.Fatalf("snapshot: %v", err)
				}
				var buf bytes.Buffer
				if err := checkpoint.Encode(&buf, snap); err != nil {
					t.Fatalf("Encode: %v", err)
				}
				return buf.Bytes()
			}
			first := encode()
			if len(first) >= limit {
				t.Errorf("snapshot at cycle %d encodes to %d bytes with %d memory frames, want under %d",
					cycles, len(first), len(snap.CPU.Mem.Frames), limit)
			}
			if n := snap.CPU.NextIRQ; n != 0 {
				t.Errorf("snapshot at cycle %d holds %d delivered interrupt requests (of %d queued), want none",
					cycles, n, len(snap.CPU.IRQs))
			}
			differ := 0
			for i := 1; i < encodings; i++ {
				if b := encode(); !bytes.Equal(b, first) {
					differ++
				}
			}
			if differ > 0 {
				t.Errorf("%d of %d re-encodings of one session state differ from the first", differ, encodings-1)
			}
		})
	}
}

// TestCrashConsistencyKillAndResume simulates the crash the format is
// designed for: the process dies mid-write, leaving the newest generation
// truncated. The resume must reject it with the typed corruption error
// internally, fall back to the previous intact generation, and still
// produce results bit-identical to an uninterrupted run.
func TestCrashConsistencyKillAndResume(t *testing.T) {
	const cycles = 260_000
	p := TimesharingResearch

	base, err := Run(p, cycles, cpu.Config{})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	dir := filepath.Join(t.TempDir(), "ck")
	_, err = RunSupervised(context.Background(),
		Spec{Profile: p, Cycles: cycles},
		Supervisor{CheckpointDir: dir, CheckpointEvery: cycles / 5, StopAt: cycles / 2})
	var intr *Interrupted
	if !errors.As(err, &intr) {
		t.Fatalf("want *Interrupted, got %v", err)
	}

	d, err := checkpoint.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	gens, err := d.Generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) < 2 {
		t.Fatalf("need at least two generations to prove fallback, have %d", len(gens))
	}
	newest := gens[len(gens)-1]
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, raw[:len(raw)*2/3], 0o666); err != nil {
		t.Fatal(err)
	}

	// The damaged generation itself must fail with the typed error.
	f, err := os.Open(newest)
	if err != nil {
		t.Fatal(err)
	}
	_, derr := checkpoint.Decode(f)
	f.Close()
	if !errors.Is(derr, checkpoint.ErrCorrupt) {
		t.Fatalf("truncated snapshot: want ErrCorrupt, got %v", derr)
	}

	resumed, err := ResumeOrRun(context.Background(), Spec{Profile: p, Cycles: cycles}, Supervisor{CheckpointDir: dir})
	if err != nil {
		t.Fatalf("resume past corrupt generation: %v", err)
	}
	requireIdentical(t, p.Name, base, resumed)
}

// TestSupervisedDeadline: an effectively-zero wall-clock budget, the
// context's deadline, stops the run almost immediately with a final
// checkpoint and a typed interruption whose cause is the deadline.
func TestSupervisedDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	dir := filepath.Join(t.TempDir(), "ck")
	spec := Spec{Profile: RTECommercial, Cycles: 50_000_000}
	_, err := RunSupervised(ctx, spec, Supervisor{CheckpointDir: dir})
	var intr *Interrupted
	if !errors.As(err, &intr) {
		t.Fatalf("want *Interrupted from the deadline, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cause = %v, want context.DeadlineExceeded", intr.Cause)
	}
	requireFinalCheckpoint(t, dir, intr.Cycle)
	if _, err := ResumeOrRun(context.Background(), spec,
		Supervisor{CheckpointDir: dir, StopAt: intr.Cycle + 1}); err == nil {
		t.Fatal("expected the immediate re-stop to report *Interrupted")
	} else if !errors.As(err, &intr) {
		t.Fatalf("resume after deadline: %v", err)
	}
}

// TestSupervisedCancellation: cancelling the context stops the run with a
// final checkpoint, and the cancelled session's machine is left in a
// clean (checkpointable, resumable) state.
func TestSupervisedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first instruction
	dir := filepath.Join(t.TempDir(), "ck")
	spec := Spec{Profile: RTEScientific, Cycles: 300_000}
	_, err := RunSupervised(ctx, spec, Supervisor{CheckpointDir: dir})
	var intr *Interrupted
	if !errors.As(err, &intr) {
		t.Fatalf("want *Interrupted from cancellation, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cause = %v, want context.Canceled", intr.Cause)
	}
	requireFinalCheckpoint(t, dir, intr.Cycle)
	resumed, err := ResumeOrRun(context.Background(), spec, Supervisor{CheckpointDir: dir})
	if err != nil {
		t.Fatalf("resume after cancellation: %v", err)
	}
	base, err := Run(RTEScientific, 300_000, cpu.Config{})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	requireIdentical(t, "rte-scientific", base, resumed)
}

// TestResumeErrors: a checkpoint directory that holds generations none of
// which loads, such as pure damage, is a clean typed error, never a panic
// and never a silent fresh run.
func TestResumeErrors(t *testing.T) {
	spec := Spec{Profile: RTEScientific, Cycles: 300_000}
	junkDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(junkDir, "ckpt-00000000000000000001.vaxck"), []byte("junk"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeOrRun(context.Background(), spec, Supervisor{CheckpointDir: junkDir}); !errors.Is(err, checkpoint.ErrNoSnapshot) {
		t.Errorf("junk dir: want ErrNoSnapshot, got %v", err)
	}
}

// TestTypedErrors: each failure class this package promises its callers
// reaches them as a value errors.Is or errors.As can match, through every
// wrap on the way out; cmd/vaxsim and internal/farm route on them.
func TestTypedErrors(t *testing.T) {
	// A control-store parity storm blows the kernel's machine-check
	// budget: the first profile's kernel halts well inside the budget.
	storm := fault.Config{Seed: 3}
	storm.Sched[fault.CSParity] = fault.Schedule{Every: 25}
	p := All()[0]
	const cycles = 2_000_000
	is := func(target error) func(error) bool {
		return func(err error) bool { return errors.Is(err, target) }
	}
	for _, c := range []struct {
		name  string
		run   func() error
		match func(error) bool
		want  string
	}{
		{"Generate/zero-mix", func() error {
			_, err := Generate(GenConfig{})
			return err
		}, is(ErrBadMix), "ErrBadMix"},
		{"RunInjected/cs-parity-storm", func() error {
			_, err := RunInjected(p, cycles, cpu.Config{}, fault.NewPlane(storm))
			return err
		}, is(ErrUnexpectedHalt), "ErrUnexpectedHalt"},
		{"RunSupervised/cs-parity-storm", func() error {
			_, err := RunSupervised(context.Background(), Spec{Profile: p, Cycles: cycles, Fault: &storm}, Supervisor{})
			return err
		}, is(ErrUnexpectedHalt), "ErrUnexpectedHalt"},
		{"RunSupervised/watchdog", func() error {
			_, err := RunSupervised(context.Background(), Spec{Profile: p, Cycles: cycles}, Supervisor{Watchdog: 20})
			return err
		}, func(err error) bool {
			var me *cpu.MachineError
			return errors.As(err, &me)
		}, "*cpu.MachineError"},
		// The farm's ledger takes a failed instance's cycle from here.
		{"RunSupervised/failure-cycle", func() error {
			_, err := RunSupervised(context.Background(), Spec{Profile: p, Cycles: cycles, Fault: &storm}, Supervisor{})
			return err
		}, func(err error) bool {
			var f *Failed
			return errors.As(err, &f) && f.Cycle > 0
		}, "*Failed with the cycle of the halt"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := c.run(); !c.match(err) {
				t.Errorf("got %v, want an error matching %s", err, c.want)
			}
		})
	}
}
