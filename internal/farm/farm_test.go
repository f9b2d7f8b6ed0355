package farm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"vax780/internal/core"
	"vax780/internal/cpu"
	"vax780/internal/fault"
	"vax780/internal/workload"
)

// Small-but-real farm geometry for tests: enough instances to spread
// across profiles and workers, enough chunks per instance for kills to
// land mid-run.
const (
	testInstances = 6
	testCycles    = 400_000
	testEvery     = 50_000
)

func testConfig(t *testing.T, workers int) Config {
	t.Helper()
	return Config{
		Instances:       testInstances,
		Workers:         workers,
		Cycles:          testCycles,
		CheckpointEvery: testEvery,
		Root:            t.TempDir(),
		BackoffBase:     time.Millisecond,
	}
}

func histBytes(t *testing.T, h *core.Histogram) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := h.Save(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func runFarm(t *testing.T, cfg Config) *Result {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(context.Background())
	if err != nil {
		t.Fatalf("farm run: %v", err)
	}
	return res
}

// expectHists computes the ground truth the farm must reproduce: each
// instance run alone on a single machine through the plain (unsupervised)
// path, summed per profile in instance order.
func expectHists(t *testing.T, cfg Config) []*core.Histogram {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sums := make([]*core.Histogram, len(f.profiles))
	for i := range sums {
		sums[i] = &core.Histogram{}
	}
	for _, inst := range f.insts {
		var plane *fault.Plane
		if inst.fcfg != nil {
			plane = fault.NewPlane(*inst.fcfg)
		}
		r, err := workload.RunInjected(inst.prof, inst.cycles, cpu.Config{}, plane)
		if err != nil {
			t.Fatalf("ground-truth run of instance %d: %v", inst.id, err)
		}
		sums[inst.profIdx].Add(r.Hist)
	}
	return sums
}

func assertMergeEquals(t *testing.T, res *Result, want []*core.Histogram) {
	t.Helper()
	merged := &core.Histogram{}
	for pi, sum := range want {
		if got, exp := histBytes(t, res.ByProfile[pi].Hist), histBytes(t, sum); !bytes.Equal(got, exp) {
			t.Errorf("profile %s: farm histogram differs from ground truth", res.ByProfile[pi].Name)
		}
		merged.Add(sum)
	}
	if !bytes.Equal(histBytes(t, res.Merged), histBytes(t, merged)) {
		t.Error("merged composite differs from ground truth")
	}
}

// TestFarmCleanSweep: with nothing going wrong, the farm's per-profile
// and composite histograms are bit-identical to running every instance
// alone on a single machine.
func TestFarmCleanSweep(t *testing.T) {
	defer checkGoroutineLeak(t)()
	cfg := testConfig(t, 3)
	res := runFarm(t, cfg)
	if res.Completed != testInstances || res.Shed+res.Paused+res.Rescued != 0 {
		t.Fatalf("clean sweep ledger: %+v", res.Ledger)
	}
	assertMergeEquals(t, res, expectHists(t, cfg))
}

// TestFarmInMemory: without a Root nothing touches the disk, and the
// merge must still equal ground truth. Two workers over twenty instances
// complete many times while the other is mid-attempt, with no file I/O
// to order them by accident: the shape in which the race detector, with
// room for a whole histogram sweep in its history (`make farmsoak`),
// sees a coordinator that reads a worker's local store before the pool
// drains.
func TestFarmInMemory(t *testing.T) {
	defer checkGoroutineLeak(t)()
	cfg := testConfig(t, 2)
	cfg.Root = ""
	cfg.Instances = 20
	res := runFarm(t, cfg)
	if res.Completed != cfg.Instances || res.Shed+res.Paused+res.Rescued != 0 {
		t.Fatalf("in-memory sweep ledger: %+v", res.Ledger)
	}
	assertMergeEquals(t, res, expectHists(t, cfg))
}

// TestFarmWorkerCountInvariance: the merge is independent of how the
// instances were sharded — one worker and four workers produce
// bit-identical results.
func TestFarmWorkerCountInvariance(t *testing.T) {
	defer checkGoroutineLeak(t)()
	one := runFarm(t, testConfig(t, 1))
	four := runFarm(t, testConfig(t, 4))
	if !bytes.Equal(histBytes(t, one.Merged), histBytes(t, four.Merged)) {
		t.Error("merged composite depends on worker count")
	}
	for pi := range one.ByProfile {
		if !bytes.Equal(histBytes(t, one.ByProfile[pi].Hist), histBytes(t, four.ByProfile[pi].Hist)) {
			t.Errorf("profile %s depends on worker count", one.ByProfile[pi].Name)
		}
	}
}

// TestFarmChaosRescue is the PR's oracle: workers killed mid-sweep while
// the fault plane injects in-machine chaos, and the merged histograms —
// composite and per profile — are still bit-identical to the unperturbed
// same-seed run. Rescue must not perturb results.
func TestFarmChaosRescue(t *testing.T) {
	defer checkGoroutineLeak(t)()
	var sched [fault.NumPoints]fault.Schedule
	sched[fault.CacheParity] = fault.Schedule{Every: 120_000}
	sched[fault.TBParity] = fault.Schedule{Every: 170_000}
	fcfg := &fault.Config{Seed: 7, Sched: sched}

	clean := testConfig(t, 3)
	clean.Fault = fcfg
	cleanRes := runFarm(t, clean)
	if cleanRes.Completed != testInstances {
		t.Fatalf("unperturbed chaos-plane run did not complete: %+v", cleanRes.Ledger)
	}

	chaos := testConfig(t, 3)
	chaos.Fault = fcfg
	chaos.Kills = []Kill{{Worker: 0, AfterChunks: 3}, {Worker: 2, AfterChunks: 7}}
	f, err := New(chaos)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(context.Background())
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if res.Completed != testInstances {
		t.Fatalf("chaos run shed or paused instances: %+v", res.Ledger)
	}
	if res.Lost != 2 {
		t.Errorf("workers lost = %d, want 2", res.Lost)
	}
	if res.Rescued == 0 {
		t.Error("no instance was rescued; the kills missed every in-flight run")
	}
	for _, o := range res.Ledger {
		if o.Status == StatusRescued && o.Rescues == 0 && o.Attempts <= 1 {
			t.Errorf("instance %d marked rescued without a rescue or retry", o.ID)
		}
	}

	if !bytes.Equal(histBytes(t, res.Merged), histBytes(t, cleanRes.Merged)) {
		t.Error("chaos-run composite differs from unperturbed same-seed run")
	}
	for pi := range res.ByProfile {
		if !bytes.Equal(histBytes(t, res.ByProfile[pi].Hist), histBytes(t, cleanRes.ByProfile[pi].Hist)) {
			t.Errorf("chaos-run profile %s differs from unperturbed same-seed run", res.ByProfile[pi].Name)
		}
	}
}

// TestFarmPoolExhaustion: killing every worker sheds the remaining
// instances into the ledger — with causes — and reports the typed
// *PoolExhausted, instead of hanging or merging partial counts.
func TestFarmPoolExhaustion(t *testing.T) {
	defer checkGoroutineLeak(t)()
	cfg := testConfig(t, 2)
	cfg.Kills = []Kill{{Worker: 0, AfterChunks: 2}, {Worker: 1, AfterChunks: 3}}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(context.Background())
	var pe *PoolExhausted
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PoolExhausted", err)
	}
	if res == nil || res.Shed == 0 || res.Shed != pe.Shed {
		t.Fatalf("result after exhaustion: %+v (err %v)", res, err)
	}
	for _, o := range res.Ledger {
		if o.Status == StatusShed && o.Cause == "" {
			t.Errorf("shed instance %d has no cause", o.ID)
		}
	}
}

// TestFarmPauseResume: cancelling a farm mid-sweep pauses every live
// instance behind a checkpoint and a typed *Interrupted; resuming from
// the root completes the sweep with results bit-identical to an
// undisturbed farm.
func TestFarmPauseResume(t *testing.T) {
	defer checkGoroutineLeak(t)()
	cfg := testConfig(t, 2)

	undisturbed := cfg
	undisturbed.Root = t.TempDir()
	want := runFarm(t, undisturbed)

	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		// Cancel once the first instance has completed: the sweep then has
		// results on disk, attempts in flight and instances queued, on a
		// host of any speed. The equality below must hold wherever the
		// cancel lands.
		for ctx.Err() == nil {
			if done, _ := filepath.Glob(filepath.Join(cfg.Root, "inst-*", "result.upc")); len(done) > 0 {
				cancel()
			}
			time.Sleep(time.Millisecond)
		}
	}()
	res, err := f.Run(ctx)
	var intr *Interrupted
	if err == nil {
		// The sweep beat the cancel; nothing was paused. Still a valid
		// (if less interesting) pass of the equality check.
		t.Log("farm completed before the cancel landed")
	} else if !errors.As(err, &intr) {
		t.Fatalf("err = %v, want *Interrupted", err)
	} else if res.Paused == 0 {
		t.Fatalf("interrupted with nothing paused: %+v", res.Ledger)
	}

	resumed, err := Resume(cfg.Root)
	if err != nil {
		t.Fatal(err)
	}
	final, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if final.Completed != testInstances {
		t.Fatalf("resumed farm did not complete: %+v", final.Ledger)
	}
	if !bytes.Equal(histBytes(t, final.Merged), histBytes(t, want.Merged)) {
		t.Error("resumed farm composite differs from undisturbed farm")
	}
}

// TestFarmPauseInFlight: cancelling a farm while an attempt is in flight
// pauses that instance behind its final checkpoint, and every ledger row
// of an interrupted farm is terminal. One worker runs one instance far
// longer than the test, and the cancel lands when its first checkpoint
// generation appears, so the attempt is always in flight when it does.
func TestFarmPauseInFlight(t *testing.T) {
	defer checkGoroutineLeak(t)()
	cfg := testConfig(t, 1)
	cfg.Instances = 1
	cfg.Cycles = 100_000_000
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for ctx.Err() == nil {
			if gens, _ := filepath.Glob(filepath.Join(cfg.Root, "inst-*", "*.vaxck")); len(gens) > 0 {
				cancel()
			}
			time.Sleep(time.Millisecond)
		}
	}()
	res, err := f.Run(ctx)
	var intr *Interrupted
	if !errors.As(err, &intr) {
		t.Fatalf("err = %v, want *Interrupted", err)
	}
	if res.Paused != 1 || intr.Paused != 1 {
		t.Errorf("paused %d (error says %d), want 1: %+v", res.Paused, intr.Paused, res.Ledger)
	}
	for _, o := range res.Ledger {
		if !o.Status.Terminal() {
			t.Errorf("instance %d left %s after the farm returned", o.ID, o.Status)
		}
	}
}

// TestStatusNames: every status below NumStatuses has a name of its own.
// A status added without its String arm falls back to the numbered
// "Status(n)" text and fails here.
func TestStatusNames(t *testing.T) {
	seen := map[string]bool{}
	for s := Status(0); s < NumStatuses; s++ {
		if name := s.String(); name == fmt.Sprintf("Status(%d)", uint8(s)) || seen[name] {
			t.Errorf("status %d: name %q is the fallback or already taken", s, name)
		} else {
			seen[name] = true
		}
	}
}

// TestFarmRetryAndShed: a deterministically failing instance (control-
// store parity storm blowing the kernel's machine-check budget) is
// retried up to its allowance with backoff, then shed with a cause —
// while healthy instances complete untouched.
func TestFarmRetryAndShed(t *testing.T) {
	defer checkGoroutineLeak(t)()
	var sched [fault.NumPoints]fault.Schedule
	sched[fault.CSParity] = fault.Schedule{Every: 25}
	cfg := testConfig(t, 2)
	cfg.Instances = 2
	cfg.Fault = &fault.Config{Seed: 3, Sched: sched}
	cfg.Retries = 1
	// Room for every attempt of both instances: with the default budget
	// (one failure per instance), whichever instance fails last can be
	// shed by the budget before its retry, depending on worker timing.
	cfg.FailureBudget = cfg.Instances * (cfg.Retries + 1)

	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(context.Background())
	if err != nil {
		t.Fatalf("farm run: %v", err)
	}
	if res.Shed == 0 {
		t.Skip("CS parity storm did not kill the kernel at this geometry")
	}
	for _, o := range res.Ledger {
		if o.Status != StatusShed {
			continue
		}
		if o.Attempts != cfg.Retries+1 {
			t.Errorf("instance %d shed after %d attempts, want %d", o.ID, o.Attempts, cfg.Retries+1)
		}
		if o.Cause == "" {
			t.Errorf("instance %d shed without a cause", o.ID)
		}
	}
}
