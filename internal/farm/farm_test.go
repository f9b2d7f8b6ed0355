package farm

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"vax780/internal/checkpoint"
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
// sees a worker that writes a histogram it has already handed to the
// coordinator.
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

	// The equality below must hold wherever the cancel lands.
	res, err := runUntilFirstResult(t, cfg)
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

// runUntilFirstResult runs cfg's farm and cancels it once the first
// instance has completed: the sweep then has results on disk, attempts in
// flight and instances queued, on a host of any speed.
func runUntilFirstResult(t *testing.T, cfg Config) (*Result, error) {
	t.Helper()
	return runUntil(t, cfg, filepath.Join("inst-*", "result.upc"))
}

// runUntil runs cfg's farm and cancels it once a file matching pattern
// appears under its root.
func runUntil(t *testing.T, cfg Config, pattern string) (*Result, error) {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for ctx.Err() == nil {
			if done, _ := filepath.Glob(filepath.Join(cfg.Root, pattern)); len(done) > 0 {
				cancel()
			}
			time.Sleep(time.Millisecond)
		}
	}()
	return f.Run(ctx)
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
	res, err := runUntil(t, cfg, filepath.Join("inst-*", "*.vaxck"))
	var intr *Interrupted
	if !errors.As(err, &intr) {
		t.Fatalf("err = %v, want *Interrupted", err)
	}
	if res.Paused != 1 || intr.Paused != 1 {
		t.Errorf("paused %d (error says %d), want 1: %+v", res.Paused, intr.Paused, res.Ledger)
	}
	for _, o := range res.Ledger {
		if o.Status == StatusPending || o.Status == StatusRunning {
			t.Errorf("instance %d left %s after the farm returned", o.ID, o.Status)
		}
	}
}

// TestFarmResumeRefusesOtherFormat: a root whose checkpoints an earlier
// format wrote, here an interrupted instance's generations restamped as
// version 3 with their checksums mended, can never continue. Resume, and
// a new farm on the root, refuse it with checkpoint.ErrBadVersion before
// anything runs or is written, and the error says to start afresh rather
// than to resume.
func TestFarmResumeRefusesOtherFormat(t *testing.T) {
	defer checkGoroutineLeak(t)()
	cfg := testConfig(t, 1)
	cfg.Instances = 1
	cfg.Cycles = 100_000_000
	var intr *Interrupted
	if _, err := runUntil(t, cfg, filepath.Join("inst-*", "*.vaxck")); !errors.As(err, &intr) {
		t.Fatalf("err = %v, want *Interrupted", err)
	}
	gens, _ := filepath.Glob(filepath.Join(cfg.Root, "inst-*", "*.vaxck"))
	if len(gens) == 0 {
		t.Fatal("the interrupted farm left no checkpoint generation")
	}
	for _, g := range gens {
		data, err := os.ReadFile(g)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(data[8:], 3)
		sum := sha256.Sum256(data[:len(data)-sha256.Size])
		copy(data[len(data)-sha256.Size:], sum[:])
		if err := os.WriteFile(g, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := treeBytes(t, cfg.Root)

	refused := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, checkpoint.ErrBadVersion) || !strings.Contains(err.Error(), "afresh") || strings.Contains(err.Error(), "-resume") {
			t.Errorf("%s: %v; want ErrBadVersion, saying to start afresh and suggesting no resume", what, err)
		}
	}
	resumed, err := Resume(cfg.Root)
	if resumed != nil {
		t.Fatal("Resume of a version 3 root built a farm")
	}
	refused("Resume", err)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(context.Background())
	if res != nil {
		t.Fatalf("a new farm on a version 3 root ran: %+v", res.Ledger)
	}
	refused("a new farm", err)
	if after := treeBytes(t, cfg.Root); !reflect.DeepEqual(after, before) {
		t.Errorf("the refusals changed the root:\nbefore %v\nafter  %v", keys(before), keys(after))
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

// TestFarmShedOnFirstFailure: an attempt that fails is final. Under a
// control-store parity storm that blows some instances' kernel
// machine-check budget and not others', each failing instance is shed
// after exactly one attempt, with its error as the cause and, as its
// ledger cycle, the cycle where the same instance stops when run alone
// (not the last chunk boundary before it). The healthy instances beside
// them merge to ground truth. The simulator is deterministic, so a
// retry would only replay the failure.
func TestFarmShedOnFirstFailure(t *testing.T) {
	defer checkGoroutineLeak(t)()
	// Every 85th control-store sample fails parity: at this geometry
	// instances 0 and 5 halt, at cycles 48,877 and 149,063, and the other
	// four complete. A model change that moves every histogram may move
	// that split; the test then fails below and the schedule needs
	// choosing again.
	var sched [fault.NumPoints]fault.Schedule
	sched[fault.CSParity] = fault.Schedule{Every: 85}
	for _, root := range []bool{true, false} {
		t.Run(fmt.Sprintf("root=%v", root), func(t *testing.T) {
			cfg := testConfig(t, 2)
			if !root {
				cfg.Root = ""
			}
			cfg.Fault = &fault.Config{Seed: 3, Sched: sched}
			want, failed := aloneOutcomes(t, cfg)
			if len(failed) == 0 || len(failed) == cfg.Instances {
				t.Fatalf("%d of %d instances fail when run alone; the storm must fail some and not others",
					len(failed), cfg.Instances)
			}

			f, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := f.Run(context.Background())
			if err != nil {
				t.Fatalf("farm run: %v", err)
			}
			if res.Shed != len(failed) || res.Failures != len(failed) || res.Completed != cfg.Instances-len(failed) {
				t.Fatalf("%d shed, %d failures, %d completed; want %d, %d, %d: %+v",
					res.Shed, res.Failures, res.Completed, len(failed), len(failed), cfg.Instances-len(failed), res.Ledger)
			}
			for _, o := range res.Ledger {
				alone, fails := failed[o.ID]
				switch {
				case !fails:
					if o.Status != StatusCompleted || o.Attempts != 1 {
						t.Errorf("healthy instance %d: %+v", o.ID, o)
					}
				case o.Status != StatusShed || o.Attempts != 1:
					t.Errorf("instance %d: %s after %d attempts, want shed after 1", o.ID, o.Status, o.Attempts)
				case o.Cause != fmt.Sprintf("instance %d: %v", o.ID, alone):
					t.Errorf("instance %d shed with cause %q, want its error %q", o.ID, o.Cause, alone)
				case o.Cycle == 0 || o.Cycle != alone.Cycle:
					t.Errorf("instance %d shed at cycle %d, want %d, where it stops when run alone", o.ID, o.Cycle, alone.Cycle)
				}
			}
			assertMergeEquals(t, res, want)
		})
	}
}

// aloneOutcomes runs every instance of cfg alone: the per-profile sums of
// those that complete, through the plain path as expectHists does, and
// the failure of each of the others, with the cycle where it stops, from
// an unchunked supervised run.
func aloneOutcomes(t *testing.T, cfg Config) ([]*core.Histogram, map[int]*workload.Failed) {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sums := make([]*core.Histogram, len(f.profiles))
	for i := range sums {
		sums[i] = &core.Histogram{}
	}
	failures := map[int]*workload.Failed{}
	for _, inst := range f.insts {
		if r, err := workload.RunInjected(inst.prof, inst.cycles, cpu.Config{}, fault.NewPlane(*inst.fcfg)); err == nil {
			sums[inst.profIdx].Add(r.Hist)
			continue
		}
		_, err := workload.RunSupervised(context.Background(),
			workload.Spec{Profile: inst.prof, Cycles: inst.cycles, Fault: inst.fcfg}, workload.Supervisor{})
		var failed *workload.Failed
		if !errors.As(err, &failed) {
			t.Fatalf("instance %d fails alone on the plain path, but the supervised run gives %v", inst.id, err)
		}
		failures[inst.id] = failed
	}
	return sums, failures
}

// TestFarmHostErrorResume: a host I/O failure sheds its instance like
// any other failure, and a resumed farm re-runs it once the fault is
// mended. A directory where instance 1's result.upc goes makes the
// rename of its completed result fail; after the directory is removed,
// Resume completes that instance from its final checkpoint generation
// and the merge equals ground truth.
func TestFarmHostErrorResume(t *testing.T) {
	defer checkGoroutineLeak(t)()
	cfg := testConfig(t, 2)
	obstruction := filepath.Join(instanceDir(cfg.Root, 1), "result.upc")
	if err := os.MkdirAll(filepath.Join(obstruction, "keep"), 0o777); err != nil {
		t.Fatal(err)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(context.Background())
	if err != nil {
		t.Fatalf("farm run: %v", err)
	}
	if res.Shed != 1 || res.Completed != testInstances-1 {
		t.Fatalf("want instance 1 shed and the rest completed: %+v", res.Ledger)
	}
	if o := res.Ledger[1]; o.Status != StatusShed || o.Attempts != 1 ||
		!strings.Contains(o.Cause, "did not persist") || o.Cycle < testCycles {
		t.Errorf("instance 1: %+v, want shed after one attempt at its budget, its result not persisted", o)
	}

	if err := os.RemoveAll(obstruction); err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(cfg.Root)
	if err != nil {
		t.Fatal(err)
	}
	final, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if final.Completed != testInstances || final.Shed != 0 {
		t.Fatalf("resumed farm did not complete: %+v", final.Ledger)
	}
	assertMergeEquals(t, final, expectHists(t, cfg))
}

// oldManifest is a farm.json as farms wrote it while Config still had
// Machine, Watchdog, Retries, FailureBudget, BackoffBase, BackoffCap and
// Deadline. While Resume read Deadline from the manifest, its 1 ms
// interrupted every resumed run of this farm.
const oldManifest = `{
  "Instances": 3,
  "Workers": 2,
  "Cycles": 200000,
  "Profiles": [
    "timesharing-research",
    "timesharing-cpudev",
    "rte-educational",
    "rte-scientific",
    "rte-commercial"
  ],
  "Machine": {
    "MemBytes": 0,
    "SBI": {
      "ReadLatency": 0,
      "WriteOccupancy": 0
    },
    "Cache": {
      "SizeBytes": 0,
      "Ways": 0,
      "BlockBytes": 0
    },
    "DecodeOverlap": false,
    "NoCharWriteSpacing": false,
    "PatchEvery": 0,
    "WriteBufferDepth": 0,
    "NoTBFlushOnSwitch": false,
    "NoFPA": false,
    "FPASlowdown": 0
  },
  "Fault": null,
  "Root": "farm",
  "CheckpointEvery": 50000,
  "Watchdog": 0,
  "Retries": 2,
  "FailureBudget": 3,
  "BackoffBase": 50000000,
  "BackoffCap": 2000000000,
  "Deadline": 1000000,
  "Kills": null
}
`

// TestFarmResumeOldManifest: a root whose farm.json holds the deleted
// fields still resumes, into the farm it describes, and completes with
// the merge of ground truth: a wall-clock budget is the caller's context
// deadline, never the manifest's.
func TestFarmResumeOldManifest(t *testing.T) {
	defer checkGoroutineLeak(t)()
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, manifestName), []byte(oldManifest), 0o666); err != nil {
		t.Fatal(err)
	}
	f, err := Resume(root)
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Instances: 3, Workers: 2, Cycles: 200_000, CheckpointEvery: 50_000, Root: root}
	if !reflect.DeepEqual(f.cfg, want.normalized()) {
		t.Fatalf("resumed config %+v, want %+v", f.cfg, want.normalized())
	}
	res, err := f.Run(context.Background())
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if res.Completed != want.Instances {
		t.Fatalf("resumed farm did not complete: %+v", res.Ledger)
	}
	assertMergeEquals(t, res, expectHists(t, want))
}

// TestFarmRegistryComposite: with RegistrySeeds, five instances are the
// registry composite vaxrepro measures. Straight through, and cancelled
// after its first result and resumed from its root, with one worker and
// with two, the merge is byte-identical to workload.RunComposite's
// histogram, and each profile's histogram and counters equal that
// profile's own Run, the counters a resumed farm loads from result.json
// included.
func TestFarmRegistryComposite(t *testing.T) {
	defer checkGoroutineLeak(t)()
	comp, err := workload.RunComposite(testCycles, cpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		for _, interrupt := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d,interrupt=%v", workers, interrupt), func(t *testing.T) {
				cfg := testConfig(t, workers)
				cfg.Instances = len(comp.Runs)
				cfg.RegistrySeeds = true
				var res *Result
				if interrupt {
					res = interruptAndResume(t, cfg)
				} else {
					res = runFarm(t, cfg)
				}
				if !bytes.Equal(histBytes(t, res.Merged), histBytes(t, comp.Hist)) {
					t.Error("merged histogram differs from workload.RunComposite's")
				}
				for i, run := range comp.Runs {
					ps := res.ByProfile[i]
					if ps.Name != run.Profile.Name || !reflect.DeepEqual(ps.Hist, run.Hist) {
						t.Errorf("profile %d: %s's histogram differs from %s's own run", i, ps.Name, run.Profile.Name)
					}
					if !reflect.DeepEqual(ps.Counters, run.Counters) {
						t.Errorf("%s: farm counters differ from its own run:\n%+v\n%+v", run.Profile.Name, ps.Counters, run.Counters)
					}
				}
			})
		}
	}
}

// interruptAndResume runs cfg's farm until its first result, requires the
// typed interruption, and resumes the farm from its root. Every instance
// whose result was persisted before the resume must load it rather than
// run again. It returns the resumed run's result.
func interruptAndResume(t *testing.T, cfg Config) *Result {
	t.Helper()
	var intr *Interrupted
	if _, err := runUntilFirstResult(t, cfg); !errors.As(err, &intr) {
		t.Fatalf("err = %v, want *Interrupted", err)
	}
	persisted := map[int]bool{}
	for i := 0; i < cfg.Instances; i++ {
		if _, err := os.Stat(filepath.Join(instanceDir(cfg.Root, i), "result.upc")); err == nil {
			persisted[i] = true
		}
	}
	if len(persisted) == 0 || len(persisted) == cfg.Instances {
		t.Fatalf("%d of %d results persisted at the interruption; want some and not all", len(persisted), cfg.Instances)
	}
	f, err := Resume(cfg.Root)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(context.Background())
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if res.Completed != cfg.Instances {
		t.Fatalf("resumed farm did not complete: %+v", res.Ledger)
	}
	for _, o := range res.Ledger {
		if persisted[o.ID] != (o.Attempts == 0) {
			t.Errorf("instance %d (result persisted before the resume: %v) ran %d attempts on resume",
				o.ID, persisted[o.ID], o.Attempts)
		}
	}
	return res
}

// TestFarmRootInUse: a farm built by New refuses a root that holds an
// earlier run with *RootInUse, and writes nothing under it. This is the
// sequence in which a second vaxfarm run, with another instance count and
// budget, used to merge the first run's instances. A farm built by Resume
// then continues the earlier run to the merge of ground truth.
func TestFarmRootInUse(t *testing.T) {
	defer checkGoroutineLeak(t)()
	first := testConfig(t, 1)
	first.Instances = 2
	var intr *Interrupted
	if _, err := runUntilFirstResult(t, first); !errors.As(err, &intr) {
		t.Fatalf("err = %v, want *Interrupted", err)
	}
	before := treeBytes(t, first.Root)

	second := first
	second.Instances, second.Cycles = 4, testCycles/2
	f, err := New(second)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(context.Background())
	var inUse *RootInUse
	if !errors.As(err, &inUse) || inUse.Root != first.Root || res != nil {
		t.Fatalf("farm on a used root: result %+v, err %v; want no result and *RootInUse", res, err)
	}
	if after := treeBytes(t, first.Root); !reflect.DeepEqual(after, before) {
		t.Errorf("the refused farm changed the root:\nbefore %v\nafter  %v", keys(before), keys(after))
	}

	resumed, err := Resume(first.Root)
	if err != nil {
		t.Fatal(err)
	}
	final, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if final.Completed != first.Instances {
		t.Fatalf("resumed farm did not complete: %+v", final.Ledger)
	}
	assertMergeEquals(t, final, expectHists(t, first))
}

// treeBytes maps every file and directory under root to its contents
// ("" for a directory).
func treeBytes(t *testing.T, root string) map[string]string {
	t.Helper()
	tree := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			tree[path] = ""
			return err
		}
		data, err := os.ReadFile(path)
		tree[path] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func keys(m map[string]string) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// TestFarmResumeResultWithoutCounters: a result.json written before
// results carried counters re-runs its instance on resume, as a
// half-written result does, so the merge never takes zeros for the
// counters it lacks.
func TestFarmResumeResultWithoutCounters(t *testing.T) {
	defer checkGoroutineLeak(t)()
	cfg := testConfig(t, 1)
	cfg.Instances = 2
	want := runFarm(t, cfg)

	path := filepath.Join(instanceDir(cfg.Root, 0), "result.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var meta resultMeta
	if err := json.Unmarshal(data, &meta); err != nil || meta.Counters == nil {
		t.Fatalf("result.json %s: %v", data, err)
	}
	old := fmt.Sprintf(`{"Profile":%q,"Seed":%d,"Cycles":%d,"Instructions":%d}`+"\n",
		meta.Profile, meta.Seed, meta.Cycles, meta.Counters.Instructions)
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}

	f, err := Resume(cfg.Root)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(context.Background())
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if a0, a1 := res.Ledger[0].Attempts, res.Ledger[1].Attempts; a0 != 1 || a1 != 0 {
		t.Errorf("attempts on resume: %d and %d, want 1 (no counters: re-run) and 0 (loaded)", a0, a1)
	}
	if !reflect.DeepEqual(res.ByProfile, want.ByProfile) {
		t.Error("resumed per-profile sums differ from the first run's")
	}
}
