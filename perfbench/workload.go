package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"vax780/internal/core"
	"vax780/internal/cpu"
	"vax780/internal/experiments"
	"vax780/internal/farm"
	"vax780/internal/paper"
	"vax780/internal/workload"
)

// The three workloads. Each is a closed loop: one machine steps at a time
// until it reaches its cycle budget, so one goroutine is busy throughout.
const (
	wlPaper5    = "paper5"
	wlCharacter = "character"
	wlDurable   = "durable"
)

var workloadNames = []string{wlPaper5, wlCharacter, wlDurable}

// budget is every machine's cycle budget: vaxrepro's default run.
const budget = 8_000_000

// characterMix is the character workload's block mix: string work instead
// of the calibrated mix, keeping the profile's own system-call weight.
func characterMix(m workload.Mix) workload.Mix {
	return workload.Mix{String: 0.9, ALU: 0.05, Branchy: 0.05, Syscall: m.Syscall}
}

// profiles returns the five machine profiles a workload runs at a seed.
// paper5 and character shift every registry seed by seed×farm.SeedStride,
// so seed 0 is vaxrepro's run. durable takes the seeds the farm derives
// for instance i (registry seed + i×SeedStride) and ignores the argument.
func profiles(name string, seed int64) []workload.Profile {
	ps := workload.All()
	for i := range ps {
		switch name {
		case wlDurable:
			ps[i].Seed += int64(i) * farm.SeedStride
		case wlCharacter:
			ps[i].Mix = characterMix(ps[i].Mix)
			fallthrough
		default:
			ps[i].Seed += seed * farm.SeedStride
		}
	}
	return ps
}

// instance is one machine-instance run: the unit the benchmark counts as
// attempted and, when any check fails, as failed.
type instance struct {
	Profile string
	Seed    int64
	Hist    *core.Histogram
	Cycles  uint64
	Err     string // machine error, unexpected halt, shed or paused
}

// round is one timed pass over a workload's five machines.
type round struct {
	Insts     []instance
	Window    time.Duration
	Cycles    uint64 // simulated cycles stepped inside the window
	CPI       float64
	Checks    int      // paper5: shape checks run
	Off       []string // paper5: shape checks outside tolerance
	Completed int      // durable: farm outcomes
	Shed      int
}

// mcps is the round's simulated Mcycles per host wall second.
func (r *round) mcps() float64 { return float64(r.Cycles) / r.Window.Seconds() / 1e6 }

// tracer opens spans around the benchmark's calls into the modules when
// the traced pass sets it; a nil tracer just makes the call.
type tracer struct {
	sp     *spans
	parent int
	run    string
}

func (t *tracer) call(name string, f func()) {
	if t == nil {
		f()
		return
	}
	t.sp.do(t.parent, t.run, name, f)
}

// rig is a workload set up and ready to step: five booted sessions, or a
// farm whose instances are built inside its Run.
type rig struct {
	name     string
	seed     int64
	profs    []workload.Profile
	sessions []*workload.Session
	farm     *farm.Farm
	root     string
	// hist, when set, supplies instance i's histogram in place of the
	// session's own monitor (the traced pass attaches its own).
	hist func(i int) *core.Histogram
	// chunk is the stepping slice; zero steps each machine to its budget
	// in one Run, as vaxrepro does. Slicing changes nothing the machine
	// does: every slice ends at an instruction boundary, and the last one
	// ends where one Run would.
	chunk uint64
}

// farmConfig is the durable workload's farm: the five profiles as five
// instances on one worker, checkpointing every million cycles under root.
// An empty root runs the same farm with no durable state.
func farmConfig(root string) farm.Config {
	return farm.Config{Instances: 5, Workers: 1, Cycles: budget, Root: root}
}

// setUp builds a workload's machines, or its farm, without stepping.
// root is the durable workload's state directory; it must not exist yet.
func setUp(name string, seed int64, root string, t *tracer) (*rig, error) {
	if name != wlDurable {
		return setUpSessions(name, seed, t)
	}
	var f *farm.Farm
	var err error
	t.call("farm.New", func() { f, err = farm.New(farmConfig(root)) })
	if err != nil {
		return nil, err
	}
	return &rig{name: name, seed: seed, profs: profiles(name, seed), farm: f, root: root}, nil
}

// setUpSessions boots the workload's five machines as sessions. For
// durable these are the farm's five instances run outside the farm, with
// no checkpoints: they step through exactly the same cycles.
func setUpSessions(name string, seed int64, t *tracer) (*rig, error) {
	r := &rig{name: name, seed: seed, profs: profiles(name, seed)}
	for _, p := range r.profs {
		var s *workload.Session
		var err error
		t.call("workload.Prepare", func() { s, err = workload.Prepare(p, budget, cpu.Config{}) })
		if err != nil {
			return nil, err
		}
		r.sessions = append(r.sessions, s)
	}
	return r, nil
}

// tearDown removes what the round left on disk.
func (r *rig) tearDown() error {
	if r.root == "" {
		return nil
	}
	return os.RemoveAll(r.root)
}

// run steps the rig through one round and times it. Everything after
// set-up is inside the window: stepping, and then the reduction and
// tables on paper5, or checkpoints, persistence and merge on durable.
func (r *rig) run(ctx context.Context, t *tracer) (*round, error) {
	start := time.Now()
	var rd *round
	var err error
	if r.farm != nil {
		rd, err = r.runFarm(ctx, t)
	} else {
		rd = r.runSessions(t)
	}
	if err != nil {
		return nil, err
	}
	rd.Window = time.Since(start)
	return rd, nil
}

// runSessions steps each session to its budget in chunks, then reduces
// the composite (and, on paper5, renders the tables and runs the checks).
func (r *rig) runSessions(t *tracer) *round {
	chunk := r.chunk
	if chunk == 0 {
		chunk = budget
	}
	rd := &round{}
	comp := &workload.Composite{Hist: &core.Histogram{}}
	for i, s := range r.sessions {
		m := s.Machine()
		c0 := m.Cycle()
		inst := instance{Profile: r.profs[i].Name, Seed: r.profs[i].Seed}
		for done := uint64(0); done < budget; done = m.Cycle() - c0 {
			var res cpu.RunResult
			t.call("workload.Session.Run", func() { res = s.Run(min(chunk, budget-done)) })
			if res.Err != nil {
				inst.Err = res.Err.Error()
				break
			}
			if res.Halted {
				inst.Err = "halted: " + res.Reason.String()
				break
			}
		}
		inst.Cycles = m.Cycle() - c0
		out := s.Result()
		if r.hist != nil {
			out.Hist = r.hist(i)
		}
		inst.Hist = out.Hist
		rd.Cycles += inst.Cycles
		rd.Insts = append(rd.Insts, inst)
		comp.Runs = append(comp.Runs, out)
		comp.Hist.Add(out.Hist)
	}
	var rep *core.Report
	t.call("core.Reduce", func() { rep = core.Reduce(comp.Hist, cpu.CS) })
	rd.CPI = rep.CPI()
	if r.name == wlPaper5 {
		// experiments.NewContextFromComposite, with each module call
		// visible to the traced pass.
		cs, ib, ts, hw, instr := comp.HWTotals()
		ctx := &experiments.Context{Comp: comp, Rep: rep, Cache: cs, IB: ib, TBS: ts, HW: hw, MachInstr: instr}
		t.call("cpu.New", func() { ctx.Machine = cpu.New(cpu.Config{}) })
		var outs []experiments.Outcome
		t.call("experiments.RunAll", func() { outs = experiments.RunAll(ctx) })
		for _, o := range outs {
			rd.Checks += len(o.Checks)
			for _, c := range o.Checks {
				if !c.OK() {
					rd.Off = append(rd.Off, o.ID+": "+c.Name)
				}
			}
		}
	}
	return rd
}

// runFarm runs the durable farm to drain and splits its merge back into
// the five instances (one per profile).
func (r *rig) runFarm(ctx context.Context, t *tracer) (*round, error) {
	var res *farm.Result
	var err error
	t.call("farm.Run", func() { res, err = r.farm.Run(ctx) })
	if err != nil {
		return nil, err
	}
	rd := &round{Cycles: res.Cycles, Completed: res.Completed, Shed: res.Shed}
	t.call("core.Reduce", func() { rd.CPI = core.Reduce(res.Merged, cpu.CS).CPI() })
	for i, p := range r.profs {
		inst := instance{Profile: p.Name, Seed: p.Seed}
		if i < len(res.Ledger) {
			o := res.Ledger[i]
			inst.Cycles = o.Cycle
			if o.Status != farm.StatusCompleted && o.Status != farm.StatusRescued {
				inst.Err = fmt.Sprintf("%s: %s", o.Status, o.Cause)
			}
		} else {
			inst.Err = "missing from the farm ledger"
		}
		for _, ps := range res.ByProfile {
			if ps.Name == p.Name {
				inst.Hist = ps.Hist
			}
		}
		rd.Insts = append(rd.Insts, inst)
	}
	return rd, nil
}

// digest is the SHA-256 of a histogram's checksummed binary form, which is
// a pure function of its contents.
func digest(h *core.Histogram) string {
	if h == nil {
		return ""
	}
	var b bytes.Buffer
	if err := h.Save(&b); err != nil {
		return ""
	}
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:])
}

// cpiErrPct is the composite CPI's distance from the paper's 10.593, in %.
func cpiErrPct(cpi float64) float64 {
	d := cpi - paper.CPI
	if d < 0 {
		d = -d
	}
	return 100 * d / paper.CPI
}

// pin is what a (workload, seed) must produce: each instance's histogram
// digest, and the paper5 shape checks that are outside tolerance there.
// At seed 0, vaxrepro's run, no check is.
type pin struct {
	Digests []string `json:"digests,omitempty"`
	Off     []string `json:"off,omitempty"`
	// Halts, when set, says why the seed's generated programs cannot run
	// to budget (a kernel fatal); a seed argument landing here moves on.
	Halts string `json:"halts,omitempty"`
}

// pinOf is the pin a round would set.
func pinOf(rd *round) pin {
	p := pin{Off: rd.Off}
	for _, in := range rd.Insts {
		p.Digests = append(p.Digests, digest(in.Hist))
	}
	return p
}

// failures checks every instance of a round against its pin and returns
// one line per failed instance. An instance fails on a machine error or
// halt, a shed or paused farm outcome, or a histogram digest other than
// the pinned one. On paper5 every instance also fails when the composite's
// shape checks outside tolerance are not exactly the pinned ones.
func failures(rd *round, want pin) []string {
	var out []string
	for i, in := range rd.Insts {
		var why string
		switch {
		case in.Err != "":
			why = in.Err
		case in.Hist == nil:
			why = "no histogram"
		case i >= len(want.Digests) || digest(in.Hist) != want.Digests[i]:
			why = "histogram digest differs from the pinned one"
		case !slices.Equal(rd.Off, want.Off):
			why = fmt.Sprintf("shape checks outside tolerance %q, pinned %q", rd.Off, want.Off)
		}
		if why != "" {
			out = append(out, fmt.Sprintf("%s (seed %d): %s", in.Profile, in.Seed, why))
		}
	}
	return out
}

// rootFor is the durable workload's state directory for one round.
func rootFor(out string, round int) string {
	return filepath.Join(out, fmt.Sprintf("durable-root-%d-%d", os.Getpid(), round))
}
