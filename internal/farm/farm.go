// Package farm is the fleet supervisor: it shards N machine-instances
// across W worker goroutines, runs each through the supervised
// checkpoint/resume path of internal/workload, and sums the completed
// instances' histograms per profile as their completions come in, then
// into one composite.
//
// The paper characterized one VAX-11/780 over five hours of live traffic
// (§2.2); this package's job is the scaled-up equivalent — thousands of
// simulated 780s measured in parallel — and at that scale the harness
// itself must survive partial failure. The invariant everything here
// defends: partial failure must never silently bias the merged
// histograms. A killed worker's in-flight instance is rescued — resumed
// from its newest checkpoint generation on a surviving worker, which is
// bit-identical to never having been disturbed (the checkpoint layer's
// proven contract). A failed attempt — a typed run error, a recovered
// panic, a result that would not persist — sheds its instance into an
// explicit outcome ledger with the error as its cause, instead of
// merging partial counts: the simulator is deterministic, so a second
// attempt would fail the same way. Farm-wide interruption checkpoints
// every live instance, and Resume re-runs every instance without a
// persisted result, shed ones included.
// TestFarmChaosRescue holds the whole stack to that invariant under
// -race, with workers dying mid-sweep and the fault plane active.
package farm

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"vax780/internal/core"
	"vax780/internal/fault"
	"vax780/internal/workload"
)

// SeedStride separates consecutive instances' generation seeds. It must
// dodge the per-process offset inside one instance (base + proc*1000,
// proc < 6), so two instances can never generate an identical program:
// being coprime to 1000 and larger than any in-instance span does it.
const SeedStride = 1_000_003

// Kill scripts a chaos event: worker Worker dies after its AfterChunks-th
// checkpoint chunk (cumulative across the instances it runs). Chunk
// boundaries are the only points where the supervised run loop re-enters
// farm code, so they are where death can land mid-instance.
type Kill struct {
	Worker      int
	AfterChunks int
}

// ParseKills parses a chaos script of "worker@chunk" pairs ("0@5,2@9"),
// the spelling both vaxfarm -chaos and vaxbench -chaos accept.
func ParseKills(spec string) ([]Kill, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var kills []Kill
	for _, field := range strings.Split(spec, ",") {
		w, after, ok := strings.Cut(strings.TrimSpace(field), "@")
		if !ok {
			return nil, fmt.Errorf(`farm: bad chaos field %q: want "worker@chunk"`, field)
		}
		wi, err1 := strconv.Atoi(w)
		ai, err2 := strconv.Atoi(after)
		if err1 != nil || err2 != nil || ai <= 0 {
			return nil, fmt.Errorf(`farm: bad chaos field %q: want "worker@chunk" with positive chunk`, field)
		}
		kills = append(kills, Kill{Worker: wi, AfterChunks: ai})
	}
	return kills, nil
}

// Config sizes and shapes a farm. The zero value of every optional field
// picks a documented default.
type Config struct {
	// Instances is the number of machine-instances to measure (required).
	// Instance i runs profile Profiles[i%len(Profiles)] with generation
	// seed derived as registry seed + i*SeedStride, so every instance is
	// a distinct, deterministically reconstructible measurement.
	Instances int
	// RegistrySeeds derives instance i's seed as registry seed +
	// (i/len(Profiles))*SeedStride instead, so the rotation's first round
	// runs the registry profiles themselves: the composite vaxrepro
	// measures.
	RegistrySeeds bool
	// Workers is the worker-pool width (default 4).
	Workers int
	// Cycles is the per-instance cycle budget (required).
	Cycles uint64
	// Profiles names the workload rotation (default: all five of §2.2).
	Profiles []string
	// Fault, when set, attaches a fault-injection plane to every
	// instance, with the stream seed decorrelated per instance (nil =
	// clean runs).
	Fault *fault.Config
	// Root, when set, is the durable state directory: per-instance
	// checkpoint generations and completed results live under it, and
	// a farm.json manifest makes the whole farm resumable with Resume.
	// Empty keeps everything in memory — rescue then restarts instances
	// from cycle zero instead of their newest checkpoint.
	Root string
	// CheckpointEvery is the per-instance checkpoint period in cycles
	// (workload.DefaultCheckpointEvery when zero).
	CheckpointEvery uint64
	// Kills scripts worker deaths for chaos runs and tests.
	Kills []Kill
}

// normalized fills defaults into a copy of the config.
func (c Config) normalized() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if len(c.Profiles) == 0 {
		for _, p := range workload.All() {
			c.Profiles = append(c.Profiles, p.Name)
		}
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = workload.DefaultCheckpointEvery
	}
	return c
}

// instance is one machine-instance's slot in the farm: its derived
// workload, durable locations, and running ledger fields. All mutation
// happens on the coordinator goroutine; workers only read the immutable
// identity fields (id, profIdx, prof, fcfg, dir, cycles).
type instance struct {
	id      int
	profIdx int // index into the farm's profile rotation
	prof    workload.Profile
	fcfg    *fault.Config
	dir     string // durable directory ("" without a Root)
	cycles  uint64

	status   Status
	attempts int
	rescues  int
	cause    string
	cycle    uint64
}

// ProfileSum is one profile's share of the merge: the sums of its
// completed instances' histograms and counters.
type ProfileSum struct {
	Name     string
	Hist     *core.Histogram
	Counters workload.Counters
}

// Result is what a farm run produced: the merged composite, the same
// counts split by profile, and the per-instance outcome ledger.
type Result struct {
	Merged    *core.Histogram
	ByProfile []ProfileSum
	Ledger    []Outcome
	Completed int // includes rescued
	Rescued   int
	Shed      int
	Paused    int
	Failures  int    // failed attempts, each of which shed its instance
	Lost      int    // workers dead at the end
	Cycles    uint64 // cycles contributed to the merge
}

// Farm is a configured fleet. Build one with New to start a run, or with
// Resume to continue the run under a root; run it once with Run.
type Farm struct {
	cfg      Config
	profiles []workload.Profile
	insts    []*instance
	resumed  bool
	ran      atomic.Bool
}

// New validates and prepares a farm.
func New(cfg Config) (*Farm, error) {
	cfg = cfg.normalized()
	if cfg.Instances <= 0 {
		return nil, fmt.Errorf("farm: Instances must be positive, got %d", cfg.Instances)
	}
	if cfg.Cycles == 0 {
		return nil, fmt.Errorf("farm: Cycles must be positive")
	}
	f := &Farm{cfg: cfg}
	for _, name := range cfg.Profiles {
		p, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("farm: unknown workload profile %q", name)
		}
		f.profiles = append(f.profiles, p)
	}
	for _, k := range cfg.Kills {
		if k.Worker < 0 || k.Worker >= cfg.Workers {
			return nil, fmt.Errorf("farm: kill targets worker %d of %d", k.Worker, cfg.Workers)
		}
	}
	for i := 0; i < cfg.Instances; i++ {
		f.insts = append(f.insts, f.deriveInstance(i))
	}
	return f, nil
}

// Config returns the configuration the farm runs, defaults filled in: for
// a farm from Resume, the one its manifest records.
func (f *Farm) Config() Config { return f.cfg }

// deriveInstance builds instance i's identity. The derivation is pure in
// (Config, i): resuming a farm from its manifest reconstructs the exact
// same instances.
func (f *Farm) deriveInstance(i int) *instance {
	profIdx := i % len(f.profiles)
	p := f.profiles[profIdx]
	round := i
	if f.cfg.RegistrySeeds {
		round = i / len(f.profiles)
	}
	p.Seed += int64(round) * SeedStride
	var fc *fault.Config
	if f.cfg.Fault != nil {
		c := *f.cfg.Fault
		// Decorrelate the instance's injection streams the same way the
		// plane decorrelates its per-point streams from one seed.
		c.Seed += uint64(i) * 0x9E3779B97F4A7C15
		fc = &c
	}
	return &instance{
		id:      i,
		profIdx: profIdx,
		prof:    p,
		fcfg:    fc,
		dir:     instanceDir(f.cfg.Root, i),
		cycles:  f.cfg.Cycles,
		status:  StatusPending,
	}
}

// Run executes the farm to drain: every instance completed, shed, or
// paused. It returns the merged result together with a typed error for
// the two non-clean endings — *Interrupted (resumable pause) and
// *PoolExhausted (every worker died). The Result is meaningful in all
// three cases; the ledger says exactly which instances stand where. A
// farm from New whose Root holds an earlier run returns *RootInUse, and
// no Result, before it writes anything. A wall-clock budget is the
// context's deadline.
func (f *Farm) Run(ctx context.Context) (*Result, error) {
	if f.ran.Swap(true) {
		return nil, fmt.Errorf("farm: Run called twice on one Farm")
	}
	cfg := f.cfg
	if cfg.Root != "" && !f.resumed {
		if err := writeManifest(cfg.Root, cfg); err != nil {
			return nil, err
		}
	}

	sums := make([]ProfileSum, len(f.profiles))
	for pi, p := range f.profiles {
		sums[pi] = ProfileSum{Name: p.Name, Hist: &core.Histogram{}}
	}
	var queue []*instance
	for _, inst := range f.insts {
		// Classify what an earlier run already finished: a persisted
		// result short-circuits the instance; anything else re-runs
		// (from its newest checkpoint, if it has one).
		if hist, meta, err := loadResult(inst.dir); err != nil {
			return nil, err
		} else if hist != nil {
			inst.status = StatusCompleted
			inst.cycle = meta.Cycles
			sums[inst.profIdx].Hist.Add(hist)
			sums[inst.profIdx].Counters.Add(*meta.Counters)
			continue
		}
		queue = append(queue, inst)
	}

	dispatch := make(chan *instance)
	events := make(chan event)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Workers; i++ {
		wg.Add(1)
		go newWorker(i, f, ctx, dispatch, events, &wg).loop()
	}

	var (
		outstanding int
		live        = cfg.Workers
		failures    int
		paused      bool
		pauseCause  error
	)
	shed := func(inst *instance, cause string, cycle uint64) {
		inst.status = StatusShed
		inst.cause = cause
		inst.cycle = cycle
	}
	pause := func(inst *instance, cause string, cycle uint64) {
		inst.status = StatusPaused
		inst.cause = cause
		inst.cycle = cycle
	}
	// parkQueued empties the queue into a terminal state — paused on
	// interruption, shed on pool exhaustion.
	parkQueued := func(park func(*instance, string, uint64), cause string) {
		for _, inst := range queue {
			park(inst, cause, inst.cycle)
		}
		queue = nil
	}

	for {
		if live == 0 && outstanding == 0 && len(queue) > 0 {
			parkQueued(shed, "no workers left")
		}
		if outstanding == 0 && len(queue) == 0 {
			break
		}
		var dispatchCh chan *instance
		if !paused && live > 0 && len(queue) > 0 {
			dispatchCh = dispatch
		}
		var doneC <-chan struct{}
		if !paused {
			doneC = ctx.Done()
		}

		select {
		case dispatchCh <- peek(queue):
			inst := queue[0]
			queue = queue[1:]
			inst.status = StatusRunning
			inst.attempts++
			outstanding++

		case <-doneC:
			paused = true
			pauseCause = ctx.Err()
			parkQueued(pause, fmt.Sprintf("farm interrupted before start: %v", pauseCause))

		case ev := <-events:
			outstanding--
			switch ev.kind {
			case evCompleted:
				if ev.inst.rescues > 0 {
					ev.inst.status = StatusRescued
				} else {
					ev.inst.status = StatusCompleted
				}
				ev.inst.cycle = ev.cycles
				sums[ev.inst.profIdx].Hist.Add(ev.hist)
				sums[ev.inst.profIdx].Counters.Add(ev.counters)

			case evPaused:
				pause(ev.inst, ev.err.Error(), ev.cycles)

			case evFailed:
				// Final, pausing or not: the simulator is deterministic,
				// so another attempt would replay the failure. A resumed
				// farm re-runs the instance, after a host fault is mended.
				failures++
				shed(ev.inst, ev.err.Error(), ev.cycles)

			case evDied:
				live--
				ev.inst.rescues++
				ev.inst.cycle = ev.cycles
				switch {
				case paused:
					pause(ev.inst, fmt.Sprintf("worker %d died during pause drain", ev.worker), ev.cycles)
				case live == 0:
					shed(ev.inst, fmt.Sprintf("worker %d died with no survivors", ev.worker), ev.cycles)
				default:
					// Rescue: head of the queue — the instance did
					// nothing wrong, and its newest checkpoint
					// generation is ready on disk.
					ev.inst.status = StatusPending
					queue = append([]*instance{ev.inst}, queue...)
				}

			default:
				panic(fmt.Sprintf("farm: event kind %d has no arm in Run", ev.kind))
			}
		}
	}
	close(dispatch)
	// Bounded: dispatch just closed above, so every worker falls out of its
	// range loop after at most one in-flight attempt, and attempts
	// themselves are ctx-supervised via workload.RunSupervised.
	wg.Wait()

	res := f.merge(sums)
	res.Failures = failures
	res.Lost = cfg.Workers - live
	if paused {
		return res, &Interrupted{Cause: pauseCause, Root: cfg.Root, Paused: res.Paused}
	}
	if live == 0 && res.Shed > 0 {
		return res, &PoolExhausted{Dead: cfg.Workers, Shed: res.Shed}
	}
	return res, nil
}

// peek returns the queue head without popping (nil on empty, which only
// feeds a disabled select case).
func peek(queue []*instance) *instance {
	if len(queue) == 0 {
		return nil
	}
	return queue[0]
}

// merge folds the per-profile sums, which hold the resumed results and
// every completion's histogram and counters, into one composite in
// profile order, and builds the ledger. Every addition is a uint64 add or
// a bit-OR (core.Histogram.Add), so the sums are independent of the order
// in which completions came in and of which worker ran what — the
// property the merge determinism tests pin down.
func (f *Farm) merge(sums []ProfileSum) *Result {
	res := &Result{Merged: &core.Histogram{}, ByProfile: sums}
	for pi := range sums {
		res.Merged.Add(sums[pi].Hist)
	}
	for _, inst := range f.insts {
		o := Outcome{
			ID:       inst.id,
			Profile:  inst.prof.Name,
			Status:   inst.status,
			Attempts: inst.attempts,
			Rescues:  inst.rescues,
			Cause:    inst.cause,
			Cycle:    inst.cycle,
		}
		res.Ledger = append(res.Ledger, o)
		switch inst.status {
		case StatusRescued:
			res.Rescued++
			fallthrough
		case StatusCompleted:
			// A loaded result's cycle is its persisted one.
			res.Completed++
			res.Cycles += inst.cycle
		case StatusShed:
			res.Shed++
		case StatusPaused:
			res.Paused++
		}
	}
	return res
}
