package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"vax780/internal/cache"
	"vax780/internal/checkpoint"
	"vax780/internal/core"
	"vax780/internal/cpu"
	"vax780/internal/farm"
	"vax780/internal/mem"
	"vax780/internal/tb"
	"vax780/internal/trace"
	"vax780/internal/workload"
)

// The traced pass. It measures the same workload and seed as the metric
// runs, in one process: a reference round exactly as the measuring child
// runs it, then a traced round with every attachment point counted, a span
// around every call the benchmark makes into a module, and a CPU profile
// of the window. The traced round must reproduce the reference digests and
// its counters must reconcile with the machines' own, or the pass fails.

const (
	// tracedChunk is the traced round's stepping slice: small enough that
	// the chunk-time percentiles rest on hundreds of spans.
	tracedChunk = 100_000
	// hookSampleEvery times one vmos hook call in this many.
	hookSampleEvery = 64
	// profileHz is the CPU profile's sampling rate.
	profileHz = 500
	// replayEvents bounds the recorded stream replayed through the cache
	// and TB models.
	replayEvents = 1 << 20
	// repeats is how often each isolated call is timed (median reported).
	repeats = 5
)

// probe counts the monitor's calls on the way through to it.
type probe struct {
	mon                    *core.Monitor
	countCalls, stallCalls uint64
	cycles                 uint64
}

func (p *probe) Count(upc uint16, n uint64) { p.countCalls++; p.cycles += n; p.mon.Count(upc, n) }
func (p *probe) Stall(upc uint16, n uint64) { p.stallCalls++; p.cycles += n; p.mon.Stall(upc, n) }

// cacheCalls counts cache.Tracer callbacks.
type cacheCalls struct{ reads, writes, flushes uint64 }

func (c *cacheCalls) CacheRead(uint32, cache.Stream) { c.reads++ }
func (c *cacheCalls) CacheWrite(uint32)              { c.writes++ }
func (c *cacheCalls) CacheFlush()                    { c.flushes++ }

// tbCalls counts tb.Tracer callbacks.
type tbCalls struct{ lookups, flushProcess, flushAll uint64 }

func (t *tbCalls) TBLookup(uint32, tb.Stream) { t.lookups++ }
func (t *tbCalls) TBInsert(uint32)            {}
func (t *tbCalls) TBFlushProcess()            { t.flushProcess++ }
func (t *tbCalls) TBFlushAll()                { t.flushAll++ }
func (t *tbCalls) TBInvalidate(uint32)        {}

// hookCalls counts the vmos per-instruction hook and times a sample of it.
type hookCalls struct {
	calls, sampled uint64
	sampledTime    time.Duration
}

// meter is one machine with every attachment point counted, and the
// machine's own counters as they stood when it was attached.
type meter struct {
	m     *cpu.Machine
	probe probe
	cache cacheCalls
	tb    tbCalls
	hook  hookCalls

	cycle0, instr0 uint64
	cacheStats0    cache.Stats
	tbStats0       tb.Stats
	ib0            cpu.IBStats
	hw0            cpu.HWCounters
	sbi0           mem.SBIStats
	wb0            mem.WriteBufferStats
}

// attach instruments a booted machine. The wrappers only count and
// forward: the monitor sees every call it would have seen.
func attach(m *cpu.Machine) *meter {
	mt := &meter{m: m, probe: probe{mon: core.NewMonitor()},
		cycle0: m.Cycle(), instr0: m.Instructions(),
		cacheStats0: m.Cache.Stats(), tbStats0: m.TLB.Stats(), ib0: m.IBStats(), hw0: m.HW(),
		sbi0: m.SBI.Stats(), wb0: m.WB.Stats()}
	mt.probe.mon.Start()
	m.AttachProbe(&mt.probe)
	m.Cache.SetTracer(&mt.cache)
	m.TLB.SetTracer(&mt.tb)
	inner, h := m.OnInstruction, &mt.hook
	m.OnInstruction = func(m *cpu.Machine) {
		h.calls++
		if h.calls%hookSampleEvery != 0 {
			inner(m)
			return
		}
		start := time.Now()
		inner(m)
		h.sampledTime += time.Since(start)
		h.sampled++
	}
	return mt
}

// counts is what the meters saw, summed over machines.
type counts struct {
	cycles, instr                             uint64
	ibBytes, ibRefs, ibRedirects, ctxSwitches uint64
	sbiReads, sbiWrites, wbStallCycles        uint64
	readsI, readsD, readMisses, writes        uint64
	tbLookups, tbMisses                       uint64
	countCalls, stallCalls                    uint64
	hookCalls, hookSampled                    uint64
	hookSampledTime                           time.Duration
}

func (mt *meter) add(c *counts) {
	m := mt.m
	cs, ts, ib, hw := m.Cache.Stats(), m.TLB.Stats(), m.IBStats(), m.HW()
	c.cycles += m.Cycle() - mt.cycle0
	c.instr += m.Instructions() - mt.instr0
	c.ibBytes += ib.BytesConsumed - mt.ib0.BytesConsumed
	c.ibRefs += ib.CacheRefs - mt.ib0.CacheRefs
	c.ibRedirects += ib.Redirects - mt.ib0.Redirects
	c.ctxSwitches += hw.CtxSwitches - mt.hw0.CtxSwitches
	c.sbiReads += m.SBI.Stats().Reads - mt.sbi0.Reads
	c.sbiWrites += m.SBI.Stats().Writes - mt.sbi0.Writes
	c.wbStallCycles += m.WB.Stats().StallCycles - mt.wb0.StallCycles
	c.readsI += cs.Reads(cache.IStream) - mt.cacheStats0.Reads(cache.IStream)
	c.readsD += cs.Reads(cache.DStream) - mt.cacheStats0.Reads(cache.DStream)
	c.readMisses += cs.ReadMisses[0] + cs.ReadMisses[1] - mt.cacheStats0.ReadMisses[0] - mt.cacheStats0.ReadMisses[1]
	c.writes += cs.WriteHits + cs.WriteMisses - mt.cacheStats0.WriteHits - mt.cacheStats0.WriteMisses
	c.tbLookups += ts.Hits[0] + ts.Hits[1] + ts.Misses[0] + ts.Misses[1] -
		mt.tbStats0.Hits[0] - mt.tbStats0.Hits[1] - mt.tbStats0.Misses[0] - mt.tbStats0.Misses[1]
	c.tbMisses += ts.Misses[0] + ts.Misses[1] - mt.tbStats0.Misses[0] - mt.tbStats0.Misses[1]
	c.countCalls += mt.probe.countCalls
	c.stallCalls += mt.probe.stallCalls
	c.hookCalls += mt.hook.calls
	c.hookSampled += mt.hook.sampled
	c.hookSampledTime += mt.hook.sampledTime
}

// reconcile checks the meter's wrapper counts against the machine's own
// counters, following Röhl et al.: a counter is trusted only once it
// agrees with an independent one. It returns the identities that fail.
func (mt *meter) reconcile() []string {
	m := mt.m
	cs, ts := m.Cache.Stats(), m.TLB.Stats()
	c0, t0 := mt.cacheStats0, mt.tbStats0
	checks := []struct {
		name      string
		got, want uint64
	}{
		{"probe cycles = monitor total", mt.probe.cycles, mt.probe.mon.Snapshot().TotalCycles()},
		{"OnInstruction calls = retired instructions", mt.hook.calls, m.Instructions() - mt.instr0},
		{"CacheRead calls = cache reads", mt.cache.reads,
			cs.Reads(cache.IStream) + cs.Reads(cache.DStream) - c0.Reads(cache.IStream) - c0.Reads(cache.DStream)},
		{"CacheWrite calls = cache writes", mt.cache.writes, cs.WriteHits + cs.WriteMisses - c0.WriteHits - c0.WriteMisses},
		{"CacheFlush calls = cache flushes", mt.cache.flushes, cs.Flushes - c0.Flushes},
		{"TBLookup calls = TB lookups", mt.tb.lookups,
			ts.Hits[0] + ts.Hits[1] + ts.Misses[0] + ts.Misses[1] - t0.Hits[0] - t0.Hits[1] - t0.Misses[0] - t0.Misses[1]},
		{"TBFlushProcess calls = process flushes", mt.tb.flushProcess, ts.ProcessFlushes - t0.ProcessFlushes},
		{"TBFlushAll calls = full flushes", mt.tb.flushAll, ts.FullFlushes - t0.FullFlushes},
	}
	var bad []string
	for _, c := range checks {
		if c.got != c.want {
			bad = append(bad, fmt.Sprintf("%s: %d != %d", c.name, c.got, c.want))
		}
	}
	return bad
}

// layers collects the per-layer metrics of the pass.
type layers map[string]metric

func (l layers) set(name string, v float64, unit string) { l[name] = metric{Value: v, Unit: unit} }

// traced runs the traced pass and prints the per-layer metrics.
func traced(o options) error {
	ctx := context.Background()
	sp := newSpans()
	L := layers{}
	want, err := pinFor(o.workload, o.seed)
	if err != nil {
		return err
	}
	var problems []string
	attempted, failed := 0, 0
	check := func(stage string, fails []string) {
		failed += len(fails)
		for _, f := range fails {
			problems = append(problems, stage+": "+f)
		}
	}

	// Reference rounds, untraced, exactly as the measuring child runs them:
	// one before the traced round and one after, so the tracing overhead is
	// taken against both. Each returns the Go runtime's counters as they
	// stood just before and just after its window.
	reference := func(i int) (rd *round, before, after runtime.MemStats, err error) {
		id := sp.begin(0, "reference", "setup")
		r, err := setUp(o.workload, o.seed, rootFor(o.out, i), &tracer{sp: sp, parent: id, run: "reference"})
		sp.end(id)
		if err != nil {
			return nil, before, after, err
		}
		runtime.ReadMemStats(&before)
		rd, err = r.run(ctx, nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, before, after, err
		}
		if err := r.tearDown(); err != nil {
			return nil, before, after, err
		}
		attempted += len(rd.Insts)
		check("reference", failures(rd, want))
		return rd, before, after, nil
	}
	refRound, ms0, ms1, err := reference(0)
	if err != nil {
		return err
	}
	runtime.GC()
	L.set("go.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20), "MB")
	L.set("go.gc_cycles", float64(ms1.NumGC-ms0.NumGC), "count")
	L.set("go.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, "ms")

	// Traced round: spans, counted attachment points, CPU profile.
	tr := &tracer{sp: sp, run: "traced"}
	var meters []*meter
	var trRound *round
	var prof []sample
	if o.workload == wlDurable {
		trRound, prof, err = profiled(func() (*round, error) {
			r, err := setUp(o.workload, o.seed, rootFor(o.out, 1), tr)
			if err != nil {
				return nil, err
			}
			defer r.tearDown()
			return r.run(ctx, tr)
		})
		if err != nil {
			return err
		}
		// The farm builds its machines inside Run, out of reach of the
		// attachment points, so its five instances are stepped again as
		// sessions to count them; their digests must equal the farm's.
		shT := &tracer{sp: sp, run: "shadow"}
		sh, err := setUpSessions(o.workload, o.seed, shT)
		if err != nil {
			return err
		}
		meters = instrument(sh)
		shRound, err := sh.run(ctx, shT)
		if err != nil {
			return err
		}
		attempted += len(shRound.Insts)
		check("shadow sessions", failures(shRound, want))
		if err := durableLayers(ctx, o, sp, refRound, L); err != nil {
			return err
		}
	} else {
		r, err := setUpSessions(o.workload, o.seed, tr)
		if err != nil {
			return err
		}
		meters = instrument(r)
		trRound, prof, err = profiled(func() (*round, error) { return r.run(ctx, tr) })
		if err != nil {
			return err
		}
		// The durable layers are absent here; every metric is still printed.
		for k, unit := range map[string]string{"checkpoint.snapshots": "count", "checkpoint.snapshot_mb": "MB",
			"checkpoint.save_ms": "ms", "checkpoint.load_ms": "ms", "checkpoint.share": "%",
			"farm.run_s": "s", "farm.completed": "count", "farm.shed": "count"} {
			L.set(k, 0, unit)
		}
	}
	attempted += len(trRound.Insts)
	check("traced", failures(trRound, want))
	refAfter, _, _, err := reference(2)
	if err != nil {
		return err
	}
	refMcps := (refRound.mcps() + refAfter.mcps()) / 2
	for i, mt := range meters {
		if bad := mt.reconcile(); len(bad) > 0 {
			check("reconcile", []string{fmt.Sprintf("%s: %s", trRound.Insts[i].Profile, strings.Join(bad, "; "))})
		}
	}

	var c counts
	for _, mt := range meters {
		mt.add(&c)
	}
	countLayers(c, L)
	chunkLayers(sp.all, c, L)
	shares := profileLayers(prof, L)
	L.set("trace.overhead_pct", 100*(refMcps/trRound.mcps()-1), "%")
	L.set("paper.cpi_err_pct", cpiErrPct(trRound.CPI), "%")
	L.set("experiments.checks_failed", float64(len(trRound.Off)), "count")
	L.set("experiments.tables_ms", spanMs(sp.all, "traced", "experiments.RunAll"), "ms")
	L.set("core.reduce_ms", spanMs(sp.all, "traced", "core.Reduce"), "ms")
	L.set("workload.prepare_ms", spanMs(sp.all, "", "workload.Prepare"), "ms")
	if err := isolatedLayers(o, sp, L); err != nil {
		return err
	}

	table := layerTable(o, refMcps, trRound, shares, sp.all, L)
	fmt.Fprint(os.Stderr, table)
	base := fmt.Sprintf("%s-%d", o.workload, o.seed)
	if err := os.WriteFile(filepath.Join(o.out, "layers-"+base+".txt"), []byte(table), 0o644); err != nil {
		return err
	}
	if err := sp.write(filepath.Join(o.out, "spans-"+base+".json")); err != nil {
		return err
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED", p)
	}
	res := result{Correct: len(problems) == 0, Attempted: attempted, Failed: min(failed, attempted), Metrics: map[string]metric(L)}
	record := map[string]any{"workload": o.workload, "seed": o.seedArg, "seed_offset": o.seed, "host": hostRecord(), "trace": 1,
		"digests": pinOf(trRound).Digests}
	return printResult(record, res)
}

// instrument attaches a meter to every session of the rig and steps it in
// the traced slice; the rig then reports the meters' histograms.
func instrument(r *rig) []*meter {
	var ms []*meter
	for _, s := range r.sessions {
		ms = append(ms, attach(s.Machine()))
	}
	r.hist = func(i int) *core.Histogram { return ms[i].probe.mon.Snapshot() }
	r.chunk = tracedChunk
	return ms
}

// profiled runs f under a CPU profile and returns the decoded samples.
func profiled(f func() (*round, error)) (*round, []sample, error) {
	var buf bytes.Buffer
	runtime.SetCPUProfileRate(profileHz) // StartCPUProfile keeps a rate already set
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, nil, err
	}
	rd, err := f()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, nil, err
	}
	prof, err := parseProfile(buf.Bytes())
	return rd, prof, err
}

// countLayers sets the exact counts and the ratios built from them.
func countLayers(c counts, L layers) {
	cyc := float64(c.cycles)
	L.set("cpu.cycles", cyc, "count")
	L.set("cpu.instructions", float64(c.instr), "count")
	L.set("cpu.ib_bytes", float64(c.ibBytes), "count")
	L.set("cpu.ib_refs", float64(c.ibRefs), "count")
	L.set("cpu.ib_redirects", float64(c.ibRedirects), "count")
	L.set("cpu.ctx_switches", float64(c.ctxSwitches), "count")
	L.set("cpu.instr_per_cycle", float64(c.instr)/cyc, "1/cycle")
	L.set("cpu.istream_bytes_per_cycle", float64(c.ibBytes)/cyc, "B/cycle")
	L.set("cpu.dstream_refs_per_cycle", float64(c.readsD+c.writes)/cyc, "1/cycle")
	L.set("mem.sbi_reads", float64(c.sbiReads), "count")
	L.set("mem.sbi_writes", float64(c.sbiWrites), "count")
	L.set("mem.wb_stall_cycles", float64(c.wbStallCycles), "count")
	L.set("cache.reads_i", float64(c.readsI), "count")
	L.set("cache.reads_d", float64(c.readsD), "count")
	L.set("cache.writes", float64(c.writes), "count")
	L.set("cache.read_miss_ratio", ratio(c.readMisses, c.readsI+c.readsD), "ratio")
	L.set("tb.lookups", float64(c.tbLookups), "count")
	L.set("tb.miss_ratio", ratio(c.tbMisses, c.tbLookups), "ratio")
	L.set("core.count_calls", float64(c.countCalls), "count")
	L.set("core.stall_calls", float64(c.stallCalls), "count")
	L.set("vmos.hook_calls", float64(c.hookCalls), "count")
	hookNs := 0.0
	if c.hookSampled > 0 {
		hookNs = float64(c.hookSampledTime.Nanoseconds()) / float64(c.hookSampled)
	}
	L.set("vmos.hook_ns", hookNs, "ns")
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// chunkLayers sets the stepping costs from the spans around the traced
// Session.Run chunks (the shadow sessions' on durable).
func chunkLayers(all []span, c counts, L layers) {
	var ms []float64
	var total time.Duration
	for _, s := range all {
		if s.Name == "workload.Session.Run" && s.Run != "reference" {
			ms = append(ms, float64(s.dur().Nanoseconds())/1e6)
			total += s.dur()
		}
	}
	L.set("cpu.ns_per_cycle", float64(total.Nanoseconds())/float64(c.cycles), "ns")
	L.set("cpu.ns_per_instr", float64(total.Nanoseconds())/float64(c.instr), "ns")
	L.set("cpu.chunk_ms_p50", median(ms), "ms")
	pct, v, _ := tail(ms)
	L.set("cpu.chunk_ms_tail", v, "ms")
	L.set("cpu.chunk_tail_pct", pct, "%")
	L.set("cpu.chunks", float64(len(ms)), "count")
	hookTotal := L["vmos.hook_ns"].Value * L["vmos.hook_calls"].Value
	L.set("vmos.hook_share", 100*hookTotal/float64(total.Nanoseconds()), "%")
}

// share is one row of the profile fold.
type share struct {
	layer string
	pct   float64
}

// profileLayers folds the traced window's CPU profile per module and sets
// the profile shares; it returns the fold, largest first.
func profileLayers(prof []sample, L layers) []share {
	byLayer, total := fold(prof)
	pct := func(n int64) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(n) / float64(total)
	}
	var rows []share
	var modules int64
	for layer, n := range byLayer {
		rows = append(rows, share{layer, pct(n)})
		if layer != layerBench && layer != layerRuntime && layer != layerOther {
			modules += n
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		return rows[i].pct > rows[j].pct || rows[i].pct == rows[j].pct && rows[i].layer < rows[j].layer
	})
	for _, m := range []string{"cpu", "mem", "cache", "tb", "core"} {
		L.set(m+".share", pct(byLayer[m]), "%")
	}
	L.set("mmu.share", pct(onStack(prof, "vax780/internal/mmu.Translate")), "%")
	L.set("go.runtime_share", pct(byLayer[layerRuntime]), "%")
	L.set("trace.bench_share", pct(byLayer[layerBench]), "%")
	L.set("trace.coverage_pct", pct(modules), "%")
	L.set("trace.samples", float64(total), "count")
	return rows
}

// spanMs is the median duration of the spans called name in a run ("" for
// every run), in milliseconds.
func spanMs(all []span, run, name string) float64 {
	var ms []float64
	for _, s := range all {
		if s.Name == name && (run == "" || s.Run == run) {
			ms = append(ms, float64(s.dur().Nanoseconds())/1e6)
		}
	}
	return median(ms)
}

// isolatedLayers times single module calls outside any window: program
// generation on the workload's own configurations, and the cache and TB
// models replaying a bounded stream recorded from the workload's first
// machine.
func isolatedLayers(o options, sp *spans, L layers) error {
	t := &tracer{sp: sp, run: "isolated"}
	profs := profiles(o.workload, o.seed)
	for _, p := range profs {
		for i := 0; i < p.Procs; i++ {
			cfg := workload.GenConfig{Mix: p.Mix, Blocks: p.Blocks, LoopIter: p.LoopIter,
				StringLen: p.StringLen, Seed: p.Seed + int64(i)*1000}
			var err error
			t.call("workload.Generate", func() { _, err = workload.Generate(cfg) })
			if err != nil {
				return err
			}
		}
	}
	L.set("workload.generate_ms", spanMs(sp.all, "isolated", "workload.Generate"), "ms")

	s, err := workload.Prepare(profs[0], budget, cpu.Config{})
	if err != nil {
		return err
	}
	rec := &trace.Recorder{MaxEvents: replayEvents}
	rec.Attach(s.Machine())
	for !rec.Truncated && s.Machine().Cycle() < budget {
		if res := s.Run(tracedChunk); res.Err != nil || res.Halted {
			return fmt.Errorf("recording the replay stream: %v", res.Err)
		}
	}
	rec.Detach(s.Machine())
	var cacheOps, tbOps int
	for _, e := range rec.Trace.Events {
		switch e.Kind {
		case trace.EvCacheRead, trace.EvCacheWrite, trace.EvCacheFlush:
			cacheOps++
		default:
			tbOps++
		}
	}
	for i := 0; i < repeats; i++ {
		t.call("trace.ReplayCache", func() { _, err = trace.ReplayCache(&rec.Trace, cache.DefaultConfig()) })
		if err != nil {
			return err
		}
		t.call("trace.ReplayTB", func() { trace.ReplayTB(&rec.Trace) })
	}
	L.set("cache.ns_per_op", 1e6*spanMs(sp.all, "isolated", "trace.ReplayCache")/float64(max(cacheOps, 1)), "ns")
	L.set("tb.ns_per_op", 1e6*spanMs(sp.all, "isolated", "trace.ReplayTB")/float64(max(tbOps, 1)), "ns")
	return nil
}

// durableLayers measures the checkpoint layer and the farm: snapshot size
// and Save/LoadLatest times on a snapshot made by a supervised run stopped
// at its first checkpoint, and the share of the farm's time the durable
// state costs (the same farm run again with no Root).
func durableLayers(ctx context.Context, o options, sp *spans, ref *round, L layers) error {
	t := &tracer{sp: sp, run: "isolated"}
	dir := filepath.Join(o.out, fmt.Sprintf("ckpt-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	p := profiles(o.workload, o.seed)[0]
	_, err := workload.RunSupervised(ctx, workload.Spec{Profile: p, Cycles: budget},
		workload.Supervisor{CheckpointDir: filepath.Join(dir, "src"), StopAt: workload.DefaultCheckpointEvery})
	if !errors.Is(err, workload.ErrStopRequested) {
		return fmt.Errorf("making a snapshot: %v", err)
	}
	src, err := checkpoint.Open(filepath.Join(dir, "src"), 0)
	if err != nil {
		return err
	}
	dst, err := checkpoint.Open(filepath.Join(dir, "dst"), 0)
	if err != nil {
		return err
	}
	var snap *checkpoint.Snapshot
	var path string
	for i := 0; i < repeats; i++ {
		t.call("checkpoint.Dir.LoadLatest", func() { snap, _, err = src.LoadLatest() })
		if err != nil {
			return err
		}
		t.call("checkpoint.Dir.Save", func() { path, err = dst.Save(snap) })
		if err != nil {
			return err
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	L.set("checkpoint.snapshot_mb", float64(fi.Size())/1e6, "MB")
	L.set("checkpoint.load_ms", spanMs(sp.all, "isolated", "checkpoint.Dir.LoadLatest"), "ms")
	L.set("checkpoint.save_ms", spanMs(sp.all, "isolated", "checkpoint.Dir.Save"), "ms")
	every := uint64(workload.DefaultCheckpointEvery)
	var snaps uint64
	for _, in := range ref.Insts {
		snaps += in.Cycles / every // one snapshot per tick crossed
	}
	L.set("checkpoint.snapshots", float64(snaps), "count")

	var f *farm.Farm
	t.call("farm.New", func() { f, err = farm.New(farmConfig("")) })
	if err != nil {
		return err
	}
	noRoot := sp.do(0, "no-root", "farm.Run", func() { _, err = f.Run(ctx) })
	if err != nil {
		return err
	}
	L.set("checkpoint.share", 100*(1-noRoot.Seconds()/ref.Window.Seconds()), "%")
	L.set("farm.run_s", ref.Window.Seconds(), "s")
	L.set("farm.completed", float64(ref.Completed), "count")
	L.set("farm.shed", float64(ref.Shed), "count")
	return nil
}

// layerTable renders the pass as one table per workload: each layer's
// share of the traced window's CPU samples, the self time of the spans
// the benchmark opened into it, and its metrics.
func layerTable(o options, refMcps float64, tr *round, shares []share, all []span, L layers) string {
	var b strings.Builder
	h := hostRecord()
	fmt.Fprintf(&b, "layer table: %s seed %d on %s (%s, %d CPUs, %s)\n", o.workload, o.seed, h.Label, h.CPUModel, h.NumCPU, h.GoVersion)
	fmt.Fprintf(&b, "untraced %.2f Mcycle/s, traced %.2f Mcycle/s (overhead %.1f%%)\n",
		refMcps, tr.mcps(), L["trace.overhead_pct"].Value)
	fmt.Fprintf(&b, "%d CPU profile samples over the %.2f s traced window; repository modules hold %.1f%% of them\n",
		int(L["trace.samples"].Value), tr.Window.Seconds(), L["trace.coverage_pct"].Value)
	fmt.Fprintf(&b, "\n%-14s %8s\n", "profile fold", "samples")
	for _, s := range shares {
		fmt.Fprintf(&b, "%-14s %7.1f%%\n", s.layer, s.pct)
	}
	fmt.Fprintf(&b, "%-14s %7.1f%%  (cumulative: mmu.Translate anywhere on the stack)\n", "mmu", L["mmu.share"].Value)
	self := selfTimes(all)
	bySpan := map[string]time.Duration{}
	for _, s := range all {
		bySpan[s.Run+" "+s.Name] += self[s.ID]
	}
	var keys []string
	for k := range bySpan {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(&b, "\n%-40s %12s\n", "span (run, call)", "self ms")
	for _, k := range keys {
		fmt.Fprintf(&b, "%-40s %12.2f\n", k, float64(bySpan[k].Nanoseconds())/1e6)
	}
	var names []string
	for k := range L {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "\n%-32s %16s %s\n", "metric", "value", "unit")
	for _, k := range names {
		fmt.Fprintf(&b, "%-32s %16.6g %s\n", k, L[k].Value, L[k].Unit)
	}
	return b.String()
}
