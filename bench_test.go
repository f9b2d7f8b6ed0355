// Benchmarks regenerating every table and figure of the paper, one bench
// per item, plus ablation benches for the design choices DESIGN.md calls
// out. Each table bench measures against a shared composite measurement
// (built once, like the paper's hour-long sessions) and reports the
// headline quantity of its table as a custom metric next to the paper's
// value, so `go test -bench .` prints the whole reproduction (`make
// bench`). The paper constants these benches compare against live only in
// internal/paper; TestNoPaperNumberCopies there keeps it that way.
package vax780

import (
	"sync"
	"testing"

	"vax780/internal/core"
	"vax780/internal/cpu"
	"vax780/internal/experiments"
	"vax780/internal/paper"
	"vax780/internal/ucode"
	"vax780/internal/vax"
	"vax780/internal/workload"
)

// benchCycles is the per-workload budget for the shared composite. Large
// enough for stable statistics, small enough for `go test -bench`.
const benchCycles = 1_200_000

var (
	benchOnce sync.Once
	benchCtx  *experiments.Context
	benchErr  error
)

func sharedContext(b *testing.B) *experiments.Context {
	b.Helper()
	benchOnce.Do(func() {
		benchCtx, benchErr = experiments.NewContext(benchCycles, cpu.Config{})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchCtx
}

func runExperiment(b *testing.B, fn func(*experiments.Context) experiments.Outcome) experiments.Outcome {
	b.Helper()
	ctx := sharedContext(b)
	var out experiments.Outcome
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = fn(ctx)
	}
	b.StopTimer()
	if out.Fails > 0 {
		b.Errorf("%s: %d/%d shape checks outside tolerance:\n%s",
			out.ID, out.Fails, len(out.Checks), out.Text)
	}
	return out
}

func BenchmarkTable1OpcodeGroups(b *testing.B) {
	runExperiment(b, experiments.Table1)
	r := sharedContext(b).Rep
	b.ReportMetric(100*r.GroupFreq(vax.GroupSimple), "simple-%")
	b.ReportMetric(paper.Table1[vax.GroupSimple], "paper-simple-%")
}

func BenchmarkTable2PCChanging(b *testing.B) {
	runExperiment(b, experiments.Table2)
	r := sharedContext(b).Rep
	var all uint64
	for c := vax.PCClass(1); c < vax.NumPCClasses; c++ {
		all += r.PCClasses[c].Entries
	}
	b.ReportMetric(100*float64(all)/float64(r.Instructions), "pc-changing-%")
	b.ReportMetric(paper.Table2Total.PctAll, "paper-pc-changing-%")
}

func BenchmarkTable3SpecifiersPerInstr(b *testing.B) {
	runExperiment(b, experiments.Table3)
	s1, s26, _ := sharedContext(b).Rep.SpecsPerInstr()
	b.ReportMetric(s1+s26, "specs/instr")
	b.ReportMetric(paper.Table3FirstSpecs+paper.Table3OtherSpecs, "paper-specs/instr")
}

func BenchmarkTable4SpecifierDist(b *testing.B) {
	runExperiment(b, experiments.Table4)
	r := sharedContext(b).Rep
	reg := r.Spec.ByCategory[core.CatRegister]
	total := float64(r.Spec.Spec1 + r.Spec.Spec26)
	b.ReportMetric(100*float64(reg.Spec1+reg.Spec26)/total, "register-%")
}

func BenchmarkTable5ReadsWrites(b *testing.B) {
	runExperiment(b, experiments.Table5)
	r := sharedContext(b).Rep
	var mr, mw float64
	for _, row := range r.MemOps {
		mr += row.Reads
		mw += row.Writes
	}
	b.ReportMetric(mr, "reads/instr")
	b.ReportMetric(mw, "writes/instr")
	b.ReportMetric(paper.Table5TotalReads, "paper-reads/instr")
}

func BenchmarkTable6InstrSize(b *testing.B) {
	runExperiment(b, experiments.Table6)
	b.ReportMetric(sharedContext(b).Rep.EstInstrBytes(), "bytes/instr")
	b.ReportMetric(paper.Table6InstrBytes, "paper-bytes/instr")
}

func BenchmarkTable7Headway(b *testing.B) {
	runExperiment(b, experiments.Table7)
	b.ReportMetric(sharedContext(b).Rep.Headway.InterruptHeadway(), "instr/interrupt")
	b.ReportMetric(paper.Table7InterruptHeadway, "paper-instr/interrupt")
}

func BenchmarkTable8Timing(b *testing.B) {
	runExperiment(b, experiments.Table8)
	b.ReportMetric(sharedContext(b).Rep.CPI(), "CPI")
	b.ReportMetric(paper.CPI, "paper-CPI")
}

func BenchmarkTable9WithinGroup(b *testing.B) {
	runExperiment(b, experiments.Table9)
	r := sharedContext(b).Rep
	b.ReportMetric(r.WithinGroup(vax.GroupCallRet).Total(), "callret-cycles")
	b.ReportMetric(paper.Table9(vax.GroupCallRet).Total(), "paper-callret-cycles")
}

func BenchmarkFigure1BlockDiagram(b *testing.B) {
	runExperiment(b, experiments.Figure1)
}

func BenchmarkSection41IStream(b *testing.B) {
	runExperiment(b, experiments.Section41)
	ctx := sharedContext(b)
	b.ReportMetric(float64(ctx.IB.CacheRefs)/float64(ctx.Rep.Instructions), "ib-refs/instr")
	b.ReportMetric(paper.IBRefsPerInstr, "paper-ib-refs/instr")
}

func BenchmarkSection42Misses(b *testing.B) {
	runExperiment(b, experiments.Section42)
	ctx := sharedContext(b)
	b.ReportMetric(ctx.Rep.TBMiss.PerInstr(ctx.Rep.Instructions), "tb-miss/instr")
	b.ReportMetric(ctx.Rep.TBMiss.CyclesPerMiss(), "cycles/tb-miss")
}

// ---------------------------------------------------------------------------
// Ablation benches: re-measure one workload under a modified machine and
// report how the affected Table 8 column moves. These run real simulations
// per configuration (cached across b.N).

type ablationResult struct {
	cpi     float64
	columns core.ColumnSet
}

var (
	ablMu    sync.Mutex
	ablCache = map[string]ablationResult{}
)

func measureAblation(b *testing.B, key string, cfg cpu.Config) ablationResult {
	b.Helper()
	ablMu.Lock()
	defer ablMu.Unlock()
	if r, ok := ablCache[key]; ok {
		return r
	}
	res, err := workload.Run(workload.TimesharingCPUDev, benchCycles, cfg)
	if err != nil {
		b.Fatal(err)
	}
	rep := core.Reduce(res.Hist, cpu.CS)
	out := ablationResult{cpi: rep.CPI(), columns: rep.TimingTotal}
	ablCache[key] = out
	return out
}

// BenchmarkAblationWriteBufferDepth sweeps the write buffer: the paper's
// CALL-heavy write stalls should shrink with a deeper buffer.
func BenchmarkAblationWriteBufferDepth(b *testing.B) {
	var d1, d4 ablationResult
	for i := 0; i < b.N; i++ {
		d1 = measureAblation(b, "wb1", cpu.Config{WriteBufferDepth: 1})
		d4 = measureAblation(b, "wb4", cpu.Config{WriteBufferDepth: 4})
	}
	if d4.columns.WStall > d1.columns.WStall {
		b.Errorf("deeper write buffer increased write stall: %.3f -> %.3f",
			d1.columns.WStall, d4.columns.WStall)
	}
	b.ReportMetric(d1.columns.WStall, "wstall-depth1")
	b.ReportMetric(d4.columns.WStall, "wstall-depth4")
}

// BenchmarkAblationMissPenalty sweeps the cache miss penalty: read stall
// should scale with it.
func BenchmarkAblationMissPenalty(b *testing.B) {
	var m6, m12 ablationResult
	for i := 0; i < b.N; i++ {
		m6 = measureAblation(b, "miss6", cpu.Config{})
		cfg := cpu.Config{}
		cfg.SBI.ReadLatency = 12
		cfg.SBI.WriteOccupancy = 6
		m12 = measureAblation(b, "miss12", cfg)
	}
	if m12.columns.RStall <= m6.columns.RStall {
		b.Errorf("doubling miss penalty did not raise read stall: %.3f -> %.3f",
			m6.columns.RStall, m12.columns.RStall)
	}
	b.ReportMetric(m6.columns.RStall, "rstall-6cyc")
	b.ReportMetric(m12.columns.RStall, "rstall-12cyc")
}

// BenchmarkAblationDecodeOverlap models the 11/750's folding of the
// non-overlapped decode cycle (§5: "saving the non-overlapped I-Decode
// cycle could save one cycle on each non-PC-changing instruction").
func BenchmarkAblationDecodeOverlap(b *testing.B) {
	var base, overlap ablationResult
	for i := 0; i < b.N; i++ {
		base = measureAblation(b, "dec-780", cpu.Config{})
		overlap = measureAblation(b, "dec-750", cpu.Config{DecodeOverlap: true})
	}
	saved := base.cpi - overlap.cpi
	// Roughly one cycle per non-PC-changing instruction (~60-75% of all).
	if saved < 0.3 || saved > 1.2 {
		b.Errorf("decode overlap saved %.2f CPI; expected roughly the paper's ~0.6-0.75", saved)
	}
	b.ReportMetric(base.cpi, "CPI-780")
	b.ReportMetric(overlap.cpi, "CPI-overlap")
}

// BenchmarkAblationCharSpacing removes the character microcode's
// write-stall-avoidance spacing (§4.3): character write stalls appear.
func BenchmarkAblationCharSpacing(b *testing.B) {
	var spaced, packed ablationResult
	for i := 0; i < b.N; i++ {
		spaced = measureAblation(b, "chsp", cpu.Config{})
		packed = measureAblation(b, "chnosp", cpu.Config{NoCharWriteSpacing: true})
	}
	_ = spaced
	ctx := sharedContext(b)
	charWS := ctx.Rep.Timing[ucode.RowCharacter].WStall
	b.ReportMetric(charWS, "char-wstall-spaced")
	b.ReportMetric(packed.columns.WStall, "total-wstall-packed")
}

// BenchmarkAblationTBFlush compares the 780's flush-on-LDPCTX against a
// hypothetical tagged TB that survives context switches (§3.4 connects the
// context-switch interval to TB flushing).
func BenchmarkAblationTBFlush(b *testing.B) {
	var flush, keep ablationResult
	for i := 0; i < b.N; i++ {
		flush = measureAblation(b, "tbflush", cpu.Config{})
		keep = measureAblation(b, "tbkeep", cpu.Config{NoTBFlushOnSwitch: true})
	}
	b.ReportMetric(flush.columns.RStall+flush.columns.Compute, "flush-work")
	b.ReportMetric(keep.cpi, "CPI-tagged-tb")
	b.ReportMetric(flush.cpi, "CPI-flush")
}

// BenchmarkSimulator measures raw simulation speed: simulated cycles per
// wall second (the cost of the reproduction itself).
func BenchmarkSimulator(b *testing.B) {
	p := workload.TimesharingResearch
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := workload.Run(p, 400_000, cpu.Config{})
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// BenchmarkAblationNoFPA removes the Floating Point Accelerator all the
// measured machines had (§2.2): the FLOAT execute row grows by roughly the
// configured slowdown on a float-heavy workload.
func BenchmarkAblationNoFPA(b *testing.B) {
	var withFPA, without ablationResult
	run := func(key string, cfg cpu.Config) ablationResult {
		ablMu.Lock()
		defer ablMu.Unlock()
		if r, ok := ablCache[key]; ok {
			return r
		}
		res, err := workload.Run(workload.RTEScientific, benchCycles, cfg)
		if err != nil {
			b.Fatal(err)
		}
		rep := core.Reduce(res.Hist, cpu.CS)
		out := ablationResult{cpi: rep.CPI()}
		out.columns.Compute = rep.Timing[ucode.RowFloat].Total()
		ablCache[key] = out
		return out
	}
	for i := 0; i < b.N; i++ {
		withFPA = run("fpa", cpu.Config{})
		without = run("nofpa", cpu.Config{NoFPA: true})
	}
	if without.columns.Compute <= withFPA.columns.Compute {
		b.Errorf("removing the FPA did not raise float time: %.3f -> %.3f",
			withFPA.columns.Compute, without.columns.Compute)
	}
	b.ReportMetric(withFPA.columns.Compute, "float-row-fpa")
	b.ReportMetric(without.columns.Compute, "float-row-nofpa")
}
