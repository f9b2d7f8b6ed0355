// Package experiments reproduces every table and figure of the paper's
// evaluation: it runs the five-workload composite on the simulated
// VAX-11/780 under the µPC monitor, reduces the histogram, renders each
// table next to the published numbers, and checks that the shape of every
// result holds (who wins, by roughly what factor). latency.go applies the
// same Table 8 reduction to single instructions: the per-opcode latency
// table.
package experiments

import (
	"fmt"
	"strings"

	"vax780/internal/cache"
	"vax780/internal/core"
	"vax780/internal/cpu"
	"vax780/internal/paper"
	"vax780/internal/report"
	"vax780/internal/tb"
	"vax780/internal/ucode"
	"vax780/internal/vax"
	"vax780/internal/workload"
)

// Context is one composite measurement shared by all experiments.
type Context struct {
	Comp  *workload.Composite
	Rep   *core.Report
	Cache cache.Stats
	IB    cpu.IBStats
	TBS   tb.Stats
	HW    cpu.HWCounters
	// MachInstr counts machine-level instructions (including the null
	// process, which the monitor excludes).
	MachInstr uint64
	// Machine is a reference machine used for Figure 1 (topology).
	Machine *cpu.Machine
}

// NewContext measures the composite of the five workloads, cyclesEach
// cycles per workload.
func NewContext(cyclesEach uint64, mcfg cpu.Config) (*Context, error) {
	comp, err := workload.RunComposite(cyclesEach, mcfg)
	if err != nil {
		return nil, err
	}
	return NewContextFromComposite(comp, mcfg), nil
}

// NewContextFromComposite wraps an already-measured composite (e.g. one
// assembled by workload.RunCompositeSupervised from checkpointed runs)
// in an experiment context. Deterministic resume makes the resulting
// tables bit-identical to an uninterrupted NewContext measurement.
func NewContextFromComposite(comp *workload.Composite, mcfg cpu.Config) *Context {
	cs, ib, ts, hw, instr := comp.HWTotals()
	return &Context{
		Comp:      comp,
		Rep:       core.Reduce(comp.Hist, cpu.CS),
		Cache:     cs,
		IB:        ib,
		TBS:       ts,
		HW:        hw,
		MachInstr: instr,
		Machine:   cpu.New(mcfg),
	}
}

// Outcome is one experiment's rendered result.
type Outcome struct {
	ID     string
	Title  string
	Text   string
	Checks []report.Check
	Fails  int
}

func finish(id, title string, sb *strings.Builder, checks []report.Check) Outcome {
	fails := report.Checks(sb, "shape checks ("+id+")", checks)
	return Outcome{ID: id, Title: title, Text: sb.String(), Checks: checks, Fails: fails}
}

// perInstr divides an event count by measured instructions.
func (ctx *Context) perInstr(n uint64) float64 {
	if ctx.Rep.Instructions == 0 {
		return 0
	}
	return float64(n) / float64(ctx.Rep.Instructions)
}

// Table1 reproduces opcode group frequencies.
func Table1(ctx *Context) Outcome {
	var sb strings.Builder
	var rows [][]string
	var checks []report.Check
	for g := vax.Group(0); g < vax.NumGroups; g++ {
		measured := 100 * ctx.Rep.GroupFreq(g)
		want := paper.Table1[g]
		rows = append(rows, []string{g.String(), report.Pct(want), report.Pct(measured)})
		checks = append(checks, report.Check{
			Name: g.String(), Paper: want, Measured: measured,
			RelTol: 0.5, AbsTol: 1.0,
		})
	}
	report.Table(&sb, "Table 1: Opcode Group Frequency (percent)",
		[]string{"group", "paper", "measured"}, rows)
	return finish("T1", "Opcode group frequency", &sb, checks)
}

// Table2 reproduces the PC-changing instruction table.
func Table2(ctx *Context) Outcome {
	var sb strings.Builder
	var rows [][]string
	var checks []report.Check
	instr := float64(ctx.Rep.Instructions)
	var totAll, totTaken float64
	for _, prow := range paper.Table2 {
		st := ctx.Rep.PCClasses[prow.Class]
		pctAll := 100 * float64(st.Entries) / instr
		totAll += pctAll
		totTaken += 100 * float64(st.Taken) / instr
		rows = append(rows, []string{
			prow.Class.String(),
			report.Pct(prow.PctAll), report.Pct(pctAll),
			report.Pct(prow.PctTaken), report.Pct(st.PctTaken()),
		})
		checks = append(checks,
			report.Check{Name: prow.Class.String() + " freq", Paper: prow.PctAll,
				Measured: pctAll, RelTol: 0.6, AbsTol: 0.8},
			report.Check{Name: prow.Class.String() + " %taken", Paper: prow.PctTaken,
				Measured: st.PctTaken(), RelTol: 0.35, AbsTol: 8},
		)
	}
	rows = append(rows, []string{"TOTAL",
		report.Pct(paper.Table2Total.PctAll), report.Pct(totAll),
		report.Pct(paper.Table2Total.PctTaken), report.Pct(100 * totTaken / totAll)})
	checks = append(checks, report.Check{
		Name: "PC-changing share", Paper: paper.Table2Total.PctAll,
		Measured: totAll, RelTol: 0.3,
	})
	report.Table(&sb, "Table 2: PC-Changing Instructions",
		[]string{"type", "paper %all", "meas %all", "paper %taken", "meas %taken"}, rows)
	return finish("T2", "PC-changing instructions", &sb, checks)
}

// Table3 reproduces specifiers per instruction.
func Table3(ctx *Context) Outcome {
	var sb strings.Builder
	s1, s26, bd := ctx.Rep.SpecsPerInstr()
	rows := [][]string{
		{"First specifiers", report.F(paper.Table3FirstSpecs, 3), report.F(s1, 3)},
		{"Other specifiers", report.F(paper.Table3OtherSpecs, 3), report.F(s26, 3)},
		{"Branch displacements", report.F(paper.Table3BranchDisps, 3), report.F(bd, 3)},
	}
	report.Table(&sb, "Table 3: Specifiers and Branch Displacements per Average Instruction",
		[]string{"object", "paper", "measured"}, rows)
	checks := []report.Check{
		{Name: "first specs/instr", Paper: paper.Table3FirstSpecs, Measured: s1, RelTol: 0.3},
		{Name: "other specs/instr", Paper: paper.Table3OtherSpecs, Measured: s26, RelTol: 0.4},
		{Name: "branch disps/instr", Paper: paper.Table3BranchDisps, Measured: bd, RelTol: 0.4},
	}
	return finish("T3", "Specifiers per instruction", &sb, checks)
}

// Table4 reproduces the operand specifier distribution.
func Table4(ctx *Context) Outcome {
	var sb strings.Builder
	var rows [][]string
	var checks []report.Check
	spec := ctx.Rep.Spec
	t1 := float64(spec.Spec1)
	t26 := float64(spec.Spec26)
	for i, prow := range paper.Table4 {
		cat := core.SpecCategory(i)
		m1, m26 := 0.0, 0.0
		if t1 > 0 {
			m1 = 100 * float64(spec.ByCategory[cat].Spec1) / t1
		}
		if t26 > 0 {
			m26 = 100 * float64(spec.ByCategory[cat].Spec26) / t26
		}
		rows = append(rows, []string{prow.Label,
			report.Pct(prow.Spec1), report.Pct(m1),
			report.Pct(prow.Spec26), report.Pct(m26)})
		tol := 0.6
		if prow.Estimated {
			tol = 1.2
		}
		checks = append(checks, report.Check{
			Name: prow.Label + " SPEC1", Paper: prow.Spec1, Measured: m1,
			RelTol: tol, AbsTol: 2.5, Estimated: prow.Estimated,
		})
	}
	idx := 0.0
	if t1+t26 > 0 {
		idx = 100 * float64(spec.Indexed) / (t1 + t26)
	}
	rows = append(rows, []string{"Percent indexed",
		report.Pct(paper.Table4Indexed.Spec1), "-",
		report.Pct(paper.Table4Indexed.Spec26), report.Pct(idx)})
	checks = append(checks, report.Check{
		Name: "percent indexed", Paper: paper.Table4Indexed.Total, Measured: idx,
		RelTol: 0.6, AbsTol: 2,
	})
	report.Table(&sb, "Table 4: Operand Specifier Distribution (percent)",
		[]string{"mode", "paper S1", "meas S1", "paper S2-6", "meas S2-6"}, rows)
	return finish("T4", "Operand specifier distribution", &sb, checks)
}

// Table5 reproduces D-stream reads/writes per instruction by source.
func Table5(ctx *Context) Outcome {
	var sb strings.Builder
	var rows [][]string
	var checks []report.Check
	measured := map[string]core.MemOpRow{}
	for _, row := range ctx.Rep.MemOps {
		measured[row.Label] = row
	}
	var mr, mw float64
	for _, prow := range paper.Table5 {
		m := measured[prow.Label]
		mr += m.Reads
		mw += m.Writes
		rows = append(rows, []string{prow.Label,
			report.F(prow.Reads, 3), report.F(m.Reads, 3),
			report.F(prow.Writes, 3), report.F(m.Writes, 3)})
		checks = append(checks, report.Check{
			Name: prow.Label + " reads", Paper: prow.Reads, Measured: m.Reads,
			RelTol: 0.6, AbsTol: 0.03, Estimated: prow.Estimated,
		})
	}
	rows = append(rows, []string{"TOTAL",
		report.F(paper.Table5TotalReads, 3), report.F(mr, 3),
		report.F(paper.Table5TotalWrites, 3), report.F(mw, 3)})
	checks = append(checks,
		report.Check{Name: "total reads/instr", Paper: paper.Table5TotalReads, Measured: mr, RelTol: 0.3},
		report.Check{Name: "total writes/instr", Paper: paper.Table5TotalWrites, Measured: mw, RelTol: 0.3},
		report.Check{Name: "read:write ratio", Paper: paper.Table5TotalReads / paper.Table5TotalWrites,
			Measured: safeDiv(mr, mw), RelTol: 0.3},
	)
	report.Table(&sb, "Table 5: D-stream Reads and Writes per Average Instruction",
		[]string{"source", "paper rd", "meas rd", "paper wr", "meas wr"}, rows)
	return finish("T5", "Reads and writes per instruction", &sb, checks)
}

// Table6 reproduces the estimated size of the average instruction.
func Table6(ctx *Context) Outcome {
	var sb strings.Builder
	est := ctx.Rep.EstInstrBytes()
	exact := ctx.perInstr(ctx.IB.BytesConsumed)
	s1, s26, bd := ctx.Rep.SpecsPerInstr()
	rows := [][]string{
		{"Opcode bytes/instr", "1.00", "1.00"},
		{"Specifiers/instr", report.F(1.48, 2), report.F(s1+s26, 2)},
		{"Avg specifier bytes", report.F(paper.Table6SpecBytes, 2), report.F(ctx.Rep.Spec.EstSpecBytes, 2)},
		{"Branch disps/instr", report.F(0.31, 2), report.F(bd, 2)},
		{"TOTAL est. bytes", report.F(paper.Table6InstrBytes, 2), report.F(est, 2)},
		{"(exact, HW counter)", "-", report.F(exact, 2)},
	}
	report.Table(&sb, "Table 6: Estimated Size of Average Instruction",
		[]string{"object", "paper", "measured"}, rows)
	checks := []report.Check{
		{Name: "avg specifier bytes", Paper: paper.Table6SpecBytes, Measured: ctx.Rep.Spec.EstSpecBytes, RelTol: 0.25},
		{Name: "avg instruction bytes", Paper: paper.Table6InstrBytes, Measured: est, RelTol: 0.25},
		{Name: "exact instruction bytes", Paper: paper.Table6InstrBytes, Measured: exact, RelTol: 0.3},
	}
	return finish("T6", "Estimated instruction size", &sb, checks)
}

// Table7 reproduces interrupt and context-switch headways.
func Table7(ctx *Context) Outcome {
	var sb strings.Builder
	h := ctx.Rep.Headway
	rows := [][]string{
		{"Software interrupt requests", report.F(paper.Table7SoftIntHeadway, 0), report.F(h.SoftIntHeadway(), 0)},
		{"HW and SW interrupts", report.F(paper.Table7InterruptHeadway, 0), report.F(h.InterruptHeadway(), 0)},
		{"Context switches", report.F(paper.Table7CtxSwitchHeadway, 0), report.F(h.CtxSwitchHeadway(), 0)},
	}
	report.Table(&sb, "Table 7: Interrupt and Context-Switch Headway (instructions)",
		[]string{"event", "paper", "measured"}, rows)
	checks := []report.Check{
		{Name: "soft-int headway", Paper: paper.Table7SoftIntHeadway, Measured: h.SoftIntHeadway(), RelTol: 0.8},
		{Name: "interrupt headway", Paper: paper.Table7InterruptHeadway, Measured: h.InterruptHeadway(), RelTol: 0.8},
		{Name: "ctx-switch headway", Paper: paper.Table7CtxSwitchHeadway, Measured: h.CtxSwitchHeadway(), RelTol: 0.8},
	}
	return finish("T7", "Interrupt and context-switch headway", &sb, checks)
}

// Table8 reproduces the central timing matrix.
func Table8(ctx *Context) Outcome {
	var sb strings.Builder
	var rows [][]string
	var checks []report.Check
	cell := func(v float64) string { return report.F(v, 3) }
	for row := ucode.Row(0); row < ucode.NumRows; row++ {
		p := paper.Table8[row]
		m := ctx.Rep.Timing[row]
		rows = append(rows, []string{
			row.String(),
			cell(p.Compute), cell(m.Compute),
			cell(p.Read), cell(m.Read),
			cell(p.RStall), cell(m.RStall),
			cell(p.Write), cell(m.Write),
			cell(p.WStall), cell(m.WStall),
			cell(p.IBStall), cell(m.IBStall),
			cell(p.Total()), cell(m.Total()),
		})
		checks = append(checks, report.Check{
			Name: row.String() + " row total", Paper: p.Total(), Measured: m.Total(),
			RelTol: 0.6, AbsTol: 0.08, Estimated: p.Estimated,
		})
	}
	pt := paper.Table8Total
	mt := ctx.Rep.TimingTotal
	rows = append(rows, []string{"TOTAL",
		cell(pt.Compute), cell(mt.Compute), cell(pt.Read), cell(mt.Read),
		cell(pt.RStall), cell(mt.RStall), cell(pt.Write), cell(mt.Write),
		cell(pt.WStall), cell(mt.WStall), cell(pt.IBStall), cell(mt.IBStall),
		cell(paper.CPI), cell(ctx.Rep.CPI())})
	checks = append(checks,
		report.Check{Name: "CPI", Paper: paper.CPI, Measured: ctx.Rep.CPI(), RelTol: 0.2},
		report.Check{Name: "compute/instr", Paper: pt.Compute, Measured: mt.Compute, RelTol: 0.25},
		report.Check{Name: "reads/instr", Paper: pt.Read, Measured: mt.Read, RelTol: 0.3},
		report.Check{Name: "read stall/instr", Paper: pt.RStall, Measured: mt.RStall, RelTol: 0.6},
		report.Check{Name: "writes/instr", Paper: pt.Write, Measured: mt.Write, RelTol: 0.3},
		report.Check{Name: "write stall/instr", Paper: pt.WStall, Measured: mt.WStall, RelTol: 0.8},
		report.Check{Name: "IB stall/instr", Paper: pt.IBStall, Measured: mt.IBStall, RelTol: 0.8},
		report.Check{Name: "decode+spec share of time",
			Paper: (paper.Table8[ucode.RowDecode].Total() + paper.Table8[ucode.RowSpec1].Total() +
				paper.Table8[ucode.RowSpec26].Total() + paper.Table8[ucode.RowBDisp].Total()) / paper.CPI,
			Measured: (ctx.Rep.Timing[ucode.RowDecode].Total() + ctx.Rep.Timing[ucode.RowSpec1].Total() +
				ctx.Rep.Timing[ucode.RowSpec26].Total() + ctx.Rep.Timing[ucode.RowBDisp].Total()) / ctx.Rep.CPI(),
			RelTol: 0.25},
	)
	report.Table(&sb, "Table 8: Average VAX Instruction Timing (cycles per instruction; paper|measured pairs)",
		[]string{"row", "pC", "mC", "pR", "mR", "pRS", "mRS", "pW", "mW", "pWS", "mWS", "pIB", "mIB", "pT", "mT"}, rows)
	return finish("T8", "Average instruction timing", &sb, checks)
}

// Table9 reproduces within-group cycles per instruction.
func Table9(ctx *Context) Outcome {
	var sb strings.Builder
	var rows [][]string
	var checks []report.Check
	for g := vax.Group(0); g < vax.NumGroups; g++ {
		p := paper.Table9(g)
		m := ctx.Rep.WithinGroup(g)
		rows = append(rows, []string{g.String(),
			report.F(p.Compute, 2), report.F(m.Compute, 2),
			report.F(p.Read, 2), report.F(m.Read, 2),
			report.F(p.Write, 2), report.F(m.Write, 2),
			report.F(p.Total(), 2), report.F(m.Total(), 2)})
		checks = append(checks, report.Check{
			Name: g.String() + " cycles", Paper: p.Total(), Measured: m.Total(),
			RelTol: 0.6, AbsTol: 0.4, Estimated: p.Estimated,
		})
	}
	// The two-orders-of-magnitude spread (§5).
	spread := safeDiv(ctx.Rep.WithinGroup(vax.GroupCharacter).Total(),
		ctx.Rep.WithinGroup(vax.GroupSimple).Total())
	checks = append(checks, report.Check{
		Name: "character:simple spread", Paper: 100, Measured: spread, RelTol: 0.7,
	})
	report.Table(&sb, "Table 9: Cycles per Instruction Within Each Group (paper|measured)",
		[]string{"group", "pComp", "mComp", "pRd", "mRd", "pWr", "mWr", "pTot", "mTot"}, rows)
	return finish("T9", "Within-group timing", &sb, checks)
}

// Figure1 reproduces the block diagram structurally.
func Figure1(ctx *Context) Outcome {
	var sb strings.Builder
	sb.WriteString(ctx.Machine.RenderTopology())
	sb.WriteString("\n")
	// Assert the paper's connectivity.
	topo := ctx.Machine.Topology()
	edges := map[string]bool{}
	for _, c := range topo {
		for _, to := range c.FeedsTo {
			edges[c.Name+"->"+to] = true
		}
	}
	want := []string{
		"I-Fetch->Instruction Buffer",
		"Instruction Buffer->I-Decode",
		"I-Decode->EBOX",
		"EBOX->Translation Buffer",
		"Translation Buffer->Cache",
		"Cache->SBI",
		"EBOX->Write Buffer",
		"Write Buffer->SBI",
		"SBI->Memory",
	}
	var checks []report.Check
	for _, e := range want {
		v := 0.0
		if edges[e] {
			v = 1
		}
		checks = append(checks, report.Check{Name: e, Paper: 1, Measured: v, RelTol: 0})
	}
	return finish("F1", "VAX-11/780 block diagram", &sb, checks)
}

// Section41 reproduces the I-stream reference characterization (§4.1).
func Section41(ctx *Context) Outcome {
	var sb strings.Builder
	refs := ctx.perInstr(ctx.IB.CacheRefs)
	// The paper derives bytes/reference as consumed bytes over references
	// ("those 2.2 references yielded on average 3.8 bytes").
	bytesPerRef := safeDiv(float64(ctx.IB.BytesConsumed), float64(ctx.IB.CacheRefs))
	rows := [][]string{
		{"IB cache refs / instr", report.F(paper.IBRefsPerInstr, 2), report.F(refs, 2)},
		{"Bytes delivered / ref", report.F(paper.IBBytesPerRef, 2), report.F(bytesPerRef, 2)},
	}
	report.Table(&sb, "Section 4.1: I-Stream References",
		[]string{"metric", "paper", "measured"}, rows)
	checks := []report.Check{
		{Name: "IB refs/instr", Paper: paper.IBRefsPerInstr, Measured: refs, RelTol: 0.5},
		{Name: "bytes/ref", Paper: paper.IBBytesPerRef, Measured: bytesPerRef, RelTol: 0.5},
	}
	return finish("S4.1", "I-stream references", &sb, checks)
}

// Section42 reproduces the cache and TB miss characterization (§4.2).
func Section42(ctx *Context) Outcome {
	var sb strings.Builder
	missI := ctx.perInstr(ctx.Cache.ReadMisses[cache.IStream])
	missD := ctx.perInstr(ctx.Cache.ReadMisses[cache.DStream])
	tbm := ctx.Rep.TBMiss
	rows := [][]string{
		{"Cache read misses / instr", report.F(paper.CacheMissPerInstr, 3), report.F(missI+missD, 3)},
		{"  I-stream", report.F(paper.CacheMissIStream, 3), report.F(missI, 3)},
		{"  D-stream", report.F(paper.CacheMissDStream, 3), report.F(missD, 3)},
		{"TB misses / instr", report.F(paper.TBMissPerInstr, 3), report.F(tbm.PerInstr(ctx.Rep.Instructions), 3)},
		{"  D-stream", report.F(paper.TBMissDStream, 3), report.F(ctx.perInstr(tbm.DStreamMisses), 3)},
		{"  I-stream", report.F(paper.TBMissIStream, 3), report.F(ctx.perInstr(tbm.IStreamMisses), 3)},
		{"TB miss service cycles", report.F(paper.TBMissServiceCycles, 1), report.F(tbm.CyclesPerMiss(), 1)},
		{"Unaligned refs / instr", report.F(paper.UnalignedPerInstr, 3), report.F(ctx.perInstr(ctx.HW.Unaligned), 3)},
	}
	report.Table(&sb, "Section 4.2: Cache and Translation Buffer Misses",
		[]string{"metric", "paper", "measured"}, rows)
	checks := []report.Check{
		{Name: "cache misses/instr", Paper: paper.CacheMissPerInstr, Measured: missI + missD, RelTol: 0.7},
		{Name: "TB misses/instr", Paper: paper.TBMissPerInstr, Measured: tbm.PerInstr(ctx.Rep.Instructions), RelTol: 0.8},
		{Name: "TB service cycles", Paper: paper.TBMissServiceCycles, Measured: tbm.CyclesPerMiss(), RelTol: 0.35},
	}
	return finish("S4.2", "Cache and TB misses", &sb, checks)
}

// RunAll executes every experiment against one measurement context.
func RunAll(ctx *Context) []Outcome {
	return []Outcome{
		Table1(ctx), Table2(ctx), Table3(ctx), Table4(ctx), Table5(ctx),
		Table6(ctx), Table7(ctx), Table8(ctx), Table9(ctx),
		Figure1(ctx), Section41(ctx), Section42(ctx), Section5Prose(ctx),
	}
}

// Summary renders a one-line-per-experiment pass/fail digest.
func Summary(outs []Outcome) string {
	var sb strings.Builder
	totalChecks, totalFails := 0, 0
	for _, o := range outs {
		status := "ok"
		if o.Fails > 0 {
			status = fmt.Sprintf("%d/%d checks off", o.Fails, len(o.Checks))
		}
		fmt.Fprintf(&sb, "%-5s %-40s %s\n", o.ID, o.Title, status)
		totalChecks += len(o.Checks)
		totalFails += o.Fails
	}
	fmt.Fprintf(&sb, "TOTAL: %d checks, %d outside tolerance\n", totalChecks, totalFails)
	return sb.String()
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
