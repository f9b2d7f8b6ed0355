package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vax780/internal/asm"
	"vax780/internal/cpu"
	"vax780/internal/ucode"
	"vax780/internal/vax"
)

// runMonitored assembles and runs src at 0x1000 under a collecting monitor.
func runMonitored(t *testing.T, src string) (*cpu.Machine, *Monitor) {
	t.Helper()
	im, err := asm.Assemble(0x1000, src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := cpu.New(cpu.Config{MemBytes: 1 << 20})
	mo := NewMonitor()
	mo.Start()
	m.AttachProbe(mo)
	m.Mem.Load(im.Org, im.Bytes)
	m.R[vax.SP] = 0x8000
	m.SetPC(im.Org)
	res := m.Run(5_000_000)
	if res.Err != nil || !res.Halted {
		t.Fatalf("run: halted=%v err=%v", res.Halted, res.Err)
	}
	return m, mo
}

const mixedProgram = `
	MOVL	#20, R7
loop:	MOVL	#0x4000, R8
	MOVL	(R8), R9
	ADDL2	#1, (R8)
	CMPL	R9, #5
	BLSS	skip
	MULL3	#3, R9, R10
skip:	MOVC3	#9, src, dst
	PUSHL	#7
	CALLS	#1, fn
	SOBGTR	R7, loop
	HALT
fn:	.word	0x000C		; save R2, R3
	MOVL	4(AP), R2
	EXTZV	#0, #4, R2, R3
	RET
src:	.ascii	"abcdefghi"
dst:	.space	12
`

func TestMonitorCycleConservation(t *testing.T) {
	m, mo := runMonitored(t, mixedProgram)
	h := mo.Snapshot()
	if h.TotalCycles() != m.Cycle() {
		t.Errorf("histogram %d != machine cycles %d", h.TotalCycles(), m.Cycle())
	}
}

func TestReduceInstructionAndCPI(t *testing.T) {
	m, mo := runMonitored(t, mixedProgram)
	r := Reduce(mo.Snapshot(), cpu.CS)
	if r.Instructions != m.Instructions() {
		t.Errorf("instructions = %d, want %d", r.Instructions, m.Instructions())
	}
	if r.Cycles != m.Cycle() {
		t.Errorf("cycles = %d, want %d", r.Cycles, m.Cycle())
	}
	// Table 8's TOTAL must equal CPI.
	if diff := r.TimingTotal.Total() - r.CPI(); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("Table 8 total %.6f != CPI %.6f", r.TimingTotal.Total(), r.CPI())
	}
	if r.CPI() < 3 || r.CPI() > 40 {
		t.Errorf("CPI = %.2f implausible", r.CPI())
	}
}

func TestReduceGroupCounts(t *testing.T) {
	_, mo := runMonitored(t, mixedProgram)
	r := Reduce(mo.Snapshot(), cpu.CS)
	// 20 iterations: MOVC3 per loop -> 20 character instructions.
	if r.Groups[vax.GroupCharacter] != 20 {
		t.Errorf("character count = %d, want 20", r.Groups[vax.GroupCharacter])
	}
	// CALLS + RET per loop -> 40 CALL/RET instructions.
	if r.Groups[vax.GroupCallRet] != 40 {
		t.Errorf("call/ret count = %d, want 40", r.Groups[vax.GroupCallRet])
	}
	// MULL3 only on iterations where value >= 5: value grows 0..19, so 15
	// executions; EXTZV runs every call: 20 field ops.
	if r.Groups[vax.GroupField] != 20 {
		t.Errorf("field count = %d, want 20", r.Groups[vax.GroupField])
	}
	if r.Groups[vax.GroupFloat] != 15 {
		t.Errorf("float count = %d, want 15", r.Groups[vax.GroupFloat])
	}
	// Sum of groups = instructions.
	var sum uint64
	for g := vax.Group(0); g < vax.NumGroups; g++ {
		sum += r.Groups[g]
	}
	if sum != r.Instructions {
		t.Errorf("group sum %d != instructions %d", sum, r.Instructions)
	}
}

func TestReducePCClasses(t *testing.T) {
	_, mo := runMonitored(t, mixedProgram)
	r := Reduce(mo.Snapshot(), cpu.CS)
	loop := r.PCClasses[vax.PCLoop]
	if loop.Entries != 20 || loop.Taken != 19 {
		t.Errorf("loop = %+v, want 20 entries 19 taken", loop)
	}
	cond := r.PCClasses[vax.PCSimpleCond]
	if cond.Entries != 20 {
		t.Errorf("cond entries = %d, want 20", cond.Entries)
	}
	if cond.Taken != 5 { // BLSS taken while R9 < 5: values 0..4
		t.Errorf("cond taken = %d, want 5", cond.Taken)
	}
	proc := r.PCClasses[vax.PCProc]
	if proc.Entries != 40 || proc.Taken != 40 {
		t.Errorf("proc = %+v, want 40/40", proc)
	}
}

func TestReduceSpecifiersAndMemOps(t *testing.T) {
	_, mo := runMonitored(t, mixedProgram)
	r := Reduce(mo.Snapshot(), cpu.CS)
	s1, s26, _ := r.SpecsPerInstr()
	if s1 <= 0 || s26 <= 0 {
		t.Errorf("specifier rates = %v, %v; want positive", s1, s26)
	}
	if s1 > 1 {
		t.Errorf("spec1 rate %v cannot exceed 1", s1)
	}
	// Table 5: the Spec1 row must show reads (operand fetches).
	var spec1Reads float64
	for _, row := range r.MemOps {
		if row.Label == "Spec1" {
			spec1Reads = row.Reads
		}
	}
	if spec1Reads <= 0 {
		t.Error("expected Spec1 reads in Table 5")
	}
	if r.EstInstrBytes() < 2 || r.EstInstrBytes() > 6 {
		t.Errorf("estimated instruction size %.2f implausible", r.EstInstrBytes())
	}
}

func TestReduceWithinGroupIdentity(t *testing.T) {
	_, mo := runMonitored(t, mixedProgram)
	r := Reduce(mo.Snapshot(), cpu.CS)
	// Table 9 identity: within-group cycles x frequency = Table 8 row.
	for _, g := range []vax.Group{vax.GroupSimple, vax.GroupCallRet, vax.GroupCharacter} {
		wg := r.WithinGroup(g).Total() * r.GroupFreq(g)
		er, ok := ExecRowOf(g)
		if !ok {
			t.Fatalf("%v has no execute row", g)
		}
		t8 := r.Timing[er].Total()
		if diff := wg - t8; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%v: within-group x freq = %.6f != Table8 row %.6f", g, wg, t8)
		}
	}
}

func TestHistogramAddLinearity(t *testing.T) {
	_, mo1 := runMonitored(t, mixedProgram)
	_, mo2 := runMonitored(t, `
	MOVL	#5, R1
l:	SOBGTR	R1, l
	HALT
`)
	h1 := mo1.Snapshot()
	h2 := mo2.Snapshot()
	sum := &Histogram{}
	sum.Add(h1)
	sum.Add(h2)
	r1 := Reduce(h1, cpu.CS)
	r2 := Reduce(h2, cpu.CS)
	rs := Reduce(sum, cpu.CS)
	if rs.Instructions != r1.Instructions+r2.Instructions {
		t.Errorf("composite instructions %d != %d + %d", rs.Instructions, r1.Instructions, r2.Instructions)
	}
	if rs.Cycles != r1.Cycles+r2.Cycles {
		t.Errorf("composite cycles mismatch")
	}
	for g := vax.Group(0); g < vax.NumGroups; g++ {
		if rs.Groups[g] != r1.Groups[g]+r2.Groups[g] {
			t.Errorf("group %v not additive", g)
		}
	}
}

func TestHistogramSaveLoad(t *testing.T) {
	_, mo := runMonitored(t, mixedProgram)
	h := mo.Snapshot()
	var buf bytes.Buffer
	if err := h.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadHistogram(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *h {
		t.Error("save/load round trip mismatch")
	}
}

func TestMonitorCommandInterface(t *testing.T) {
	mo := NewMonitor()
	if mo.Running() {
		t.Error("new monitor must be stopped")
	}
	mo.Count(5, 3) // ignored while stopped
	if c, _ := mo.ReadBucket(5); c != 0 {
		t.Error("stopped monitor counted")
	}
	mo.Start()
	mo.Count(5, 3)
	mo.Stall(5, 2)
	if c, s := mo.ReadBucket(5); c != 3 || s != 2 {
		t.Errorf("bucket = %d/%d, want 3/2", c, s)
	}
	mo.Stop()
	mo.Count(5, 1)
	if c, _ := mo.ReadBucket(5); c != 3 {
		t.Error("counting continued after Stop")
	}
	mo.Clear()
	if c, s := mo.ReadBucket(5); c != 0 || s != 0 {
		t.Error("Clear left counts")
	}
}

func TestMonitorOverflow(t *testing.T) {
	mo := NewMonitor()
	mo.SetCounterCapacity(10)
	mo.Start()
	mo.Count(1, 9)
	if mo.Overflowed() {
		t.Error("no overflow yet")
	}
	mo.Count(1, 5)
	if !mo.Overflowed() {
		t.Error("overflow not detected")
	}
	if c, _ := mo.ReadBucket(1); c != 10 {
		t.Errorf("bucket pinned at %d, want 10", c)
	}
	h := mo.Snapshot()
	if !h.OverflowedAt(1) {
		t.Error("saturated bucket not marked in the overflow bitmap")
	}
	if h.OverflowedAt(2) {
		t.Error("clean bucket marked overflowed")
	}
	if n := h.OverflowCount(); n != 1 {
		t.Errorf("OverflowCount = %d, want 1", n)
	}
	// Further counting at the pinned bucket never corrupts it.
	mo.Count(1, 1000)
	if c, _ := mo.ReadBucket(1); c != 10 {
		t.Errorf("bucket moved off the pin: %d", c)
	}
	mo.Clear()
	if mo.Overflowed() || mo.Snapshot().OverflowCount() != 0 {
		t.Error("Clear left overflow state")
	}
}

func TestOverflowBitmapStickyAcrossAdd(t *testing.T) {
	mo := NewMonitor()
	mo.SetCounterCapacity(4)
	mo.Start()
	mo.Stall(100, 9) // saturates bucket 100
	a := mo.Snapshot()
	var b Histogram
	b.Counts[7] = 3
	b.Add(a)
	if !b.OverflowedAt(100) {
		t.Error("Add dropped the overflow mark")
	}
	if b.OverflowedAt(7) {
		t.Error("Add invented an overflow mark")
	}
}

func TestHistogramSaveLoadPreservesOverflow(t *testing.T) {
	mo := NewMonitor()
	mo.SetCounterCapacity(2)
	mo.Start()
	mo.Count(42, 5)
	h := mo.Snapshot()
	var buf bytes.Buffer
	if err := h.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadHistogram(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.OverflowedAt(42) || got.OverflowCount() != 1 {
		t.Error("overflow bitmap lost across save/load")
	}
	if got.Counts[42] != 2 {
		t.Errorf("saturated count = %d, want 2", got.Counts[42])
	}
}

func TestLoadHistogramTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Histogram{}).Save(&buf); err != nil {
		t.Fatal(err)
	}
	short := buf.Bytes()[:buf.Len()/2]
	if _, err := LoadHistogram(bytes.NewReader(short)); err == nil {
		t.Error("truncated stream should fail to load")
	}
	if _, err := LoadHistogram(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream should fail to load")
	}
}

func TestReduceEmptyHistogram(t *testing.T) {
	r := Reduce(&Histogram{}, cpu.CS)
	if r.Instructions != 0 || r.CPI() != 0 {
		t.Errorf("empty reduce: %+v", r)
	}
	if r.TBMiss.CyclesPerMiss() != 0 {
		t.Error("empty TB miss stats should be zero")
	}
}

func TestNullProcessExclusionGate(t *testing.T) {
	// The machine gate models the paper's exclusion of the VMS null
	// process: cycles with the gate down must not reach the monitor.
	im, err := asm.Assemble(0x1000, `
	MOVL	#10, R1
l:	SOBGTR	R1, l
	HALT
`)
	if err != nil {
		t.Fatal(err)
	}
	m := cpu.New(cpu.Config{MemBytes: 1 << 20})
	mo := NewMonitor()
	mo.Start()
	m.AttachProbe(mo)
	m.Mem.Load(im.Org, im.Bytes)
	m.R[vax.SP] = 0x8000
	m.SetPC(im.Org)
	m.SetMonitorGate(false)
	m.Run(5_000_000)
	if mo.Snapshot().TotalCycles() != 0 {
		t.Error("gated cycles leaked into the monitor")
	}
}

func TestHotSpots(t *testing.T) {
	_, mo := runMonitored(t, mixedProgram)
	h := mo.Snapshot()
	spots := HotSpots(h, cpu.CS, 10)
	if len(spots) != 10 {
		t.Fatalf("spots = %d, want 10", len(spots))
	}
	// Sorted descending by cycles.
	for i := 1; i < len(spots); i++ {
		if spots[i].Cycles > spots[i-1].Cycles {
			t.Fatal("hot spots not sorted")
		}
	}
	// The decode dispatch must be among the hottest locations (it
	// executes once per instruction).
	found := false
	for _, s := range spots {
		if s.Name == "decode.ird" {
			found = true
		}
	}
	if !found {
		t.Errorf("decode.ird not in the top 10: %+v", spots)
	}
	// Shares are fractions of total classified time.
	var share float64
	for _, s := range spots {
		if s.Share <= 0 || s.Share > 1 {
			t.Errorf("bad share %+v", s)
		}
		share += s.Share
	}
	if share > 1.0001 {
		t.Errorf("top-10 share %.3f > 1", share)
	}
}

func TestStallSpots(t *testing.T) {
	_, mo := runMonitored(t, mixedProgram)
	spots := StallSpots(mo.Snapshot(), cpu.CS, 5)
	for i := 1; i < len(spots); i++ {
		if spots[i].Stalls > spots[i-1].Stalls {
			t.Fatal("stall spots not sorted")
		}
	}
	if len(spots) > 0 && spots[0].Stalls == 0 {
		t.Log("note: no stalls in this short run")
	}
}

func TestHotSpotsEmptyHistogram(t *testing.T) {
	if got := HotSpots(&Histogram{}, cpu.CS, 10); len(got) != 0 {
		t.Errorf("empty histogram produced %d spots", len(got))
	}
}

// TestPropertyReductionConservation: for arbitrary histograms over the
// real control store, the Table 8 matrix times the instruction count must
// equal the classified cycle total (every cycle lands in exactly one
// row/column cell).
func TestPropertyReductionConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := &Histogram{}
		words := cpu.CS.Words()
		for i := 0; i < 300; i++ {
			w := words[1+rng.Intn(len(words)-1)]
			h.Counts[w.Addr] += uint64(rng.Intn(1000))
			switch w.Class {
			case ucode.ClassRead, ucode.ClassWrite:
				h.Stalls[w.Addr] += uint64(rng.Intn(1000))
			}
		}
		// Ensure a nonzero instruction count.
		ird, _ := cpu.CS.Lookup("decode.ird")
		h.Counts[ird] += 1 + uint64(rng.Intn(100))
		r := Reduce(h, cpu.CS)
		got := r.TimingTotal.Total() * float64(r.Instructions)
		want := float64(r.Cycles)
		return math.Abs(got-want) < 1e-6*want+1e-3
	}
	// Seed the quick.Config Rand (nil means clock-seeded) so failures
	// reproduce deterministically.
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(0x783))}); err != nil {
		t.Error(err)
	}
}
