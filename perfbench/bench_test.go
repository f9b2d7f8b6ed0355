package main

import (
	"bytes"
	"context"
	"reflect"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"vax780/internal/core"
	"vax780/internal/cpu"
	"vax780/internal/workload"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	all := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: the union counts once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent: clipped
		{ID: 5, Parent: 2, Name: "grandchild", Start: 12, End: 18},
	}
	self := selfTimes(all)
	want := map[int]time.Duration{1: 50, 2: 14, 3: 30, 4: 30, 5: 6}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times = %v, want %v", self, want)
	}
}

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n         int
		pct, want float64
		ok        bool
	}{
		{n: 19, ok: false},                    // p50 leaves 9 beyond
		{n: 20, pct: 50, want: 10, ok: true},  // p50 leaves exactly 10
		{n: 100, pct: 90, want: 90, ok: true}, // p95 leaves 5
		{n: 400, pct: 95, want: 380, ok: true},
		{n: 1000, pct: 99, want: 990, ok: true},
		{n: 100000, pct: 99.99, want: 99990, ok: true},
	} {
		pct, v, ok := tail(seq(c.n))
		if ok != c.ok || pct != c.pct || v != c.want {
			t.Errorf("tail of %d samples = p%v %v (%v), want p%v %v (%v)", c.n, pct, v, ok, c.pct, c.want, c.ok)
		}
	}
}

func TestFoldAttributesToInnermostModule(t *testing.T) {
	prof := []sample{
		{Count: 5, Stack: []string{"vax780/internal/mem.(*Memory).ReadLong", "vax780/internal/mmu.Translate", "vax780/internal/cpu.(*Machine).xlate"}},
		{Count: 3, Stack: []string{"vax780/internal/cpu.(*ibox).peek", "vax780/internal/cpu.(*Machine).StepInstruction"}},
		{Count: 2, Stack: []string{"crypto/sha256.block", "crypto/sha256.(*digest).Write", "vax780/internal/checkpoint.Encode"}},
		{Count: 4, Stack: []string{"vax780/internal/core.(*Monitor).Count", "main.(*probe).Count", "vax780/internal/cpu.(*Machine).tick"}},
		{Count: 1, Stack: []string{"main.(*probe).Count", "vax780/internal/cpu.(*Machine).tick"}},
		{Count: 6, Stack: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{Count: 1, Stack: []string{"syscall.Syscall", "os.(*File).Write"}},
	}
	got, total := fold(prof)
	want := map[string]int64{"mem": 5, "cpu": 3, "checkpoint": 2, "core": 4, layerBench: 1, layerRuntime: 6, layerOther: 1}
	if total != 22 || !reflect.DeepEqual(got, want) {
		t.Fatalf("fold = %v (total %d), want %v (total 22)", got, total, want)
	}
	if n := onStack(prof, "vax780/internal/mmu.Translate"); n != 5 {
		t.Fatalf("mmu.Translate on %d samples, want 5", n)
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

func TestParseProfileReadsRuntimeProfiles(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("a CPU profile is already running")
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range prof {
		for _, fn := range s.Stack {
			found = found || strings.HasSuffix(fn, ".spin")
		}
	}
	if !found {
		t.Fatalf("no sample of %d has spin on its stack", len(prof))
	}
	if _, err := parseProfile(buf.Bytes()[:len(buf.Bytes())/2]); err == nil {
		t.Fatal("a truncated profile parsed")
	}
}

// TestSeedOffsetSkipsHaltingSeeds: any seed argument runs at a pinned seed
// that does not halt, so the output check never trusts the run it checks.
func TestSeedOffsetSkipsHaltingSeeds(t *testing.T) {
	for _, name := range workloadNames {
		for _, seed := range []int64{0, 1, 37, 38, 63, 64, 102, 1 << 40, 1<<63 - 1} {
			off := seedOffset(name, seed)
			want := seed % pinnedSeeds
			if name == wlPaper5 && want == 38 { // rte-scientific halts at 38
				want = 39
			}
			p, err := pinFor(name, off)
			if off != want || err != nil || p.Halts != "" || len(p.Digests) != 5 {
				t.Errorf("%s seed %d runs at %d (want %d): pin %+v, %v", name, seed, off, want, p, err)
			}
		}
	}
	for key, p := range pinned() {
		if p.Halts == "" {
			continue
		}
		name, s, _ := strings.Cut(key, "/")
		seed, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("pin key %q: %v", key, err)
		}
		if off := seedOffset(name, seed); off == seed {
			t.Errorf("%s halts, but it runs at seed %d", key, off)
		}
	}
}

func TestProfilesShiftSeedsByFarmStride(t *testing.T) {
	reg := workload.All()
	if got := profiles(wlPaper5, 0); !reflect.DeepEqual(got, reg) {
		t.Fatal("paper5 at seed 0 is not the registry")
	}
	for i, p := range profiles(wlCharacter, 2) {
		if p.Seed != reg[i].Seed+2*1_000_003 || p.Mix.String != 0.9 || p.Mix.Syscall != reg[i].Mix.Syscall || p.Procs != reg[i].Procs {
			t.Errorf("character profile %d = %+v", i, p)
		}
	}
	for i, p := range profiles(wlDurable, 7) {
		if p.Seed != reg[i].Seed+int64(i)*1_000_003 {
			t.Errorf("durable instance %d runs seed %d", i, p.Seed)
		}
	}
}

// TestSeedZeroIsVaxreproAndChecksCatchAFlippedBucket runs paper5 at seed 0
// once. Its composite must be the one workload.RunComposite measures at
// the same budget, its instances must match their pins, and flipping one
// histogram bucket must be reported as exactly one failed instance.
func TestSeedZeroIsVaxreproAndChecksCatchAFlippedBucket(t *testing.T) {
	if testing.Short() {
		t.Skip("steps 80M cycles")
	}
	r, err := setUpSessions(wlPaper5, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := r.run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := workload.RunComposite(budget, cpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sum := &core.Histogram{}
	for _, in := range rd.Insts {
		sum.Add(in.Hist)
	}
	if digest(sum) != digest(comp.Hist) {
		t.Fatal("paper5 at seed 0 is not vaxrepro's composite")
	}

	want, err := pinFor(wlPaper5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f := failures(rd, want); len(f) != 0 || rd.Checks != 108 {
		t.Fatalf("clean run: %d checks, failures %v", rd.Checks, f)
	}
	rd.Insts[2].Hist.Counts[cpu.CS.MustLookup("decode.ird")]++
	if f := failures(rd, want); len(f) != 1 || !strings.Contains(f[0], rd.Insts[2].Profile) {
		t.Fatalf("a flipped bucket gives failures %v, want one naming %s", f, rd.Insts[2].Profile)
	}
	rd.Insts[2].Hist.Counts[cpu.CS.MustLookup("decode.ird")]--
	rd.Off = []string{"T8: CPI"}
	if f := failures(rd, want); len(f) != len(rd.Insts) {
		t.Fatalf("a shape check off tolerance fails %d instances, want all %d", len(f), len(rd.Insts))
	}
}
