package workload

import (
	"fmt"
	"reflect"
	"testing"

	"vax780/internal/core"
	"vax780/internal/cpu"
	"vax780/internal/vax"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{Mix: TimesharingResearch.Mix, Seed: 42}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := flatBytes(a), flatBytes(b)
	if len(fa) != len(fb) {
		t.Fatalf("non-deterministic generation: %d vs %d bytes", len(fa), len(fb))
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("byte %d differs", i)
		}
	}
}

func TestGenerateAllProfilesAssemble(t *testing.T) {
	for _, p := range All() {
		for i := 0; i < 3; i++ {
			im, err := Generate(GenConfig{
				Mix: p.Mix, LoopIter: p.LoopIter, StringLen: p.StringLen,
				Seed: p.Seed + int64(i)*1000,
			})
			if err != nil {
				t.Errorf("%s[%d]: %v", p.Name, i, err)
				continue
			}
			if len(im.Bytes) < 200 {
				t.Errorf("%s[%d]: suspiciously small program (%d bytes)", p.Name, i, len(im.Bytes))
			}
		}
	}
}

func TestGenerateEmptyMixFails(t *testing.T) {
	if _, err := Generate(GenConfig{}); err == nil {
		t.Error("empty mix should fail")
	}
}

func TestTerminalSchedule(t *testing.T) {
	ev := RTECommercial.TerminalSchedule(1_000_000)
	if len(ev) == 0 {
		t.Fatal("no events")
	}
	for i := 1; i < len(ev); i++ {
		if ev[i] < ev[i-1] {
			t.Fatal("events not sorted")
		}
	}
	if ev[len(ev)-1] >= 1_000_000 {
		t.Error("event beyond the run")
	}
	// Rate should be near 1/TermInterval.
	avg := float64(ev[len(ev)-1]) / float64(len(ev))
	if avg < float64(RTECommercial.TermInterval)/2 || avg > float64(RTECommercial.TermInterval)*2 {
		t.Errorf("average gap %.0f far from %d", avg, RTECommercial.TermInterval)
	}
}

func TestRunWorkloadShort(t *testing.T) {
	r, err := Run(TimesharingResearch, 600_000, cpu.Config{MemBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	rep := core.Reduce(r.Hist, cpu.CS)
	if rep.Instructions == 0 {
		t.Fatal("nothing measured")
	}
	if rep.CPI() < 4 || rep.CPI() > 30 {
		t.Errorf("CPI = %.2f", rep.CPI())
	}
	// SIMPLE should dominate the mix for every profile.
	if f := rep.GroupFreq(vax.GroupSimple); f < 0.5 {
		t.Errorf("simple frequency %.2f too low", f)
	}
	if r.IB.CacheRefs == 0 {
		t.Error("no IB references recorded")
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("rte-scientific"); !ok {
		t.Error("rte-scientific missing")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("unknown profile found")
	}
	if len(All()) != 5 {
		t.Errorf("want 5 workloads, got %d", len(All()))
	}
}

func TestRunCompositeSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("composite run in -short mode")
	}
	comp, err := RunComposite(400_000, cpu.Config{MemBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(comp.Runs) != 5 {
		t.Fatalf("runs = %d", len(comp.Runs))
	}
	rep := core.Reduce(comp.Hist, cpu.CS)
	var sum uint64
	for _, r := range comp.Runs {
		sum += core.Reduce(r.Hist, cpu.CS).Instructions
	}
	if rep.Instructions != sum {
		t.Errorf("composite instructions %d != sum %d", rep.Instructions, sum)
	}
	// Every group must appear in the composite.
	for g := vax.Group(0); g < vax.NumGroups; g++ {
		if rep.Groups[g] == 0 {
			t.Errorf("group %v absent from composite", g)
		}
	}
}

// TestCountersAdd: Add sums every field. Each uint64 of a Counters, array
// elements included, gets a distinct value; adding the Counters to itself
// must double each one, so a field Add skips, or one added to the type
// without a line in Add, fails here by name.
func TestCountersAdd(t *testing.T) {
	var c Counters
	n := uint64(0)
	counterLeaves(t, reflect.ValueOf(&c).Elem(), "Counters", func(string, reflect.Value) uint64 {
		n++
		return n
	})
	c.Add(c)
	n = 0
	counterLeaves(t, reflect.ValueOf(&c).Elem(), "Counters", func(path string, v reflect.Value) uint64 {
		n++
		if v.Uint() != 2*n {
			t.Errorf("%s = %d after Add, want %d", path, v.Uint(), 2*n)
		}
		return v.Uint()
	})
}

// counterLeaves visits every uint64 under v, naming it by its path, and
// stores what visit returns there.
func counterLeaves(t *testing.T, v reflect.Value, path string, visit func(string, reflect.Value) uint64) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			counterLeaves(t, v.Field(i), path+"."+v.Type().Field(i).Name, visit)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			counterLeaves(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), visit)
		}
	case reflect.Uint64:
		v.SetUint(visit(path, v))
	default:
		t.Fatalf("%s is a %s; Add sums uint64 counters", path, v.Kind())
	}
}

func TestAnalyzeStatic(t *testing.T) {
	for _, p := range All() {
		im, err := Generate(GenConfig{
			Mix: p.Mix, Blocks: p.Blocks, LoopIter: p.LoopIter,
			StringLen: p.StringLen, Seed: p.Seed,
		})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		mix, err := AnalyzeStatic(im)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if mix.Instructions < 100 {
			t.Errorf("%s: only %d static instructions", p.Name, mix.Instructions)
		}
		// Static group presence must reflect the nonzero mix weights.
		if p.Mix.Float > 0 && mix.Groups[vax.GroupFloat] == 0 {
			t.Errorf("%s: float weight %v but no float instructions", p.Name, p.Mix.Float)
		}
		if p.Mix.Field > 0 && mix.Groups[vax.GroupField] == 0 {
			t.Errorf("%s: field weight set but no field instructions", p.Name)
		}
		// SIMPLE dominates statically too.
		if f := mix.Freq(vax.GroupSimple); f < 0.5 {
			t.Errorf("%s: static simple share %.2f", p.Name, f)
		}
		// The String renderer mentions each group.
		s := mix.String()
		if len(s) < 100 {
			t.Errorf("%s: short render: %q", p.Name, s)
		}
	}
}

// The scientific profile must be statically more float-heavy than the
// research profile (the flavor distinction of §2.2).
func TestProfilesAreDistinct(t *testing.T) {
	mixOf := func(p Profile) *StaticMix {
		im, err := Generate(GenConfig{Mix: p.Mix, Blocks: p.Blocks, Seed: p.Seed})
		if err != nil {
			t.Fatal(err)
		}
		m, err := AnalyzeStatic(im)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	sci := mixOf(RTEScientific)
	res := mixOf(TimesharingResearch)
	com := mixOf(RTECommercial)
	if sci.Freq(vax.GroupFloat) <= res.Freq(vax.GroupFloat) {
		t.Error("scientific not more float-heavy than research")
	}
	if com.Freq(vax.GroupDecimal) < res.Freq(vax.GroupDecimal) {
		t.Error("commercial not more decimal-heavy than research")
	}
}
