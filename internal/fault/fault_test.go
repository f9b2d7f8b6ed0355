package fault

import (
	"math"
	"testing"
)

func TestNilPlaneNeverFires(t *testing.T) {
	var p *Plane
	for i := 0; i < 1000; i++ {
		if p.Sample(MemRDS) {
			t.Fatal("nil plane fired")
		}
	}
	if p.Sampler(MemRDS) != nil {
		t.Error("nil plane should hand out nil samplers")
	}
	if s := p.Stats(); s != (Stats{}) {
		t.Errorf("nil plane stats = %+v", s)
	}
}

func TestZeroRatePlaneNeverFires(t *testing.T) {
	p := NewPlane(Config{Seed: 1})
	for pt := Point(0); pt < NumPoints; pt++ {
		for i := 0; i < 1000; i++ {
			if p.Sample(pt) {
				t.Fatalf("zero-rate point %v fired", pt)
			}
		}
	}
	// Disabled points must not even count samples, so attaching a
	// zero-rate plane is observationally free.
	if s := p.Stats(); s != (Stats{}) {
		t.Errorf("zero-rate plane recorded activity: %+v", s)
	}
	// So a disabled point is not wired into its subsystem at all.
	var cfg Config
	cfg.Sched[CacheParity] = Schedule{Every: 10}
	one := NewPlane(cfg)
	for pt := Point(0); pt < NumPoints; pt++ {
		if p.Sampler(pt) != nil {
			t.Errorf("zero-rate plane handed out a sampler for %v", pt)
		}
		if got := one.Sampler(pt) != nil; got != (pt == CacheParity) {
			t.Errorf("cache-only plane: sampler for %v present = %v", pt, got)
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{Seed: 42}
	cfg.Sched[CacheParity] = Schedule{Rate: 0.01}
	cfg.Sched[TBParity] = Schedule{Rate: 0.05}
	a, b := NewPlane(cfg), NewPlane(cfg)
	for i := 0; i < 100_000; i++ {
		pt := Point(i % int(NumPoints))
		if a.Sample(pt) != b.Sample(pt) {
			t.Fatalf("streams diverged at sample %d", i)
		}
	}
	if a.Stats() != b.Stats() {
		t.Errorf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
}

func TestPointsIndependent(t *testing.T) {
	// Enabling a second point must not change the first point's schedule.
	cfg1 := Config{Seed: 7}
	cfg1.Sched[MemRDS] = Schedule{Rate: 0.01}
	cfg2 := cfg1
	cfg2.Sched[SBITimeout] = Schedule{Rate: 0.5}
	a, b := NewPlane(cfg1), NewPlane(cfg2)
	for i := 0; i < 50_000; i++ {
		b.Sample(SBITimeout)
		if a.Sample(MemRDS) != b.Sample(MemRDS) {
			t.Fatalf("mem stream perturbed by sbi sampling at %d", i)
		}
	}
}

func TestRateApproximate(t *testing.T) {
	cfg := Config{Seed: 3}
	cfg.Sched[MemRDS] = Schedule{Rate: 0.01}
	p := NewPlane(cfg)
	const n = 200_000
	fired := 0
	for i := 0; i < n; i++ {
		if p.Sample(MemRDS) {
			fired++
		}
	}
	got := float64(fired) / n
	if math.Abs(got-0.01) > 0.002 {
		t.Errorf("rate 0.01 fired at %v", got)
	}
	st := p.Stats()
	if st.Samples[MemRDS] != n || st.Injected[MemRDS] != uint64(fired) {
		t.Errorf("stats = %+v", st)
	}
}

func TestEveryNExact(t *testing.T) {
	cfg := Config{Seed: 9}
	cfg.Sched[CSParity] = Schedule{Every: 100}
	p := NewPlane(cfg)
	fired := 0
	for i := 1; i <= 1000; i++ {
		if p.Sample(CSParity) {
			fired++
			if i%100 != 0 {
				t.Fatalf("every=100 fired at sample %d", i)
			}
		}
	}
	if fired != 10 {
		t.Errorf("every=100 fired %d times in 1000, want 10", fired)
	}
}

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("seed=0x2a, mem=1e-4, cache=0.5, sbi=1/5000")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 0x2a {
		t.Errorf("seed = %d", cfg.Seed)
	}
	if cfg.Sched[MemRDS].Rate != 1e-4 || cfg.Sched[CacheParity].Rate != 0.5 {
		t.Errorf("rates = %+v", cfg.Sched)
	}
	if cfg.Sched[SBITimeout].Every != 5000 {
		t.Errorf("sbi every = %d", cfg.Sched[SBITimeout].Every)
	}

	for _, bad := range []string{
		"", "mem", "bogus=1", "mem=2", "mem=-1", "mem=xyz", "seed=no", "mem=1/0", "mem=NaN",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestPointNames(t *testing.T) {
	for pt := Point(0); pt < NumPoints; pt++ {
		got, ok := PointByName(pt.String())
		if !ok || got != pt {
			t.Errorf("PointByName(%q) = %v, %v", pt.String(), got, ok)
		}
	}
	if _, ok := PointByName("nope"); ok {
		t.Error("PointByName accepted unknown name")
	}
}
