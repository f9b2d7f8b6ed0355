package main

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"vax780/internal/cpu"
	"vax780/internal/farm"
	"vax780/internal/fault"
	"vax780/internal/workload"
)

// TestMeasureIsRegistryComposite: vaxrepro's farm measures the registry
// composite. Its histogram, and each workload's profile, histogram and
// counters, equal workload.RunComposite's.
func TestMeasureIsRegistryComposite(t *testing.T) {
	const cycles = 200_000
	want, err := workload.RunComposite(cycles, cpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := farm.New(farmConfig(cycles, "", 50_000))
	if err != nil {
		t.Fatal(err)
	}
	got, err := measure(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Hist, want.Hist) {
		t.Error("composite histogram differs from workload.RunComposite's")
	}
	if len(got.Runs) != len(want.Runs) {
		t.Fatalf("%d runs, want %d", len(got.Runs), len(want.Runs))
	}
	for i, w := range want.Runs {
		g := got.Runs[i]
		if !reflect.DeepEqual(g.Profile, w.Profile) || !reflect.DeepEqual(g.Hist, w.Hist) || g.Counters != w.Counters {
			t.Errorf("run %d: %s differs from %s's own run", i, g.Profile.Name, w.Profile.Name)
		}
	}
}

// TestMeasureShortComposite: a shed or paused workload is an error that
// carries the farm's cause, never a composite short of it.
func TestMeasureShortComposite(t *testing.T) {
	storm := farmConfig(200_000, "", 50_000)
	storm.Fault = &fault.Config{Seed: 3}
	storm.Fault.Sched[fault.CSParity] = fault.Schedule{Every: 25}
	f, err := farm.New(storm)
	if err != nil {
		t.Fatal(err)
	}
	if comp, err := measure(context.Background(), f); comp != nil || err == nil || !strings.Contains(err.Error(), "shed: instance 0:") {
		t.Errorf("control-store parity storm: composite %v, err %v; want the first shed workload's cause", comp, err)
	}

	f, err = farm.New(farmConfig(200_000, "", 50_000))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var intr *farm.Interrupted
	if comp, err := measure(ctx, f); comp != nil || !errors.As(err, &intr) {
		t.Errorf("cancelled: composite %v, err %v; want *farm.Interrupted", comp, err)
	}
}

// TestResumeCompositeRefusesOtherFarm: a root that holds a farm other
// than vaxrepro's composite, such as a vaxfarm sweep's, is refused rather
// than reduced as the composite; vaxrepro's own root resumes.
func TestResumeCompositeRefusesOtherFarm(t *testing.T) {
	other := t.TempDir()
	f, err := farm.New(farm.Config{Instances: 1, Workers: 1, Cycles: 50_000, Root: other})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if f, err := resumeComposite(other); f != nil || err == nil || !strings.Contains(err.Error(), "not vaxrepro's composite") {
		t.Errorf("a vaxfarm root: farm %v, err %v; want it refused", f, err)
	}

	own := t.TempDir()
	f, err = farm.New(farmConfig(50_000, own, 25_000))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.Run(ctx); err == nil {
		t.Fatal("a cancelled run completed")
	}
	if _, err := resumeComposite(own); err != nil {
		t.Errorf("vaxrepro's own root: %v", err)
	}
}
