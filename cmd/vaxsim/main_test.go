package main

import (
	"context"
	"strings"
	"testing"

	"vax780/internal/farm"
)

// TestResumeRunRefusesOtherFarm: a root that holds a farm of more than one
// instance, such as vaxfarm's or vaxrepro's, is refused rather than
// written out as one run's histogram; a one-instance root resumes.
func TestResumeRunRefusesOtherFarm(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		name string
		cfg  farm.Config
		ok   bool
	}{
		{"vaxfarm", farm.Config{Instances: 2, Workers: 1, Cycles: 50_000}, false},
		{"vaxrepro", farm.Config{Instances: 5, RegistrySeeds: true, Workers: 1, Cycles: 50_000}, false},
		{"vaxsim", farm.Config{Instances: 1, Workers: 1, Profiles: []string{"rte-scientific"}, Cycles: 50_000}, true},
	} {
		root := t.TempDir()
		c.cfg.Root = root
		f, err := farm.New(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Run(cancelled); err == nil {
			t.Fatalf("%s: a cancelled run completed", c.name)
		}
		f, err = resumeRun(root)
		switch {
		case c.ok && err != nil:
			t.Errorf("a %s root: %v", c.name, err)
		case !c.ok && (f != nil || err == nil || !strings.Contains(err.Error(), "not a vaxsim run")):
			t.Errorf("a %s root: farm %v, err %v; want it refused", c.name, f, err)
		}
	}
}
