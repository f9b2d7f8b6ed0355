// Command vaxrepro runs the full reproduction: the five-workload composite
// measured by the µPC histogram monitor, reduced into every table and
// figure of Emer & Clark (ISCA 1984) and compared against the published
// numbers.
//
// The five workloads run as a five-instance farm (internal/farm) at the
// registry seeds, one worker per workload up to GOMAXPROCS. -checkpoint
// names the farm's root, under which each workload snapshots periodically
// and persists its result; -deadline bounds the wall-clock time;
// SIGINT/SIGTERM trigger a final checkpoint before a clean non-zero exit;
// and -resume continues an interrupted reproduction, at the cycle budget
// the root records, with tables bit-identical to an uninterrupted run. A
// run without -resume refuses a root that holds an earlier run.
//
// Usage:
//
//	vaxrepro [-cycles N] [-only T8] [-summary]
//	vaxrepro -cycles 8000000 -checkpoint ckpt/ -deadline 30m
//	vaxrepro -resume -checkpoint ckpt/
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"vax780/internal/checkpoint"
	"vax780/internal/cli"
	"vax780/internal/core"
	"vax780/internal/cpu"
	"vax780/internal/experiments"
	"vax780/internal/farm"
	"vax780/internal/report"
	"vax780/internal/vax"
	"vax780/internal/workload"
)

func main() {
	cycles := flag.Uint64("cycles", 8_000_000, "cycles to run per workload (five workloads total)")
	only := flag.String("only", "", "run only the experiment with this ID (e.g. T8, F1, S4.2)")
	summary := flag.Bool("summary", false, "print only the pass/fail summary")
	perWorkload := flag.Bool("per-workload", false, "also print per-workload variation (the paper reports only the composite)")
	ckptDir := flag.String("checkpoint", "", "root directory: enables periodic crash-safe snapshots and -resume")
	ckptEvery := flag.Uint64("checkpoint-every", workload.DefaultCheckpointEvery, "cycles between automatic checkpoints")
	resume := flag.Bool("resume", false, "resume the interrupted reproduction under the -checkpoint root, at its cycle budget")
	deadline := flag.Duration("deadline", 0, "wall-clock budget; an expired deadline checkpoints and exits non-zero")
	flag.Parse()

	if *resume && *ckptDir == "" {
		fatalf("-resume requires -checkpoint <dir>")
	}

	runCtx, stop := cli.RunContext(*deadline)
	defer stop()
	var f *farm.Farm
	var err error
	if *resume {
		f, err = resumeComposite(*ckptDir)
	} else {
		fmt.Fprintf(os.Stderr, "measuring composite: 5 workloads x %d cycles (%.1f simulated seconds)...\n",
			*cycles, float64(*cycles*5)*float64(cpu.CycleNanoseconds)/1e9)
		f, err = farm.New(farmConfig(*cycles, *ckptDir, *ckptEvery))
	}
	cli.Check("vaxrepro", err)
	comp, err := measure(runCtx, f)
	if err != nil && *ckptDir != "" && !errors.Is(err, checkpoint.ErrBadVersion) {
		fatalf("%v (resume with: vaxrepro -resume -checkpoint %s)", err, *ckptDir)
	}
	cli.Check("vaxrepro", err)
	ctx := experiments.NewContextFromComposite(comp, cpu.Config{})
	outs := experiments.RunAll(ctx)
	for _, o := range outs {
		if *only != "" && !strings.EqualFold(o.ID, *only) {
			continue
		}
		if !*summary {
			fmt.Printf("==== %s: %s ====\n\n%s\n", o.ID, o.Title, o.Text)
		}
	}
	if *perWorkload {
		var rows [][]string
		for _, run := range ctx.Comp.Runs {
			r := core.Reduce(run.Hist, cpu.CS)
			rows = append(rows, []string{
				run.Profile.Name,
				fmt.Sprintf("%d", r.Instructions),
				fmt.Sprintf("%.2f", r.CPI()),
				fmt.Sprintf("%.1f%%", 100*r.GroupFreq(vax.GroupSimple)),
				fmt.Sprintf("%.1f%%", 100*r.GroupFreq(vax.GroupFloat)),
				fmt.Sprintf("%.2f%%", 100*r.GroupFreq(vax.GroupCharacter)),
				fmt.Sprintf("%.3f", r.TBMiss.PerInstr(r.Instructions)),
			})
		}
		report.Table(os.Stdout, "Per-workload variation (not published in the paper; composite above)",
			[]string{"workload", "instructions", "CPI", "simple", "float", "char", "tb-miss/instr"}, rows)
	}
	fmt.Println(experiments.Summary(outs))
}

// farmConfig is the composite as a farm: the five registry profiles as
// five instances, one worker each up to GOMAXPROCS.
func farmConfig(cycles uint64, root string, every uint64) farm.Config {
	return farm.Config{
		Instances:       len(workload.All()),
		RegistrySeeds:   true,
		Workers:         min(len(workload.All()), runtime.GOMAXPROCS(0)),
		Cycles:          cycles,
		Root:            root,
		CheckpointEvery: every,
	}
}

// resumeComposite rebuilds the farm under root. A root that holds another
// farm, such as vaxfarm's, is refused: its instances are not the registry
// composite.
func resumeComposite(root string) (*farm.Farm, error) {
	f, err := farm.Resume(root)
	if err == nil && !f.Config().RegistrySeeds {
		return nil, fmt.Errorf("%s holds a farm that is not vaxrepro's composite; vaxfarm -resume resumes it", root)
	}
	return f, err
}

// measure runs the farm and assembles the composite from its per-profile
// sums. A shed or paused workload leaves the composite short, so it is an
// error carrying the farm's cause.
func measure(ctx context.Context, f *farm.Farm) (*workload.Composite, error) {
	res, err := f.Run(ctx)
	if err != nil {
		return nil, err
	}
	for _, o := range res.Ledger {
		if o.Status == farm.StatusShed {
			return nil, fmt.Errorf("%s shed: %s", o.Profile, o.Cause)
		}
	}
	comp := &workload.Composite{Hist: res.Merged}
	for _, ps := range res.ByProfile {
		p, _ := workload.ByName(ps.Name) // New resolved every profile name
		comp.Runs = append(comp.Runs, &workload.Result{Profile: p, Hist: ps.Hist, Counters: ps.Counters})
	}
	return comp, nil
}

func fatalf(format string, args ...any) {
	cli.Fatalf("vaxrepro", format, args...)
}
