// Command vaxrepro runs the full reproduction: the five-workload composite
// measured by the µPC histogram monitor, reduced into every table and
// figure of Emer & Clark (ISCA 1984) and compared against the published
// numbers.
//
// The workloads run under the run supervisor: -checkpoint enables
// periodic crash-safe snapshots (one subdirectory per workload),
// -deadline bounds the wall-clock time, SIGINT/SIGTERM trigger a final
// checkpoint before a clean non-zero exit, and -resume continues an
// interrupted reproduction with tables bit-identical to an uninterrupted
// run.
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
	"os/signal"
	"strings"
	"syscall"

	"vax780/internal/cli"
	"vax780/internal/core"
	"vax780/internal/cpu"
	"vax780/internal/experiments"
	"vax780/internal/report"
	"vax780/internal/vax"
	"vax780/internal/workload"
)

func main() {
	cycles := flag.Uint64("cycles", 8_000_000, "cycles to run per workload (five workloads total)")
	only := flag.String("only", "", "run only the experiment with this ID (e.g. T8, F1, S4.2)")
	summary := flag.Bool("summary", false, "print only the pass/fail summary")
	perWorkload := flag.Bool("per-workload", false, "also print per-workload variation (the paper reports only the composite)")
	ckptDir := flag.String("checkpoint", "", "checkpoint directory: enables periodic crash-safe snapshots, one subdirectory per workload")
	ckptEvery := flag.Uint64("checkpoint-every", workload.DefaultCheckpointEvery, "cycles between automatic checkpoints")
	resume := flag.Bool("resume", false, "resume an interrupted reproduction from the -checkpoint directory")
	deadline := flag.Duration("deadline", 0, "wall-clock budget; an expired deadline checkpoints and exits non-zero")
	flag.Parse()

	if *resume && *ckptDir == "" {
		fatalf("-resume requires -checkpoint <dir>")
	}

	fmt.Fprintf(os.Stderr, "measuring composite: 5 workloads x %d cycles (%.1f simulated seconds)...\n",
		*cycles, float64(*cycles*5)*float64(cpu.CycleNanoseconds)/1e9)
	runCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	sup := workload.Supervisor{CheckpointDir: *ckptDir, CheckpointEvery: *ckptEvery, Deadline: *deadline}
	comp, err := workload.RunCompositeSupervised(runCtx, *cycles, cpu.Config{}, sup, *resume)
	if err != nil {
		var intr *workload.Interrupted
		if errors.As(err, &intr) && *ckptDir != "" {
			fatalf("%v (resume with: vaxrepro -resume -checkpoint %s)", intr, *ckptDir)
		}
		fatalf("%v", err)
	}
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

func fatalf(format string, args ...any) {
	cli.Fatalf("vaxrepro", format, args...)
}
