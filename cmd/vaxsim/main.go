// Command vaxsim runs one workload (or a user program) on the simulated
// VAX-11/780 under the µPC histogram monitor and writes the raw histogram
// to a file for later reduction with upcreport — the paper's two-step
// measure-then-interpret flow (§2.2).
//
// A workload runs as a one-instance farm (internal/farm), with the durable
// layout, resume rule and used-root check of vaxfarm and vaxrepro:
// -checkpoint names the farm's root, under which the run snapshots
// periodically and persists its result; -deadline bounds the wall-clock
// time; SIGINT/SIGTERM trigger a final checkpoint before a clean non-zero
// exit; and -resume continues the run under the root with results
// bit-identical to an uninterrupted run. A run without -resume refuses a
// root that holds an earlier run, and -resume refuses a root whose farm
// has more than one instance, such as vaxfarm's or vaxrepro's. Without
// -checkpoint nothing is written but the histogram. -stats applies to
// -program runs; a workload's statistics come from upcreport.
//
// Usage:
//
//	vaxsim -workload rte-commercial -cycles 5000000 -o hist.upc
//	vaxsim -program prog.s -cycles 1000000 -o hist.upc
//	vaxsim -workload rte-commercial -inject "seed=7,mem=0.0001,sbi=1/50000"
//	vaxsim -workload rte-commercial -checkpoint ckpt/ -deadline 30m
//	vaxsim -resume -checkpoint ckpt/ -o hist.upc
//	vaxsim -list
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"vax780/internal/asm"
	"vax780/internal/cli"
	"vax780/internal/core"
	"vax780/internal/cpu"
	"vax780/internal/farm"
	"vax780/internal/fault"
	"vax780/internal/vax"
	"vax780/internal/workload"
)

func main() {
	wl := flag.String("workload", "", "workload profile to run (see -list)")
	prog := flag.String("program", "", "assembly source file to run bare (no OS)")
	cycles := flag.Uint64("cycles", 5_000_000, "cycle budget")
	out := flag.String("o", "hist.upc", "output histogram file")
	list := flag.Bool("list", false, "list workload profiles")
	stats := flag.Bool("stats", false, "print the hardware statistics report")
	inject := flag.String("inject", "", `fault-injection spec, e.g. "seed=7,mem=0.0001,sbi=1/50000" (see internal/fault)`)
	ckptDir := flag.String("checkpoint", "", "root directory: enables periodic crash-safe snapshots and -resume (workload runs only)")
	ckptEvery := flag.Uint64("checkpoint-every", workload.DefaultCheckpointEvery, "cycles between automatic checkpoints")
	resume := flag.Bool("resume", false, "resume the run under the -checkpoint root instead of starting fresh")
	deadline := flag.Duration("deadline", 0, "wall-clock budget; an expired deadline checkpoints and exits non-zero")
	flag.Parse()

	var fcfg *fault.Config
	if *inject != "" {
		c, err := fault.ParseSpec(*inject)
		if err != nil {
			fatalf("bad -inject spec: %v", err)
		}
		fcfg = &c
	}

	if *list {
		for _, p := range workload.All() {
			fmt.Printf("%-24s %-18s %2d users, %d processes\n", p.Name, p.Kind, p.Users, p.Procs)
		}
		return
	}

	if *stats && (*resume || *wl != "") {
		fatalf("-stats applies only to -program runs; reduce a workload's histogram with upcreport")
	}

	var hist *core.Histogram
	switch {
	case *resume:
		if *ckptDir == "" {
			fatalf("-resume requires -checkpoint <dir>")
		}
		f, err := resumeRun(*ckptDir)
		cli.Check("vaxsim", err)
		hist = runFarm(f, *ckptDir, *deadline, " (resumed)")
	case *wl != "":
		if _, ok := workload.ByName(*wl); !ok {
			fatalf("unknown workload %q (try -list)", *wl)
		}
		f, err := farm.New(farm.Config{
			Instances:       1,
			Workers:         1,
			Profiles:        []string{*wl},
			Cycles:          *cycles,
			Fault:           fcfg,
			Root:            *ckptDir,
			CheckpointEvery: *ckptEvery,
		})
		cli.Check("vaxsim", err)
		hist = runFarm(f, *ckptDir, *deadline, "")
	case *prog != "":
		src, err := os.ReadFile(*prog)
		if err != nil {
			fatalf("%v", err)
		}
		im, err := asm.Assemble(0x1000, string(src))
		if err != nil {
			fatalf("assemble: %v", err)
		}
		var plane *fault.Plane
		if fcfg != nil {
			plane = fault.NewPlane(*fcfg)
		}
		m := cpu.New(cpu.Config{MemBytes: 1 << 20})
		mon := core.NewMonitor()
		mon.Start()
		m.AttachProbe(mon)
		m.AttachFaultPlane(plane)
		m.Mem.Load(im.Org, im.Bytes)
		m.R[vax.SP] = 0x8000
		m.SetPC(im.Org)
		res := m.Run(*cycles)
		if res.Err != nil {
			fatalf("run: %v", res.Err)
		}
		hist = mon.Snapshot()
		fmt.Fprintf(os.Stderr, "vaxsim: %s: %d instructions, %d cycles (halted=%v)\n",
			*prog, res.Instructions, res.Cycles, res.Halted)
		if plane != nil {
			printInjection(plane.Stats(), m.HW())
		}
		if *stats {
			fmt.Fprint(os.Stderr, m.StatsReport())
		}
	default:
		fatalf("need -workload, -program, -resume, or -list")
	}

	f, err := os.Create(*out)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	if err := hist.Save(f); err != nil {
		fatalf("saving histogram: %v", err)
	}
	fmt.Fprintf(os.Stderr, "vaxsim: histogram written to %s (%d classified cycles)\n",
		*out, hist.TotalCycles())
}

// resumeRun rebuilds the one-instance farm under root. A root that holds
// a farm of more instances, such as vaxfarm's or vaxrepro's, is refused:
// its merge is not one run's histogram.
func resumeRun(root string) (*farm.Farm, error) {
	f, err := farm.Resume(root)
	if err == nil && f.Config().Instances != 1 {
		return nil, fmt.Errorf("%s holds a farm of %d instances, not a vaxsim run; vaxfarm -resume resumes it",
			root, f.Config().Instances)
	}
	return f, err
}

// runFarm runs a one-instance farm with SIGINT/SIGTERM and the deadline
// wired to a final checkpoint and a clean non-zero exit, prints the run's
// summary and returns its histogram. It only returns on success.
func runFarm(f *farm.Farm, root string, deadline time.Duration, resumed string) *core.Histogram {
	ctx, stop := cli.RunContext(deadline)
	defer stop()
	res, err := f.Run(ctx)
	var intr *farm.Interrupted
	var inUse *farm.RootInUse
	resumable := errors.As(err, &inUse) || errors.As(err, &intr) && root != ""
	if intr != nil || err == nil && res.Shed > 0 {
		// The run's own cause names the cycle where it stopped.
		err = errors.New(res.Ledger[0].Cause)
	}
	if resumable {
		fatalf("%v (resume with: vaxsim -resume -checkpoint %s)", err, root)
	}
	cli.Check("vaxsim", err)
	run := res.ByProfile[0]
	fmt.Fprintf(os.Stderr, "vaxsim: %s%s: %d instructions, %d cycles (%.2f CPI)\n",
		run.Name, resumed, run.Counters.Instructions, res.Cycles, float64(res.Cycles)/float64(run.Counters.Instructions))
	if f.Config().Fault != nil {
		printInjection(run.Counters.Faults, run.Counters.HW)
	}
	return run.Hist
}

func printInjection(fs fault.Stats, hw cpu.HWCounters) {
	fmt.Fprintf(os.Stderr, "vaxsim: injection:")
	for pt := fault.Point(0); pt < fault.NumPoints; pt++ {
		fmt.Fprintf(os.Stderr, " %s=%d/%d", pt, fs.Injected[pt], fs.Samples[pt])
	}
	fmt.Fprintf(os.Stderr, "; %d machine checks delivered, %d lost\n",
		hw.MachineChecks, hw.MachineChecksLost)
}

func fatalf(format string, args ...any) {
	cli.Fatalf("vaxsim", format, args...)
}
