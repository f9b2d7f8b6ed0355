// Command vaxsim runs one workload (or a user program) on the simulated
// VAX-11/780 under the µPC histogram monitor and writes the raw histogram
// to a file for later reduction with upcreport — the paper's two-step
// measure-then-interpret flow (§2.2).
//
// Workload runs go through the run supervisor: -checkpoint enables
// periodic crash-safe snapshots, -deadline bounds the wall-clock time,
// SIGINT/SIGTERM trigger a final checkpoint before a clean non-zero exit,
// and -resume continues from the newest snapshot with results
// bit-identical to an uninterrupted run. Without -checkpoint or -deadline
// the supervisor writes no checkpoints and sets no deadline.
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
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vax780/internal/asm"
	"vax780/internal/cli"
	"vax780/internal/core"
	"vax780/internal/cpu"
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
	ckptDir := flag.String("checkpoint", "", "checkpoint directory: enables periodic crash-safe snapshots (workload runs only)")
	ckptEvery := flag.Uint64("checkpoint-every", workload.DefaultCheckpointEvery, "cycles between automatic checkpoints")
	resume := flag.Bool("resume", false, "resume from the newest snapshot in the -checkpoint directory instead of starting fresh")
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

	var hist *core.Histogram
	switch {
	case *resume:
		if *ckptDir == "" {
			fatalf("-resume requires -checkpoint <dir>")
		}
		res := runSupervised(nil, *ckptDir, *ckptEvery, *deadline, true, nil, 0)
		hist = res.Hist
		fmt.Fprintf(os.Stderr, "vaxsim: %s (resumed): %d instructions, %d cycles (%.2f CPI)\n",
			res.Profile.Name, res.Instructions, res.Cycles, float64(res.Cycles)/float64(res.Instructions))
	case *wl != "":
		p, ok := workload.ByName(*wl)
		if !ok {
			fatalf("unknown workload %q (try -list)", *wl)
		}
		res := runSupervised(&p, *ckptDir, *ckptEvery, *deadline, false, fcfg, *cycles)
		hist = res.Hist
		fmt.Fprintf(os.Stderr, "vaxsim: %s: %d instructions, %d cycles (%.2f CPI)\n",
			p.Name, res.Instructions, res.Cycles, float64(res.Cycles)/float64(res.Instructions))
		if fcfg != nil {
			printInjection(res.Faults, res.HW)
		}
		_ = stats // the workload path reports via upcreport; -stats applies to -program
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

// runSupervised runs (or resumes) one workload under the run supervisor
// with SIGINT/SIGTERM wired to a final checkpoint and a clean non-zero
// exit. It only returns on success.
func runSupervised(p *workload.Profile, dir string, every uint64, deadline time.Duration, resume bool, fcfg *fault.Config, cycles uint64) *workload.Result {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	sup := workload.Supervisor{CheckpointDir: dir, CheckpointEvery: every, Deadline: deadline}
	var res *workload.Result
	var err error
	if resume {
		res, err = workload.ResumeSupervised(ctx, dir, sup)
	} else {
		res, err = workload.RunSupervised(ctx, workload.Spec{
			Profile: *p, Cycles: cycles, Machine: cpu.Config{}, Fault: fcfg,
		}, sup)
	}
	if err != nil {
		var intr *workload.Interrupted
		if errors.As(err, &intr) && dir != "" {
			fatalf("%v (resume with: vaxsim -resume -checkpoint %s)", intr, dir)
		}
		fatalf("%v", err)
	}
	return res
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
