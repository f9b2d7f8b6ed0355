// Command vaxfarm runs a fleet of simulated VAX-11/780s: N machine-
// instances sharded across W supervised workers, each measured under the
// µPC histogram monitor, merged into per-profile and composite histograms
// (internal/farm). The farm survives partial failure — killed workers'
// instances are rescued from their newest checkpoint on a surviving
// worker, and an instance whose attempt fails is shed into an explicit
// outcome ledger with its cause instead of biasing the merge (the
// simulator is deterministic, so a failed attempt is final).
//
// SIGINT/SIGTERM and -deadline checkpoint every live instance and exit
// non-zero with one resume hint, the same contract as vaxsim; -resume
// continues the whole farm from its root directory with results
// bit-identical to an undisturbed sweep, re-running shed instances too.
//
// Usage:
//
//	vaxfarm -instances 100 -workers 8 -cycles 2000000 -checkpoint farm/
//	vaxfarm -resume -checkpoint farm/
//	vaxfarm -instances 20 -inject "seed=7,mem=0.0001" -o out/
//	vaxfarm -instances 12 -chaos "0@5,2@9" -ledger   (kill-a-worker demo)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"vax780/internal/cli"
	"vax780/internal/core"
	"vax780/internal/farm"
	"vax780/internal/fault"
	"vax780/internal/workload"
)

func main() {
	instances := flag.Int("instances", 10, "machine-instances to measure")
	workers := flag.Int("workers", 4, "worker-pool width")
	cycles := flag.Uint64("cycles", 2_000_000, "cycle budget per instance")
	wl := flag.String("workload", "all", `workload rotation: "all" or comma-separated profile names (see -list)`)
	inject := flag.String("inject", "", `fault-injection spec applied to every instance, e.g. "seed=7,mem=0.0001" (see internal/fault)`)
	ckptRoot := flag.String("checkpoint", "", "farm root directory: enables durable checkpoints, rescue from disk, and -resume")
	ckptEvery := flag.Uint64("checkpoint-every", workload.DefaultCheckpointEvery, "cycles between automatic per-instance checkpoints")
	resume := flag.Bool("resume", false, "resume the farm recorded under the -checkpoint root")
	deadline := flag.Duration("deadline", 0, "wall-clock budget; expiry checkpoints every live instance and exits non-zero")
	chaos := flag.String("chaos", "", `scripted worker kills, "worker@chunk" pairs: "0@5,2@9"`)
	out := flag.String("o", ".", "output directory for farm-total.upc and per-profile .upc files")
	ledger := flag.Bool("ledger", false, "print the full per-instance outcome ledger")
	list := flag.Bool("list", false, "list workload profiles")
	flag.Parse()

	if *list {
		for _, p := range workload.All() {
			fmt.Printf("%-24s %-18s %2d users, %d processes\n", p.Name, p.Kind, p.Users, p.Procs)
		}
		return
	}

	var f *farm.Farm
	var err error
	if *resume {
		if *ckptRoot == "" {
			fatalf("-resume requires -checkpoint <dir>")
		}
		f, err = farm.Resume(*ckptRoot)
		if err != nil {
			fatalf("%v", err)
		}
	} else {
		cfg := farm.Config{
			Instances:       *instances,
			Workers:         *workers,
			Cycles:          *cycles,
			Root:            *ckptRoot,
			CheckpointEvery: *ckptEvery,
			Deadline:        *deadline,
			Kills:           parseChaos(*chaos),
		}
		if *wl != "all" {
			cfg.Profiles = strings.Split(*wl, ",")
		}
		if *inject != "" {
			c, err := fault.ParseSpec(*inject)
			if err != nil {
				fatalf("bad -inject spec: %v", err)
			}
			cfg.Fault = &c
		}
		f, err = farm.New(cfg)
		if err != nil {
			fatalf("%v", err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := f.Run(ctx)
	if err != nil {
		var intr *farm.Interrupted
		var pe *farm.PoolExhausted
		switch {
		case errors.As(err, &intr) && intr.Root != "":
			fatalf("%v (resume with: vaxfarm -resume -checkpoint %s)", intr, intr.Root)
		case errors.As(err, &intr):
			fatalf("%v (no -checkpoint root: paused instances are not resumable)", intr)
		case errors.As(err, &pe):
			// Graceful degradation: report what completed, then fail.
			report(res, *out, *ledger)
			fatalf("%v", pe)
		default:
			fatalf("%v", err)
		}
	}
	report(res, *out, *ledger)
	if res.Shed > 0 {
		hint := ""
		if *ckptRoot != "" {
			hint = fmt.Sprintf(" (vaxfarm -resume -checkpoint %s re-runs them)", *ckptRoot)
		}
		cli.Exitf(3, "vaxfarm", "%d of %d instances shed; merged histograms cover the remainder%s",
			res.Shed, len(res.Ledger), hint)
	}
}

// report writes the merged histograms and prints the run summary.
func report(res *farm.Result, out string, full bool) {
	if err := os.MkdirAll(out, 0o777); err != nil {
		fatalf("%v", err)
	}
	save := func(name string, h *core.Histogram) {
		path := filepath.Join(out, name)
		f, err := os.Create(path)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		if err := h.Save(f); err != nil {
			fatalf("saving %s: %v", path, err)
		}
	}
	save("farm-total.upc", res.Merged)
	for _, ps := range res.ByProfile {
		save("farm-"+ps.Name+".upc", ps.Hist)
	}
	fmt.Fprintf(os.Stderr, "vaxfarm: %d completed (%d rescued), %d shed, %d paused; %d failures, %d workers lost; %d cycles merged\n",
		res.Completed, res.Rescued, res.Shed, res.Paused, res.Failures, res.Lost, res.Cycles)
	if full {
		for _, o := range res.Ledger {
			line := fmt.Sprintf("vaxfarm:   #%04d %-22s %-9s attempts=%d rescues=%d cycle=%d",
				o.ID, o.Profile, o.Status, o.Attempts, o.Rescues, o.Cycle)
			if o.Cause != "" {
				line += " cause=" + o.Cause
			}
			fmt.Fprintln(os.Stderr, line)
		}
	}
}

// parseChaos parses "worker@chunk" pairs via farm.ParseKills.
func parseChaos(spec string) []farm.Kill {
	kills, err := farm.ParseKills(spec)
	if err != nil {
		fatalf("bad -chaos spec: %v", err)
	}
	return kills
}

func fatalf(format string, args ...any) {
	cli.Fatalf("vaxfarm", format, args...)
}
