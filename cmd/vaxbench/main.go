// Command vaxbench measures the cost of two parts of the reproduction
// and appends the result to a committed ledger (see internal/bench). The
// paper's tables are regenerated by `go test -bench .`, and the stepping
// rate of the five profiles, with its host and spread, by perfbench.
//
// -farm measures the fleet supervisor (internal/farm): aggregate
// throughput — merged cycles per wall second across a worker pool — with
// the rescue and shed counts that say what the number covers, appended
// to the BENCH_farm.json ledger. An optional -chaos script kills workers
// mid-sweep, so the ledger tracks throughput under rescue, the fleet's
// realistic operating point, not just the sunny day.
//
// -lint measures the analyzer suite itself: one module load, one
// parallel whole-suite run (the shape `make check` pays for), then each
// analyzer timed alone over the whole tree with its findings count,
// appended to BENCH_lint.json, so the suite's own cost has a trajectory.
//
// Usage:
//
//	vaxbench -farm                                    # print, don't touch the ledger
//	vaxbench -farm -out BENCH_farm.json               # fleet throughput
//	vaxbench -farm -chaos "1@6" -out BENCH_farm.json  # ...under worker death
//	vaxbench -lint -out BENCH_lint.json               # vaxlint suite cost
package main

import (
	"context"
	"flag"
	"fmt"
	"runtime"
	"time"

	"vax780/internal/analysis"
	"vax780/internal/bench"
	"vax780/internal/cli"
	"vax780/internal/farm"
)

const name = "vaxbench"

func main() {
	cycles := flag.Uint64("cycles", 2_000_000, "cycle budget per instance for -farm")
	out := flag.String("out", "", "ledger file to append to (empty: print only)")
	farmMode := flag.Bool("farm", false, "measure fleet-supervisor throughput")
	lintMode := flag.Bool("lint", false, "measure the vaxlint analyzer suite")
	instances := flag.Int("instances", 10, "machine-instances for -farm")
	workers := flag.Int("workers", 4, "worker-pool width for -farm")
	chaos := flag.String("chaos", "", `scripted worker kills for -farm, "worker@chunk" pairs: "0@5,2@9"`)
	flag.Parse()

	switch {
	case *farmMode == *lintMode:
		cli.Exitf(2, name, "choose one of -farm and -lint")
	case *farmMode:
		benchFarm(*instances, *workers, *cycles, *chaos, *out)
	default:
		benchLint(*out)
	}
}

// benchFarm runs one farm sweep and appends its aggregate throughput to
// the BENCH_farm.json ledger. The farm stays in memory (no Root): the
// measurement is supervision overhead and merge cost, not disk. A chaos
// script is allowed to shed instances — the ledger records it — but a
// farm that returns a typed failure (pool exhausted) is a benchmark
// error, not an entry.
func benchFarm(instances, workers int, cycles uint64, chaos, out string) {
	kills, err := farm.ParseKills(chaos)
	cli.Check(name, err)
	f, err := farm.New(farm.Config{
		Instances: instances,
		Workers:   workers,
		Cycles:    cycles,
		Kills:     kills,
	})
	cli.Check(name, err)
	start := time.Now()
	res, err := f.Run(context.Background())
	elapsed := time.Since(start)
	cli.Check(name, err)

	sec := elapsed.Seconds()
	entry := bench.FarmEntry{
		Date:      time.Now().UTC().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		Budget:    cycles,
		Chaos:     chaos,
		Farm: bench.FarmResult{
			Instances:    instances,
			Workers:      workers,
			Seconds:      sec,
			CyclesMerged: res.Cycles,
			CyclesPerSec: float64(res.Cycles) / sec,
			Completed:    res.Completed,
			Rescued:      res.Rescued,
			Shed:         res.Shed,
			WorkersLost:  res.Lost,
		},
	}
	fmt.Printf("%-10s %8s %8s %14s %12s %10s %8s %6s\n",
		"", "insts", "workers", "cycles", "cycles/sec", "completed", "rescued", "shed")
	fmt.Printf("%-10s %8d %8d %14d %12.0f %10d %8d %6d\n",
		"farm", instances, workers, entry.Farm.CyclesMerged, entry.Farm.CyclesPerSec,
		entry.Farm.Completed, entry.Farm.Rescued, entry.Farm.Shed)

	if out == "" {
		return
	}
	l, err := bench.LoadFarm(out)
	cli.Check(name, err)
	l.Append(entry)
	cli.Check(name, l.Write(out))
	fmt.Printf("appended entry %d to %s\n", len(l.Entries), out)
}

// benchLint times the vaxlint suite over the whole module: one shared
// load (reported separately — it is amortized across the suite in the
// real `make check`), one whole-suite run the way `make check` runs it
// (analysis.Run fans the analyzers out in parallel, so on a multi-core
// host the suite's wall time tracks the slowest analyzer rather than
// the sum), then each analyzer run
// alone so its wall time and findings count get their own trajectory in
// the ledger.
func benchLint(out string) {
	loadStart := time.Now()
	pkgs, err := analysis.LoadModule(".", []string{"./..."})
	cli.Check(name, err)
	loadSec := time.Since(loadStart).Seconds()

	suiteStart := time.Now()
	_, err = analysis.Run(analysis.All(), pkgs)
	cli.Check(name, err)
	suiteSec := time.Since(suiteStart).Seconds()

	entry := bench.LintEntry{
		Date:         time.Now().UTC().Format("2006-01-02"),
		GoVersion:    runtime.Version(),
		Analyzers:    len(analysis.All()),
		LoadSeconds:  loadSec,
		SuiteSeconds: suiteSec,
	}
	fmt.Printf("%-14s %10s %10s\n", "analyzer", "seconds", "findings")
	fmt.Printf("%-14s %10.3f %10s\n", "(load)", loadSec, "-")
	fmt.Printf("%-14s %10.3f %10s\n", "(suite ∥)", suiteSec, "-")
	for _, a := range analysis.All() {
		start := time.Now()
		diags, err := analysis.Run([]*analysis.Analyzer{a}, pkgs)
		cli.Check(name, err)
		sec := time.Since(start).Seconds()
		n := 0
		for _, d := range diags {
			if d.Analyzer == a.Name {
				n++
			}
		}
		entry.Costs = append(entry.Costs, bench.AnalyzerCost{Name: a.Name, Seconds: sec, Findings: n})
		fmt.Printf("%-14s %10.3f %10d\n", a.Name, sec, n)
	}

	if out == "" {
		return
	}
	l, err := bench.LoadLint(out)
	cli.Check(name, err)
	l.Append(entry)
	cli.Check(name, l.Write(out))
	fmt.Printf("appended entry %d to %s\n", len(l.Entries), out)
}
