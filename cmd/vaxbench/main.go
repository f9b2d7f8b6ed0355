// Command vaxbench measures the fleet supervisor (internal/farm) and
// appends the result to the committed BENCH_farm.json ledger (see
// internal/bench). The paper's tables are regenerated by `go test -bench
// .`, and the stepping rate of the five profiles, with its host and
// spread, by perfbench.
//
// The measurement is aggregate throughput — merged cycles per wall
// second across a worker pool — with the rescue and shed counts that say
// what the number covers, and the host's core count and GOMAXPROCS that
// say what it ran on. An optional -chaos script kills workers mid-sweep,
// so the ledger tracks throughput under rescue, the fleet's realistic
// operating point, not just the sunny day.
//
// Usage:
//
//	vaxbench                                    # print, don't touch the ledger
//	vaxbench -out BENCH_farm.json               # fleet throughput
//	vaxbench -chaos "1@6" -out BENCH_farm.json  # ...under worker death
package main

import (
	"context"
	"flag"
	"fmt"
	"runtime"
	"time"

	"vax780/internal/bench"
	"vax780/internal/cli"
	"vax780/internal/farm"
)

const name = "vaxbench"

func main() {
	cycles := flag.Uint64("cycles", 2_000_000, "cycle budget per instance")
	out := flag.String("out", "", "ledger file to append to (empty: print only)")
	instances := flag.Int("instances", 10, "machine-instances")
	workers := flag.Int("workers", 4, "worker-pool width")
	chaos := flag.String("chaos", "", `scripted worker kills, "worker@chunk" pairs: "0@5,2@9"`)
	flag.Parse()

	// The farm stays in memory (no Root): the measurement is supervision
	// overhead and merge cost, not disk. A chaos script is allowed to
	// shed instances — the ledger records it — but a farm that returns a
	// typed failure (pool exhausted) is a benchmark error, not an entry.
	kills, err := farm.ParseKills(*chaos)
	cli.Check(name, err)
	f, err := farm.New(farm.Config{
		Instances: *instances,
		Workers:   *workers,
		Cycles:    *cycles,
		Kills:     kills,
	})
	cli.Check(name, err)
	start := time.Now()
	res, err := f.Run(context.Background())
	elapsed := time.Since(start)
	cli.Check(name, err)

	sec := elapsed.Seconds()
	entry := bench.FarmEntry{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Budget:     *cycles,
		Chaos:      *chaos,
		Farm: bench.FarmResult{
			Instances:    *instances,
			Workers:      *workers,
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
		"farm", *instances, *workers, entry.Farm.CyclesMerged, entry.Farm.CyclesPerSec,
		entry.Farm.Completed, entry.Farm.Rescued, entry.Farm.Shed)
	fmt.Printf("host: %d CPUs, GOMAXPROCS %d\n", entry.NumCPU, entry.GOMAXPROCS)

	if *out == "" {
		return
	}
	l, err := bench.LoadFarm(*out)
	cli.Check(name, err)
	l.Append(entry)
	cli.Check(name, l.Write(*out))
	fmt.Printf("appended entry %d to %s\n", len(l.Entries), *out)
}
