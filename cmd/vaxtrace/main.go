// Command vaxtrace captures a reference trace from a workload and runs
// trace-driven design studies over it: the cache-geometry sweep of the
// 1983 companion cache study and the tagged-TB policy question of §3.4.
//
// Usage:
//
//	vaxtrace -workload timesharing-research -cycles 2000000
//	vaxtrace -workload rte-scientific -o refs.trc       # save the trace
//	vaxtrace -replay refs.trc                           # sweep a saved trace
package main

import (
	"flag"
	"fmt"
	"os"

	"vax780/internal/cache"
	"vax780/internal/cli"
	"vax780/internal/cpu"
	"vax780/internal/report"
	"vax780/internal/trace"
	"vax780/internal/workload"
)

func main() {
	wl := flag.String("workload", "timesharing-research", "workload profile to trace")
	cycles := flag.Uint64("cycles", 2_000_000, "cycle budget for capture")
	out := flag.String("o", "", "save the captured trace to this file")
	replay := flag.String("replay", "", "skip capture; sweep this saved trace")
	maxEvents := flag.Int("max-events", 4_000_000, "trace event cap")
	flag.Parse()

	var tr *trace.Trace
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fatalf("%v", err)
		}
		tr, err = trace.Load(f)
		f.Close()
		if err != nil {
			fatalf("%v", err)
		}
	} else {
		p, ok := workload.ByName(*wl)
		if !ok {
			fatalf("unknown workload %q", *wl)
		}
		s, err := workload.Prepare(p, *cycles, cpu.Config{})
		if err != nil {
			fatalf("%v", err)
		}
		rec := &trace.Recorder{MaxEvents: *maxEvents}
		rec.Attach(s.Machine())
		res := s.Run(*cycles)
		if res.Err != nil {
			fatalf("run: %v", res.Err)
		}
		tr = &rec.Trace
		fmt.Fprintf(os.Stderr, "vaxtrace: captured %d events over %d instructions (truncated=%v)\n",
			len(tr.Events), res.Instructions, rec.Truncated)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatalf("%v", err)
		}
		if err := tr.Save(f); err != nil {
			fatalf("%v", err)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "vaxtrace: trace saved to %s\n", *out)
	}

	// Cache design sweep (the 1983 study's axes: size and associativity).
	var cfgs []cache.Config
	for _, kb := range []int{2, 4, 8, 16, 32, 64} {
		for _, ways := range []int{1, 2, 4} {
			cfgs = append(cfgs, cache.Config{SizeBytes: kb * 1024, Ways: ways, BlockBytes: 8})
		}
	}
	pts := trace.SweepCache(tr, cfgs)
	rows := make([][]string, 0, len(pts))
	for _, p := range pts {
		rows = append(rows, []string{
			fmt.Sprintf("%d KB", p.Config.SizeBytes/1024),
			fmt.Sprintf("%d-way", p.Config.Ways),
			fmt.Sprintf("%.2f%%", 100*p.MissRatio),
			fmt.Sprintf("%.2f%%", 100*p.IMiss),
			fmt.Sprintf("%.2f%%", 100*p.DMiss),
		})
	}
	report.Table(os.Stdout, "Trace-driven cache sweep (read miss ratios; the 11/780 is 8 KB 2-way)",
		[]string{"size", "assoc", "miss", "I-miss", "D-miss"}, rows)

	// TB geometry sweep (Clark & Emer's TB-study axes).
	var tgs []trace.TBGeometry
	for _, sets := range []int{8, 16, 32, 64, 128} {
		tgs = append(tgs, trace.TBGeometry{SetsPerHalf: sets, Ways: 2, SplitHalves: true, FlushOnCtx: true})
	}
	tpts := trace.SweepTB(tr, tgs)
	trows := make([][]string, 0, len(tpts))
	for _, p := range tpts {
		trows = append(trows, []string{
			fmt.Sprintf("%d entries", 2*p.Geometry.SetsPerHalf*p.Geometry.Ways),
			fmt.Sprintf("%d", p.Misses),
			fmt.Sprintf("%.3f%%", 100*p.MissRatio),
		})
	}
	report.Table(os.Stdout, "Trace-driven TB sweep (2-way split halves; the 11/780 is 128 entries)",
		[]string{"size", "misses", "miss ratio"}, trows)

	// TB flush policy.
	flushed := trace.ReplayTB(tr)
	tagged := trace.ReplayTBNoFlush(tr)
	fm := flushed.Misses[0] + flushed.Misses[1]
	tm := tagged.Misses[0] + tagged.Misses[1]
	lookups := fm + flushed.Hits[0] + flushed.Hits[1]
	fmt.Printf("TB policy (%d lookups, %d context-switch flushes):\n", lookups, flushed.ProcessFlushes)
	fmt.Printf("  flush on LDPCTX (11/780): %d misses (%.3f%%)\n", fm, 100*float64(fm)/float64(lookups))
	fmt.Printf("  address-space tagged:     %d misses (%.3f%%)\n", tm, 100*float64(tm)/float64(lookups))
}

func fatalf(format string, args ...any) {
	cli.Fatalf("vaxtrace", format, args...)
}
